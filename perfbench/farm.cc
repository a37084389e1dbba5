/**
 * @file
 * farm phase: per program, cut a live-point library (fast-forward with
 * functional warming, written to disk), open it, and farm a
 * matched-pair sweep from it on the modern hierarchy preset — the
 * fac+stride+waymemo machine against the baseline measured from the
 * same live-points.
 */

#include <cmath>
#include <cstdio>

#include "phases.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "util/serialize.hh"

namespace facbench
{

using namespace facsim;

namespace
{

/** Sampling parameters of the libraries (bench/ablation_farm's). */
SamplingConfig
samplingConfig()
{
    SamplingConfig s;
    s.period = 25000;
    s.detail = 1000;
    s.warmup = 2000;
    return s;
}

PipelineConfig
modern(const std::string &mode)
{
    PipelineConfig c = predictorPipelineConfig(mode, 32);
    c.hierarchy = modernHierarchy();
    return c;
}

/** Digest of the farm estimates at the default seed. */
constexpr uint64_t kPinnedEstimateDigest = 0x7ec9fc1dc4cd2b1full;

class FarmPhase final : public Phase
{
  public:
    explicit FarmPhase(const Options &o) : opt_(o)
    {
        for (const WorkloadInfo &w : allWorkloads()) {
            LvptBuildRequest b;
            b.workload = w.name;
            b.build.policy = CodeGenPolicy::withSupport();
            b.build.scale = 1;
            b.build.seed = buildSeed(o);
            b.pipe = modern("none");
            b.sampling = samplingConfig();
            builds_.push_back(b);
            paths_.push_back(o.workDir + "/lib_" + w.name + ".lvpt");
        }
        freq_.pipe = modern("fac+stride+waymemo");
        freq_.partner = modern("none");
        freq_.matchedPair = true;
        freq_.jobs = o.threads;
        buildWalls_.resize(builds_.size());
        farmWalls_.resize(builds_.size());
    }

    ~FarmPhase() override
    {
        for (const std::string &p : paths_)
            std::remove(p.c_str());
    }

    const char *name() const override { return "farm"; }

    double
    setup() override
    {
        if (libs_.empty())
            buildLibraries();  // the fixture; its cost is measured in rep()
        Span span("setup.farm");
        Clock::time_point t0 = Clock::now();
        for (const LvptBuildRequest &b : builds_) {
            Span m("sim.machine_build");
            Machine machine(workload(b.workload), b.build);
        }
        openLibraries();
        return since(t0);
    }

    double
    rep() override
    {
        Span span("farm.rep");
        std::vector<double> build_s = buildLibraries();
        double lib_s = 0.0;
        for (size_t i = 0; i < build_s.size(); ++i) {
            buildWalls_[i].push_back(build_s[i]);
            lib_s += build_s[i];
        }
        mklibRates_.push_back(static_cast<double>(ffInsts_) / lib_s / 1e6);
        openLibraries();

        Span f("farm.run");
        std::string est;
        uint64_t points = 0;
        double wall = 0.0;
        for (size_t i = 0; i < libs_.size(); ++i) {
            FarmResult fr = runFarm(*libs_[i], freq_);
            points += fr.report.numJobs;
            wall += fr.report.wallSeconds;
            farmWalls_[i].push_back(fr.report.wallSeconds);
            est += estimateBytes(fr);
            if (results_.size() < libs_.size())
                results_.push_back(fr);
        }
        lpRates_.push_back(static_cast<double>(points) / wall);
        digests_.push_back(digest(est));
        points_ = points;
        return wall;
    }

    size_t reps() const override { return lpRates_.size(); }

    void
    clearSamples() override
    {
        mklibRates_.clear();
        lpRates_.clear();
        for (auto *walls : {&buildWalls_, &farmWalls_})
            for (std::vector<double> &w : *walls)
                w.clear();
    }

    /**
     * Both rates divide one repetition's work by the sum over programs
     * of that program's median time across repetitions. A farm call is
     * tens of milliseconds on every worker, so a host stall of a few
     * milliseconds on one vCPU can halve it; the per-program median
     * drops such a call, where a median of whole repetitions would
     * need more repetitions than a run has.
     */
    void
    finish(Report &r) override
    {
        r.metric("mklib_minsts_per_s",
                 static_cast<double>(ffInsts_) / sumOfMedians(buildWalls_) /
                     1e6,
                 "Minst/s");
        r.metric("farm_livepoints_per_s",
                 static_cast<double>(points_) / sumOfMedians(farmWalls_),
                 "1/s");
        r.metric("lvpt.library_mb",
                 static_cast<double>(libBytes_) / (1 << 20), "MB");
        r.info("farm",
               "{\"reps\":" + std::to_string(lpRates_.size()) +
                   ",\"programs\":" + std::to_string(builds_.size()) +
                   ",\"livepoints\":" + std::to_string(points_) +
                   ",\"ff_insts\":" + std::to_string(ffInsts_) +
                   ",\"mklib_rates\":" + jarr(mklibRates_) +
                   ",\"lp_rates\":" + jarr(lpRates_) +
                   ",\"estimate_digest\":" +
                   jstr(hex64(digests_.front())) + "}");
        for (size_t i = 1; i < digests_.size(); ++i) {
            r.check(digests_[i] == digests_[0],
                    "farm: repetition " + std::to_string(i) +
                        " changed the estimates");
        }
        serialSamplerCheck(r);
        if (isDefaultSeed(opt_)) {
            r.check(digests_[0] == kPinnedEstimateDigest,
                    "farm: estimate digest " + hex64(digests_[0]) +
                        " differs from the pinned " +
                        hex64(kPinnedEstimateDigest));
        }
    }

    const std::vector<std::string> &paths() const { return paths_; }

  private:
    /** Cut every library (serially); returns each one's wall seconds. */
    std::vector<double>
    buildLibraries()
    {
        std::vector<double> walls;
        ffInsts_ = 0;
        libBytes_ = 0;
        for (size_t i = 0; i < builds_.size(); ++i) {
            Span s("lvpt.build");
            Clock::time_point t0 = Clock::now();
            LvptBuildResult br = buildLvptLibrary(paths_[i], builds_[i]);
            walls.push_back(since(t0));
            ffInsts_ += br.totalInsts;
            libBytes_ += br.libraryBytes;
        }
        return walls;
    }

    static double
    sumOfMedians(const std::vector<std::vector<double>> &walls)
    {
        double s = 0.0;
        for (const std::vector<double> &w : walls)
            s += median(w);
        return s;
    }

    void
    openLibraries()
    {
        libs_.clear();
        for (const std::string &p : paths_) {
            Span s("lvpt.open");
            libs_.push_back(std::make_unique<LvptLibrary>(p));
        }
    }

    static std::string
    estimateBytes(const FarmResult &fr)
    {
        ser::Writer w;
        w.u64(fr.windows);
        w.u64(fr.measuredInsts);
        w.u64(fr.measuredCycles);
        for (const MetricEstimate *e :
             {&fr.cpi, &fr.partnerCpi, &fr.pairedSpeedup}) {
            w.f64(e->mean);
            w.f64(e->halfWidth);
            w.u64(e->n);
        }
        return w.data();
    }

    /**
     * The farm must reproduce the serial SMARTS sampler: same windows,
     * same warm state, same estimator. A live-point carries the warmed
     * caches, TLB and BTB but not the stride and way-memo tables, which
     * start cold in every farmed window while the serial sampler keeps
     * them trained across windows. So the partner (no table
     * predictors) must match exactly, and the fac+stride+waymemo
     * estimate must fall inside the serial estimate's 95% interval; the
     * largest relative gap is reported.
     */
    void
    serialSamplerCheck(Report &r)
    {
        Span span("farm.check");
        std::vector<TimingRequest> reqs;
        for (const LvptBuildRequest &b : builds_) {
            for (const PipelineConfig *cfg : {&freq_.pipe, &freq_.partner}) {
                TimingRequest t;
                t.workload = b.workload;
                t.build = b.build;
                t.pipe = *cfg;
                t.sampling = b.sampling;
                reqs.push_back(t);
            }
        }
        Runner runner(opt_.threads);
        std::vector<TimingResult> serial = runner.runTimings(reqs);
        double worst = 0.0;
        for (size_t i = 0; i < results_.size(); ++i) {
            const FarmResult &fr = results_[i];
            const MetricEstimate &zoo = serial[2 * i].sample.cpi;
            const MetricEstimate &base = serial[2 * i + 1].sample.cpi;
            const std::string &wl = builds_[i].workload;
            r.check(base.n == fr.partnerCpi.n &&
                        std::fabs(base.mean - fr.partnerCpi.mean) <=
                            1e-12 * std::fabs(base.mean),
                    "farm: " + wl +
                        " baseline CPI differs from the serial sampler");
            r.check(zoo.n == fr.cpi.n && zoo.covers(fr.cpi.mean),
                    "farm: " + wl + " fac+stride+waymemo CPI outside the "
                                    "serial sampler's 95% interval");
            worst = std::max(worst,
                             std::fabs(fr.cpi.mean - zoo.mean) / zoo.mean);
        }
        r.info("farm_zoo_vs_serial_max_rel_gap", jnum(worst));
    }

    const Options &opt_;
    std::vector<LvptBuildRequest> builds_;
    std::vector<std::string> paths_;
    std::vector<std::unique_ptr<LvptLibrary>> libs_;
    FarmRequest freq_;
    std::vector<FarmResult> results_;
    /** One entry per measured repetition. */
    std::vector<double> mklibRates_, lpRates_;
    /** Per program, one entry per measured repetition. */
    std::vector<std::vector<double>> buildWalls_, farmWalls_;
    std::vector<uint64_t> digests_;
    uint64_t ffInsts_ = 0;
    uint64_t libBytes_ = 0;
    uint64_t points_ = 0;
};

} // namespace

std::unique_ptr<Phase>
makeFarmPhase(const Options &o)
{
    return std::make_unique<FarmPhase>(o);
}

std::vector<std::string>
farmLibraries(const Phase &farm)
{
    return static_cast<const FarmPhase &>(farm).paths();
}

} // namespace facbench
