/**
 * @file
 * fig6 phase: the Figure 6 configuration matrix — per program two
 * baselines (16/32-byte blocks) and six FAC machines (hardware only and
 * with software support, both block sizes, and the 32-byte pair without
 * R+R speculation) — over all 19 programs on the paper preset, in full
 * detail, fanned across the experiment Runner.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "phases.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"
#include "sim/runner.hh"
#include "sim/stats.hh"
#include "util/table.hh"

namespace facbench
{

using namespace facsim;

namespace
{

/**
 * Workload scale and per-run instruction budget of the measured sweep.
 * At scale 4 every program runs past the budget, so each of the 152
 * jobs simulates exactly kMaxInsts instructions whatever the data seed:
 * the work per sweep is fixed and the jobs balance across workers.
 */
constexpr uint64_t kScale = 4;
constexpr uint64_t kMaxInsts = 250000;

/** The golden table's budget (tests/golden/fig6_200k.txt, scale 1). */
constexpr uint64_t kGoldenInsts = 200000;

/**
 * Digest of every encoded TimingResult of the measured sweep at the
 * default seed: every modelled count (cycles, instructions, cache,
 * predictor and stall counters) of all 152 runs.
 */
constexpr uint64_t kPinnedModelDigest = 0x2d6de60e29dce2c1ull;

/** Digest of the golden-budget table, for checkouts without tests/. */
constexpr uint64_t kPinnedGoldenDigest = 0xbbe67f13072b3155ull;

struct Cfg
{
    const char *label;
    bool software;
    uint32_t block;
    bool specRR;
};

const Cfg kCfgs[] = {
    {"HW,16B", false, 16, true},
    {"HW+SW,16B", true, 16, true},
    {"HW,32B", false, 32, true},
    {"HW+SW,32B", true, 32, true},
    {"HW,32B,noRR", false, 32, false},
    {"HW+SW,32B,noRR", true, 32, false},
};
constexpr size_t kNumCfgs = sizeof(kCfgs) / sizeof(kCfgs[0]);
constexpr size_t kStride = 2 + kNumCfgs;

BuildOptions
buildFor(const Options &o, bool software, uint64_t scale)
{
    BuildOptions b;
    b.policy = software ? CodeGenPolicy::withSupport()
                        : CodeGenPolicy::baseline();
    b.scale = scale;
    b.seed = buildSeed(o);
    return b;
}

/** The matrix in fig6_speedup's order: 2 baselines, then each config. */
std::vector<TimingRequest>
matrix(const Options &o, uint64_t scale, uint64_t max_insts)
{
    std::vector<TimingRequest> reqs;
    for (const WorkloadInfo &w : allWorkloads()) {
        for (uint32_t block : {16u, 32u}) {
            TimingRequest r;
            r.workload = w.name;
            r.build = buildFor(o, false, scale);
            r.pipe = baselineConfig(block);
            r.maxInsts = max_insts;
            reqs.push_back(r);
        }
        for (const Cfg &c : kCfgs) {
            TimingRequest r;
            r.workload = w.name;
            r.build = buildFor(o, c.software, scale);
            r.pipe = facPipelineConfig(c.block, c.specRR);
            r.maxInsts = max_insts;
            reqs.push_back(r);
        }
    }
    return reqs;
}

/** The Figure 6 table exactly as bench/fig6_speedup prints it. */
std::string
fig6Table(const std::vector<TimingResult> &res)
{
    const std::vector<WorkloadInfo> &wls = allWorkloads();
    std::vector<std::vector<double>> spd(wls.size());
    std::vector<double> weights;
    std::vector<bool> is_fp;
    for (size_t wi = 0; wi < wls.size(); ++wi) {
        const TimingResult *r = &res[wi * kStride];
        uint64_t base[2] = {r[0].stats.cycles, r[1].stats.cycles};
        for (size_t ci = 0; ci < kNumCfgs; ++ci) {
            spd[wi].push_back(speedup(base[kCfgs[ci].block == 16 ? 0 : 1],
                                      r[2 + ci].stats.cycles));
        }
        weights.push_back(static_cast<double>(base[1]));
        is_fp.push_back(wls[wi].floatingPoint);
    }

    Table t;
    std::vector<std::string> hdr{"Benchmark"};
    for (const Cfg &c : kCfgs)
        hdr.push_back(c.label);
    t.header(hdr);
    auto avg = [&](bool fp, const char *label) {
        std::vector<std::string> cells{label};
        for (size_t c = 0; c < kNumCfgs; ++c) {
            std::vector<double> v, w;
            for (size_t wi = 0; wi < wls.size(); ++wi) {
                if (is_fp[wi] == fp) {
                    v.push_back(spd[wi][c]);
                    w.push_back(weights[wi]);
                }
            }
            cells.push_back(fmtF(weightedMean(v, w), 3));
        }
        t.row(cells);
    };
    bool did_int = false;
    for (size_t wi = 0; wi < wls.size(); ++wi) {
        if (is_fp[wi] && !did_int) {
            avg(false, "Int-Avg");
            t.separator();
            did_int = true;
        }
        std::vector<std::string> cells{wls[wi].name};
        for (double s : spd[wi])
            cells.push_back(fmtF(s, 3));
        t.row(cells);
    }
    avg(true, "FP-Avg");

    std::ostringstream os;
    os << "Figure 6: Speedups over the baseline model, with and without "
          "software support, 16/32-byte blocks\n\n";
    t.print(os);
    os << "\n";
    return os.str();
}

std::string
encodeResult(const TimingResult &r)
{
    ser::Writer w;
    encodeTimingResult(w, r);
    return w.data();
}

uint64_t
resultsDigest(const std::vector<TimingResult> &res)
{
    std::string all;
    for (const TimingResult &r : res)
        all += encodeResult(r);
    return digest(all);
}

class Fig6Phase final : public Phase
{
  public:
    explicit Fig6Phase(const Options &o)
        : opt_(o), reqs_(matrix(o, kScale, kMaxInsts))
    {
    }

    const char *name() const override { return "fig6"; }

    double
    setup() override
    {
        // Images: every program under both code-generation policies.
        Span span("setup.images");
        Clock::time_point t0 = Clock::now();
        std::vector<double> builds;
        for (const WorkloadInfo &w : allWorkloads()) {
            for (bool sw : {false, true}) {
                Span b("sim.machine_build");
                Clock::time_point b0 = Clock::now();
                Machine m(w, buildFor(opt_, sw, kScale));
                builds.push_back(since(b0));
            }
        }
        buildSeconds_ = median(builds);
        return since(t0);
    }

    double
    rep() override
    {
        Span span("fig6.sweep");
        std::vector<TimingResult> res;
        RunnerReport rr = sweep(reqs_, &res, span.id());
        walls_.push_back(rr.wallSeconds);
        rates_.push_back(static_cast<double>(rr.simInsts) / rr.wallSeconds /
                         1e6);
        double busy = 0.0;
        for (const JobStats &j : rr.perJob)
            busy += j.wallSeconds;
        busy_.push_back(busy / (rr.jobs * rr.wallSeconds));
        digests_.push_back(resultsDigest(res));
        if (tracer().enabled()) {
            traced_.jobs += res.size();
            for (const TimingResult &r : res) {
                traced_.insts += r.stats.insts;
                traced_.dcacheAccesses += r.stats.dcacheAccesses;
                traced_.facPredictions +=
                    r.stats.loadsSpeculated + r.stats.storesSpeculated;
            }
        }
        if (last_.empty())
            last_ = std::move(res);
        return rr.wallSeconds;
    }

    size_t reps() const override { return walls_.size(); }

    void
    clearSamples() override
    {
        walls_.clear();
        rates_.clear();
        busy_.clear();
        traced_ = DetailTotals{};
    }

    void
    finish(Report &r) override
    {
        r.metric("fig6_wall_s", median(walls_), "s");
        r.metric("detail_minsts_per_s", median(rates_), "Minst/s");
        r.metric("runner.busy_frac", median(busy_), "ratio");
        r.info("fig6", "{\"reps\":" + std::to_string(walls_.size()) +
                           ",\"jobs_per_sweep\":" +
                           std::to_string(reqs_.size()) +
                           ",\"scale\":" + std::to_string(kScale) +
                           ",\"max_insts\":" + std::to_string(kMaxInsts) +
                           ",\"walls_s\":" + jarr(walls_) +
                           ",\"model_digest\":" +
                           jstr(hex64(digests_.front())) + "}");

        for (size_t i = 1; i < digests_.size(); ++i) {
            r.check(digests_[i] == digests_[0],
                    "fig6: repetition " + std::to_string(i) +
                        " changed the simulated results");
        }
        crossPathCheck(r);
        if (isDefaultSeed(opt_)) {
            r.check(digests_[0] == kPinnedModelDigest,
                    "fig6: model counts digest " + hex64(digests_[0]) +
                        " differs from the pinned " +
                        hex64(kPinnedModelDigest));
            goldenCheck(r);
        }
    }

    DetailTotals
    tracedTotals() const
    {
        DetailTotals t = traced_;
        t.buildSeconds = buildSeconds_;
        return t;
    }

  private:
    /**
     * Run @p reqs on the pool as Runner::runTimings does — runTiming()
     * per index — with a span around each job and the self-test's
     * delay stretching it.
     */
    RunnerReport
    sweep(const std::vector<TimingRequest> &reqs,
          std::vector<TimingResult> *out, int64_t parent)
    {
        out->assign(reqs.size(), TimingResult{});
        Runner runner(opt_.threads);
        double inject = opt_.injectDelay;
        return runner.forEachIndex(reqs.size(), [&](size_t i) -> uint64_t {
            Span job("fig6.job", parent);
            Clock::time_point t0 = Clock::now();
            (*out)[i] = runTiming(reqs[i]);
            stretchSince(t0, inject);
            return (*out)[i].stats.insts;
        });
    }

    /**
     * The pool must not change a result: re-run a sample of jobs
     * serially and compare every encoded byte.
     */
    void
    crossPathCheck(Report &r)
    {
        Span span("fig6.check");
        for (size_t i : {size_t{3}, reqs_.size() / 2, reqs_.size() - 1}) {
            std::string a = encodeResult(runTiming(reqs_[i]));
            r.check(a == encodeResult(last_[i]),
                    "fig6: job " + std::to_string(i) + " (" +
                        reqs_[i].workload +
                        ") differs from runTiming()");
        }
    }

    /** The golden-budget sweep must print tests/golden/fig6_200k.txt. */
    void
    goldenCheck(Report &r)
    {
        Span span("fig6.golden");
        std::vector<TimingResult> res;
        sweep(matrix(opt_, 1, kGoldenInsts), &res, span.id());
        std::string table = fig6Table(res);
        std::ifstream in(opt_.goldenPath, std::ios::binary);
        if (in) {
            std::stringstream ss;
            ss << in.rdbuf();
            r.check(table == ss.str(),
                    "fig6: 200k-budget table differs from " +
                        opt_.goldenPath);
        } else {
            r.check(digest(table) == kPinnedGoldenDigest,
                    "fig6: 200k-budget table digest " +
                        hex64(digest(table)) + " differs from the pinned " +
                        hex64(kPinnedGoldenDigest));
        }
        r.info("fig6_golden_digest", jstr(hex64(digest(table))));
    }

    const Options &opt_;
    std::vector<TimingRequest> reqs_;
    std::vector<double> walls_, rates_, busy_;
    std::vector<uint64_t> digests_;
    std::vector<TimingResult> last_;
    DetailTotals traced_;
    /** Median Machine build of the sweep's images, seconds. */
    double buildSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Phase>
makeFig6Phase(const Options &o)
{
    return std::make_unique<Fig6Phase>(o);
}

DetailTotals
fig6TracedTotals(const Phase &fig6)
{
    return static_cast<const Fig6Phase &>(fig6).tracedTotals();
}

} // namespace facbench
