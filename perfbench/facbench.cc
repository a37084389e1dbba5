/**
 * @file
 * facbench: the end-to-end and per-layer benchmark binary.
 *
 *   facbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *            [--inject-delay=F] [--rev=STR]
 *   facbench daemon --socket=PATH --cache-file=PATH ...   (internal)
 *
 * Run from the repository root: scratch files go to .bench_build/work
 * and the Figure 6 golden is read from tests/golden/.
 *
 * A run sets up three times (median reported as setup_s), then spends
 * its --seconds on the three phases — the workload's own phase gets
 * half the budget, the other two a quarter each, their repetitions
 * interleaved — checks every output, and
 * prints one JSON record line prefixed "FACBENCH_RECORD ". perfbench/
 * run.py builds this binary, runs it and turns the record into the
 * benchmark's result line.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "cpu/emulator.hh"
#include "obs/prof.hh"
#include "phases.hh"
#include "util/parse.hh"

using namespace facbench;

namespace
{

const char *const kWorkloads[] = {"fig6-detail", "farm-modern",
                                  "serve-mixed"};
/**
 * The workload's own phase gets half the time; the other two a quarter
 * each, enough repetitions that their metrics stay inside their bounds
 * on this workload too.
 */
constexpr double kPrimaryShare = 0.5;
constexpr size_t kMinReps = 2;
constexpr int kSetupRounds = 3;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "facbench: %s\nusage: facbench --workload=fig6-detail|"
                 "farm-modern|serve-mixed --seed=N --seconds=S "
                 "--trace=0|1 [--inject-delay=F] [--rev=STR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    o.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        size_t eq = a.find('=');
        if (a.compare(0, 2, "--") != 0 || eq == std::string::npos)
            usage("bad argument '" + a + "'");
        std::string k = a.substr(0, eq), v = a.substr(eq + 1);
        using namespace facsim::parse;
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = u64Flag("--seed", v);
        else if (k == "--seconds")
            o.seconds = doubleFlag("--seconds", v);
        else if (k == "--trace")
            o.trace = u64Flag("--trace", v) != 0;
        else if (k == "--inject-delay")
            o.injectDelay = doubleFlag("--inject-delay", v);
        else if (k == "--rev")
            o.rev = v;
        else
            usage("unknown option '" + k + "'");
    }
    if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char *w) { return o.workload == w; }) ==
        std::end(kWorkloads))
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds <= 0.0 || o.injectDelay < 0.0)
        usage("--seconds must be > 0 and --inject-delay >= 0");
    o.tracePath = o.workDir + "/trace-" + o.workload + ".json";
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 10, "model name") == 0) {
            size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

std::string
identity(const Options &o)
{
    using facsim::Emulator;
    return "{\"nproc\":" +
        std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ",\"threads\":" + std::to_string(o.threads) +
        ",\"cpu_model\":" + jstr(cpuModel()) +
        ",\"rev\":" + jstr(o.rev) +
        ",\"compiler\":" + jstr(FACBENCH_COMPILER) +
        ",\"build_type\":" + jstr(FACBENCH_BUILD_TYPE) +
        ",\"facsim_prof\":" +
        (facsim::obs::profCompiledIn() ? "true" : "false") +
        ",\"facsim_tracing\":" + (FACBENCH_TRACING ? "true" : "false") +
        ",\"dispatch_engine\":" +
        jstr(facsim::emuEngineName(
            Emulator::threadedDispatchAvailable()
                ? Emulator::defaultEngine()
                : facsim::EmuEngine::Switch)) +
        "}";
}

/**
 * The per-layer table of a traced run: self time per span name, with
 * the Figure 6 jobs' self time (each one runTiming call) split by the
 * measured per-call costs into the Machine build, the emulator feed,
 * the data cache, the FAC circuit and the pipeline's own work.
 */
std::string
layerTable(const DetailTotals &det, const std::map<std::string, double> &cost)
{
    std::map<std::string, LayerTime> lt = tracer().layerTimes("replay");
    auto it = lt.find("fig6.job");
    if (it != lt.end()) {
        LayerTime job = it->second;
        lt.erase(it);
        auto part = [&](const char *name, uint64_t n, double per_call_s) {
            double s = std::min(job.selfS, n * per_call_s);
            job.selfS -= s;
            LayerTime &p = lt[name];
            p.calls += n;
            p.selfS += s;
            p.totalS += s;
        };
        part("sim.machine_build", det.jobs, det.buildSeconds);
        part("emulator.step", det.insts, cost.at("emulator.step_ns") * 1e-9);
        part("cache.read", det.dcacheAccesses,
             cost.at("cache.read_ns") * 1e-9);
        part("fac.predict", det.facPredictions,
             cost.at("fac.predict_ns") * 1e-9);
        job.totalS = job.selfS;
        lt["pipeline.self"] = job;
    }
    double total = 0.0;
    for (const auto &[n, t] : lt)
        total += t.selfS;
    std::vector<std::pair<std::string, LayerTime>> rows(lt.begin(), lt.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfS > b.second.selfS;
    });
    std::fprintf(stderr, "%-22s %10s %12s %12s %7s\n", "layer", "calls",
                 "total_s", "self_s", "share");
    std::string js = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &[n, t] = rows[i];
        double share = total > 0.0 ? t.selfS / total : 0.0;
        std::fprintf(stderr, "%-22s %10llu %12.4f %12.4f %6.1f%%\n",
                     n.c_str(), static_cast<unsigned long long>(t.calls),
                     t.totalS, t.selfS, 100.0 * share);
        js += std::string(i ? "," : "") + "{\"name\":" + jstr(n) +
            ",\"calls\":" + std::to_string(t.calls) +
            ",\"total_s\":" + jnum(t.totalS) +
            ",\"self_s\":" + jnum(t.selfS) + ",\"share\":" + jnum(share) +
            "}";
    }
    return js + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "daemon") == 0)
        return daemonMain(argc, argv);

    Options o = parseOptions(argc, argv);
    std::error_code ec;
    o.selfExe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        o.selfExe = argv[0];
    std::filesystem::create_directories(o.workDir, ec);
    if (ec)
        usage("cannot create work directory '" + o.workDir + "'");

    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(makeFig6Phase(o));
    phases.push_back(makeFarmPhase(o));
    phases.push_back(makeServePhase(o));
    size_t primary = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               o.workload) -
        std::begin(kWorkloads);

    tracer().setEnabled(o.trace);
    Clock::time_point start = Clock::now();
    std::vector<double> setups;
    for (int k = 0; k < kSetupRounds; ++k) {
        double s = 0.0;
        for (auto &ph : phases)
            s += ph->setup();
        setups.push_back(s);
    }

    // One discarded warm-up repetition per phase: the first ones pay
    // heap growth, page faults and lazy set-up that later ones do not.
    tracer().setEnabled(false);
    for (auto &ph : phases) {
        ph->rep();
        ph->clearSamples();
    }

    // Repetitions interleave across the phases, each time picking the
    // phase with the most of its budget share left, so a slow spell of
    // the host spreads over every metric instead of landing on one.
    // Traced runs alternate tracing on the primary phase's repetitions:
    // the traced-minus-untraced difference is the tracing overhead.
    std::vector<double> tracedWalls, plainWalls;
    std::vector<double> spent(phases.size(), 0.0);
    Clock::time_point m0 = Clock::now();
    for (;;) {
        // Past the budget only phases still short of kMinReps run.
        bool open = since(m0) < o.seconds;
        size_t pick = phases.size();
        double most = -1e300;
        for (size_t p = 0; p < phases.size(); ++p) {
            bool short_ = phases[p]->reps() < kMinReps;
            if (!open && !short_)
                continue;
            double share = p == primary ? kPrimaryShare
                                        : (1.0 - kPrimaryShare) /
                    (phases.size() - 1);
            double left = share * o.seconds - spent[p] + (short_ ? 1e9 : 0);
            if (left > most) {
                most = left;
                pick = p;
            }
        }
        if (pick == phases.size())
            break;
        Phase &ph = *phases[pick];
        bool traced = o.trace && (pick != primary || ph.reps() % 2 == 0);
        tracer().setEnabled(traced);
        Clock::time_point t0 = Clock::now();
        double w = ph.rep();
        spent[pick] += since(t0);
        if (pick == primary)
            (traced ? tracedWalls : plainWalls).push_back(w);
    }
    tracer().setEnabled(false);
    std::string phaseInfo = "{";
    for (size_t p = 0; p < phases.size(); ++p) {
        phaseInfo += std::string(p ? "," : "") + jstr(phases[p]->name()) +
            ":{\"seconds\":" + jnum(spent[p]) +
            ",\"reps\":" + std::to_string(phases[p]->reps()) + "}";
    }
    double elapsed = since(start);

    Report r;
    double rss = peakRssMb();
    for (auto &ph : phases)
        rss = std::max(rss, ph->childPeakRssMb());
    r.metric("setup_s", median(setups), "s");
    r.metric("peak_rss_mb", rss, "MB");
    for (auto &ph : phases)
        ph->finish(r);

    r.info("workload", jstr(o.workload));
    r.info("seed", std::to_string(o.seed));
    r.info("seconds", jnum(o.seconds));
    r.info("trace", o.trace ? "true" : "false");
    r.info("inject_delay", jnum(o.injectDelay));
    r.info("identity", identity(o));
    r.info("phases", phaseInfo + "}");
    r.info("setup_rounds_s", "[" + jnum(setups[0]) + "," + jnum(setups[1]) +
                                 "," + jnum(setups[2]) + "]");
    r.info("elapsed_s", jnum(elapsed));

    if (o.trace) {
        tracer().setEnabled(true);
        std::map<std::string, double> cost = runLayerReplay(
            o, farmLibraries(*phases[1]), serveExchanges(*phases[2]), r);
        tracer().setEnabled(false);
        r.info("layers", layerTable(fig6TracedTotals(*phases[0]), cost));
        double overhead = plainWalls.empty() || tracedWalls.empty()
            ? 0.0
            : median(tracedWalls) / median(plainWalls) - 1.0;
        r.info("tracing_overhead", jnum(overhead));
        r.info("trace_file", jstr(o.tracePath));
        r.check(tracer().writeChrome(o.tracePath),
                "cannot write trace '" + o.tracePath + "'");
        std::fprintf(stderr, "facbench: %zu spans -> %s (tracing overhead "
                     "%+.1f%%)\n", tracer().size(), o.tracePath.c_str(),
                     100.0 * overhead);
    }

    std::cout << "FACBENCH_RECORD " << r.json() << std::endl;
    return 0;
}
