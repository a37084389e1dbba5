/**
 * @file
 * facsim command-line driver: run assembly programs or built-in
 * workloads on the simulator without writing C++.
 *
 * Usage:
 *   facsim_cli run <file.s|@workload>         execute and print state
 *   facsim_cli time <file.s|@workload>        cycle-level simulation
 *   facsim_cli profile <file.s|@workload>     reference behaviour + FAC
 *   facsim_cli disasm <file.s>                assemble and disassemble
 *   facsim_cli dinero <file.s|@workload>      dinero-format address trace
 *   facsim_cli fuzz                           differential fuzzing
 *   facsim_cli mklib @workload --lib=FILE     write a live-point library
 *   facsim_cli farm <library>                 sweep a live-point library
 *   facsim_cli serve                          experiment-serving daemon
 *   facsim_cli loadgen                        drive a serve daemon
 *   facsim_cli top                            live stats from a daemon
 *   facsim_cli list                           list built-in workloads
 *
 * `facsim_cli <verb> --help` lists the flags a verb reads. Every flag
 * is declared once, in flagsFor(); a flag the verb does not read is a
 * usage error. docs/INTERNALS.md covers sampling, checkpoints,
 * live-point libraries, the daemon and its telemetry in depth.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <functional>

#include <unistd.h>

#include "asm/parser.hh"
#include "cpu/pipeline.hh"
#include "cpu/profiler.hh"
#include "isa/disasm.hh"
#include "link/linker.hh"
#include "obs/debug.hh"
#include "obs/sampler.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/lvpt.hh"
#include "sim/obs_views.hh"
#include "sim/runner.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/sealed.hh"
#include "verify/fuzz.hh"

using namespace facsim;

namespace
{

/** Every verb's options; each verb reads the subset flagsFor() lists. */
struct CliOptions
{
    bool support = false;
    bool agi = false;
    /** Predictor-zoo mode (kPredictorChoices); empty = baseline/--agi. */
    std::string predictor;
    bool compare = false;
    bool specRr = true;
    uint32_t block = 32;
    std::string hierarchy = "paper";
    /** Preset overrides; UINT32_MAX = keep the preset's value. */
    uint32_t dramLat = UINT32_MAX;
    uint32_t mshrs = UINT32_MAX;
    uint32_t tlbPenalty = UINT32_MAX;
    uint64_t maxInsts = 0;
    uint64_t scale = 1;
    uint64_t printInsts = 0;
    unsigned jobs = 1;
    /** Pipeline event trace (time); disabled unless --trace=FILE. */
    obs::TraceOptions trace;
    /** Stats-registry dump target; empty = no dump. */
    std::string statsOut;
    /** Crash-dump ring capacity (time); 0 = off. */
    uint64_t ring = 0;
    /** Systematic sampling (time); period 0 = full detail. */
    SamplingConfig sampling;
    /** Checkpoint paths; empty = no checkpointing. */
    std::string ckptSave;
    std::string ckptRestore;
    /** Live-point library output path (mklib). */
    std::string lib;
    /** Farm: restore only the first N entries (0 = all). */
    uint64_t maxEntries = 0;

    verify::FuzzOptions fuzz;
    /** serve/loadgen/top: the daemon's unix-domain socket. */
    std::string socket;
    serve::ServerOptions serve;
    serve::LoadgenOptions loadgen;
    /** loadgen --json[=FILE]: JSON report, to FILE when non-empty. */
    bool json = false;
    std::string jsonFile;
    /** top: poll period in seconds, single frame, raw Prometheus. */
    double interval = 2.0;
    bool once = false;
    bool prom = false;
};

/** One bit per verb; a flag row names the verbs that read it. */
enum Verb : unsigned
{
    Run = 1u << 0,
    Time = 1u << 1,
    Profile = 1u << 2,
    Disasm = 1u << 3,
    Dinero = 1u << 4,
    Mklib = 1u << 5,
    Farm = 1u << 6,
    Fuzz = 1u << 7,
    Serve = 1u << 8,
    Loadgen = 1u << 9,
    Top = 1u << 10,
    List = 1u << 11,
};

const char *const kHierarchyChoices[] = {"paper", "modern", nullptr};

/** The flag table: every CLI flag once, filtered to @p verb's rows. */
std::vector<flags::Flag>
flagsFor(unsigned verb, CliOptions &o)
{
    using namespace flags;
    // Verbs that link a program, build a workload, time a pipeline or
    // simulate with debug output.
    const unsigned link = Run | Time | Profile | Disasm | Dinero | Mklib;
    const unsigned build = link & ~Disasm;
    const unsigned pipe = Time | Mklib | Farm;
    const unsigned sim = build | Farm;
    const struct
    {
        unsigned verbs;
        Flag flag;
    } rows[] = {
        {link, boolean("--support", &o.support,
                       "enable the Section 4 software support")},
        {pipe, alias("--fac", "--predictor=fac", "same as --predictor=fac")},
        {pipe, boolean("--agi", &o.agi, "AGI pipeline organisation")},
        {pipe, oneOf("--predictor=M", &o.predictor, kPredictorChoices,
                     "load-predictor organisation (excludes --agi)")},
        {Fuzz, oneOf("--predictor=M", &o.fuzz.predictor, kPredictorChoices,
                     "config matrix under predictor M (default fac)")},
        {pipe, boolean("--no-rr", &o.specRr,
                       "disable register+register speculation", false)},
        {Time | Farm, boolean("--compare", &o.compare,
                              "also time the plain baseline on the same "
                              "memory system (farm: same live-points)")},
        {pipe | Profile, u32("--block=N", &o.block,
                             "D-cache block size in bytes (default 32)",
                             Positive)},
        {pipe, oneOf("--hierarchy=H", &o.hierarchy, kHierarchyChoices,
                     "flat 6-cycle memory (default) or L2+MSHRs+DRAM")},
        {pipe, u32("--dram-lat=N", &o.dramLat,
                   "override the preset's DRAM latency", Positive)},
        {pipe, u32("--mshrs=N", &o.mshrs,
                   "override the preset's L1 MSHR count", Positive)},
        {pipe, u32("--tlb-penalty=N", &o.tlbPenalty,
                   "64-entry D-TLB; a miss adds N cycles", Positive)},
        {build, u64("--max-insts=N", &o.maxInsts,
                    "stop after N instructions in all, fast-forwarded "
                    "ones included (0 = run to completion)")},
        {Loadgen, u64("--max-insts=N", &o.loadgen.maxInsts,
                      "bound per request (default 20000)", Positive)},
        {build | Loadgen, u64("--scale=N", &o.scale,
                              "workload scale (default 1)", Positive)},
        {Run, u64("--print-insts=N", &o.printInsts,
                  "print the first N executed instructions")},
        {Time | Farm | Fuzz | Serve, u32("--jobs=N", &o.jobs,
                                         "worker threads (0 = all; "
                                         "default 1)")},
        {Run | Time | Profile | Mklib | Farm | Serve,
         text("--stats-out=FILE", &o.statsOut,
              "dump the stats registry (JSON if FILE ends in .json)")},
        {Time, text("--trace=FILE", &o.trace.path,
                    "per-instruction pipeline trace of the measured run")},
        {Time, custom("--trace-format=F", &o.trace.format,
                      [&o](const std::string &v) {
                          if (!obs::parseTraceFormat(v, o.trace.format))
                              fatal("usage: --trace-format expects konata "
                                    "or chrome, got '%s'", v.c_str());
                      },
                      "konata (default) or chrome")},
        {Time, u64("--trace-start=N", &o.trace.start,
                   "first dynamic instruction to trace")},
        {Time, u64("--trace-count=N", &o.trace.count,
                   "trace at most N instructions", Positive)},
        {Time, u64("--ring=N", &o.ring,
                   "keep the last N issued instructions for panic() dumps",
                   Positive)},
        {sim, custom("--debug-flags=A,B", nullptr,
                     [](const std::string &v) {
                         std::string bad, names;
                         if (obs::setDebugFlags(v, &bad))
                             return;
                         for (const obs::DebugFlag *f : obs::allDebugFlags())
                             names += std::string(" ") + f->name();
                         fatal("usage: unknown debug flag '%s' (valid "
                               "flags:%s)", bad.c_str(), names.c_str());
                     },
                     "enable FACSIM_DPRINTF output for these flags")},
        {Time | Mklib, u64("--sample-period=U", &o.sampling.period,
                           "sample one detailed window per U instructions "
                           "(default: full detail)", Positive)},
        {Time | Mklib, u64("--sample-detail=N", &o.sampling.detail,
                           "measured insts per window (default 1000)",
                           Positive)},
        {Time | Mklib, u64("--sample-warmup=N", &o.sampling.warmup,
                           "warmup insts per window (default 2000)",
                           Positive)},
        {Run | Time, text("--ckpt-save=FILE", &o.ckptSave,
                          "save a checkpoint after the run (@workload)")},
        {Run | Time, text("--ckpt-restore=FILE", &o.ckptRestore,
                          "resume from a checkpoint (@workload)")},
        {Mklib, text("--lib=FILE", &o.lib, "library path to write")},
        {Farm, u64("--max-entries=N", &o.maxEntries,
                   "measure only the first N live-points (0 = all)")},
        {Fuzz, u64("--seed=N", &o.fuzz.seed,
                   "batch seed (default 2026); same cases at any --jobs")},
        {Fuzz, u64("--count=M", &o.fuzz.count, "cases (default 100)",
                   Positive)},
        {Fuzz, boolean("--shrink", &o.fuzz.shrink,
                       "minimize diverging cases with ddmin")},
        {Fuzz, u32("--min-items=N", &o.fuzz.minItems,
                   "fewest descriptors per case (default 40)")},
        {Fuzz, u32("--max-items=N", &o.fuzz.maxItems,
                   "most descriptors per case (default 160)", Positive)},
        {Serve | Loadgen | Top, text("--socket=PATH", &o.socket,
                                     "the daemon's unix-domain socket "
                                     "(serve listens on it)")},
        {Serve, boolean("--stdio", &o.serve.stdio,
                        "serve one connection on stdin/stdout instead")},
        {Serve, u64("--cache-bytes=N", &o.serve.cacheBytes,
                    "result-cache budget (default 256 MiB)", Positive)},
        {Serve, text("--cache-file=FILE", &o.serve.cacheFile,
                     "persist the result cache across restarts")},
        {Serve, u32("--stats-interval=S", &o.serve.statsInterval,
                    "flush --stats-out every S seconds", Positive)},
        {Serve, text("--trace=FILE", &o.serve.tracePath,
                     "per-request span trace (Chrome JSON)")},
        {Loadgen, u64("--requests=N", &o.loadgen.requests,
                      "total requests (default 100)", Positive)},
        {Loadgen, u32("--concurrency=N", &o.loadgen.concurrency,
                      "client threads (default 1)", Positive)},
        {Loadgen, u32("--repeat-pct=N", &o.loadgen.repeatPct,
                      "% of requests repeating an earlier one "
                      "(default 50)")},
        {Loadgen, u32("--timing-pct=N", &o.loadgen.timingPct,
                      "% of unique requests that are timing, the rest "
                      "profile (default 50)")},
        {Loadgen, u64("--seed=N", &o.loadgen.seed,
                      "schedule seed (default 1); same seed, same "
                      "requests, same response digest")},
        {Loadgen, u32("--workloads=N", &o.loadgen.workloadPool,
                      "distinct workloads (default 4)", Positive)},
        {Loadgen, custom("--json[=FILE]", &o.json,
                         [&o](const std::string &v) {
                             o.json = true;
                             o.jsonFile = v;
                         },
                         "JSON report to stdout (or FILE)")},
        {Top, real("--interval=S", &o.interval,
                   "seconds between polls (default 2)", Positive)},
        {Top, boolean("--once", &o.once,
                      "print one frame and exit (one poll with --prom)")},
        {Top, boolean("--prom", &o.prom, "raw Prometheus exposition")},
    };
    std::vector<Flag> out;
    for (const auto &r : rows) {
        if (r.verbs & verb)
            out.push_back(r.flag);
    }
    return out;
}

bool
isWorkload(const std::string &target)
{
    return !target.empty() && target[0] == '@';
}

BuildOptions
buildOf(const CliOptions &o)
{
    BuildOptions b;
    b.policy = o.support ? CodeGenPolicy::withSupport()
                         : CodeGenPolicy::baseline();
    b.scale = o.scale;
    return b;
}

HierarchyConfig
hierarchyOf(const CliOptions &o)
{
    HierarchyConfig h = hierarchyPreset(o.hierarchy);
    if (o.dramLat != UINT32_MAX)
        h.dram.latency = o.dramLat;
    if (o.mshrs != UINT32_MAX)
        h.l1Mshr.entries = o.mshrs;
    if (o.tlbPenalty != UINT32_MAX) {
        h.tlbEnabled = true;
        h.tlbMissPenalty = o.tlbPenalty;
    }
    return h;
}

/**
 * The pipeline the flags select or, with @p baseline, the plain machine
 * --compare measures against: it shares the memory system, so the
 * speedup isolates the pipeline change.
 */
PipelineConfig
pipeOf(const CliOptions &o, bool baseline = false)
{
    PipelineConfig c;
    if (!baseline && !o.predictor.empty())
        c = predictorPipelineConfig(o.predictor, o.block, o.specRr);
    else if (!baseline && o.agi)
        c = agiConfig(o.block);
    else
        c = baselineConfig(o.block);
    c.hierarchy = hierarchyOf(o);
    return c;
}

/** The L1 `profile` measures FAC against: 16 KB, direct-mapped. */
CacheConfig
profileCacheOf(const CliOptions &o)
{
    return CacheConfig{16 * 1024, o.block, 1, 6};
}

/**
 * Cross-flag rules, each firing only for verbs reading both flags, then
 * the machine @p verb would build from them.
 */
void
checkOptions(const CliOptions &o, const std::string &target, Verb verb)
{
    if (!o.predictor.empty() && o.agi)
        fatal("usage: --predictor/--fac are mutually exclusive with --agi "
              "(each selects the whole organisation)");
    if (!o.ckptSave.empty() && !o.ckptRestore.empty())
        fatal("usage: --ckpt-save and --ckpt-restore are mutually "
              "exclusive");
    const bool ckpt = !o.ckptSave.empty() || !o.ckptRestore.empty();
    if (ckpt && (o.sampling.enabled() || o.compare))
        fatal("usage: checkpointing (--ckpt-save/--ckpt-restore) cannot "
              "be combined with --sample-period or --compare");
    if (ckpt && !isWorkload(target))
        fatal("usage: checkpoints require a built-in @workload target");
    if (std::string bad = o.sampling.check(); !bad.empty())
        fatal("usage: %s", bad.c_str());
    if (o.fuzz.minItems > o.fuzz.maxItems)
        fatal("usage: --min-items (%u) exceeds --max-items (%u)",
              o.fuzz.minItems, o.fuzz.maxItems);
    // The machine the flags describe must be buildable: a geometry no
    // component can model is a usage error, never a panic mid-run.
    std::string bad;
    if (verb & (Time | Mklib | Farm)) {
        bad = pipeOf(o).check();
        if (bad.empty() && o.compare)
            bad = pipeOf(o, true).check();
    } else if (verb == Profile) {
        bad = profileCacheOf(o).check("data cache");
        if (bad.empty())
            bad = facConfigFor(profileCacheOf(o)).check();
    }
    if (!bad.empty())
        fatal("usage: %s", bad.c_str());
}

/**
 * Build a one-shot registry with @p reg and dump it to --stats-out
 * (JSON when the path ends in .json, text otherwise). The registry only
 * lives for the dump, so views over stack-local result structs are safe.
 */
void
writeStatsFile(const std::string &path,
               const std::function<void(obs::Group &)> &reg)
{
    if (path.empty())
        return;
    obs::Registry registry;
    reg(registry.root());
    registry.writeFile(path);
    std::printf("stats written to '%s'\n", path.c_str());
}

/** A program ready to execute: an assembled .s file or a workload. */
struct Loaded
{
    Program prog;
    Memory mem;
    LinkedImage img;
    std::unique_ptr<Emulator> emu;
    /** Set instead of the members above for a built-in @workload. */
    std::unique_ptr<Machine> machine;

    Emulator &emulator() { return machine ? machine->emulator() : *emu; }
};

std::unique_ptr<Loaded>
loadAsm(const std::string &path, const CliOptions &o)
{
    auto l = std::make_unique<Loaded>();
    std::string text;
    if (!ser::readFile(path, &text))
        fatal("cannot open '%s'", path.c_str());
    parseAsm(text, l->prog);
    CodeGenPolicy pol = buildOf(o).policy;
    l->img = Linker(pol.link).link(l->prog, l->mem);
    l->emu = std::make_unique<Emulator>(l->prog, l->mem, l->img,
                                        pol.stack.initialSp());
    return l;
}

std::unique_ptr<Loaded>
load(const std::string &target, const CliOptions &o)
{
    if (!isWorkload(target))
        return loadAsm(target, o);
    auto l = std::make_unique<Loaded>();
    l->machine =
        std::make_unique<Machine>(workload(target.substr(1)), buildOf(o));
    return l;
}

void
printPipeStats(const PipeStats &st)
{
    std::printf("cycles:            %llu\n",
                static_cast<unsigned long long>(st.cycles));
    std::printf("instructions:      %llu  (IPC %.3f)\n",
                static_cast<unsigned long long>(st.insts), st.ipc());
    std::printf("loads / stores:    %llu / %llu\n",
                static_cast<unsigned long long>(st.loads),
                static_cast<unsigned long long>(st.stores));
    std::printf("I$ miss ratio:     %.2f%%\n",
                100.0 * st.icacheMissRatio());
    std::printf("D$ miss ratio:     %.2f%%\n",
                100.0 * st.dcacheMissRatio());
    std::printf("BTB mispredicts:   %llu\n",
                static_cast<unsigned long long>(st.btbMispredicts));
    uint64_t stalls = st.stallFetch + st.stallData + st.stallStructural +
        st.stallStoreBuffer;
    if (stalls && st.cycles) {
        std::printf("zero-issue cycles: %.1f%% (fetch %.1f%%, data "
                    "%.1f%%, structural %.1f%%, store buffer %.1f%%)\n",
                    100.0 * stalls / st.cycles,
                    100.0 * st.stallFetch / st.cycles,
                    100.0 * st.stallData / st.cycles,
                    100.0 * st.stallStructural / st.cycles,
                    100.0 * st.stallStoreBuffer / st.cycles);
    }
    if (st.loadsSpeculated + st.storesSpeculated) {
        std::printf("FAC speculated:    %llu loads, %llu stores\n",
                    static_cast<unsigned long long>(st.loadsSpeculated),
                    static_cast<unsigned long long>(st.storesSpeculated));
        std::printf("FAC mispredicted:  %llu loads, %llu stores "
                    "(bandwidth overhead %.2f%%)\n",
                    static_cast<unsigned long long>(st.loadSpecFailures),
                    static_cast<unsigned long long>(st.storeSpecFailures),
                    100.0 * st.bandwidthOverhead());
    }
    // Predictor-zoo lines, gated on their own counters so legacy FAC
    // output stays byte-identical.
    if (st.strideSpeculated)
        std::printf("stride sourced:    %llu of those (%llu mispredicted, "
                    "fail rate %.2f%%)\n",
                    static_cast<unsigned long long>(st.strideSpeculated),
                    static_cast<unsigned long long>(st.strideSpecFailures),
                    100.0 * st.strideFailRate());
    if (st.wayMemoTagReadsSaved || st.wayMemoStale)
        std::printf("way memo:          %llu tag reads skipped, %llu "
                    "stale (late-verify replays)\n",
                    static_cast<unsigned long long>(
                        st.wayMemoTagReadsSaved),
                    static_cast<unsigned long long>(st.wayMemoStale));
    if (st.strideSpeculated || st.wayMemoTagReadsSaved || st.wayMemoStale)
        std::printf("pred recovery:     %llu cycles\n",
                    static_cast<unsigned long long>(
                        st.predRecoveryCycles));
}

/**
 * Per-level hierarchy detail, printed only when the memory system has
 * something the flat paper machine doesn't (an L2, MSHRs, or a TLB).
 */
void
printHierarchyStats(const HierarchyStats &s)
{
    bool interesting = s.levels.size() > 1 || s.tlbAccesses ||
        (!s.levels.empty() && s.levels[0].mshr.allocations);
    if (!interesting)
        return;
    for (const LevelStats &l : s.levels) {
        std::printf("%-4s accesses:     %llu (miss ratio %.2f%%, "
                    "%llu writebacks)\n",
                    l.name.c_str(),
                    static_cast<unsigned long long>(l.accesses),
                    100.0 * l.missRatio,
                    static_cast<unsigned long long>(l.writebacks));
        if (l.mshr.allocations) {
            std::printf("%-4s MSHRs:        %llu fills, %llu merges, "
                        "peak %u in flight, %llu full-stall cycles\n",
                        l.name.c_str(),
                        static_cast<unsigned long long>(
                            l.mshr.allocations),
                        static_cast<unsigned long long>(l.mshr.merges),
                        l.mshr.maxOccupancy,
                        static_cast<unsigned long long>(
                            l.mshr.fullStallCycles));
        }
        if (l.wbFullStallCycles) {
            std::printf("%-4s WB stalls:    %llu cycles\n",
                        l.name.c_str(),
                        static_cast<unsigned long long>(
                            l.wbFullStallCycles));
        }
    }
    if (s.hasDram) {
        std::printf("DRAM traffic:      %llu reads, %llu writes, "
                    "%llu queued cycles\n",
                    static_cast<unsigned long long>(s.dram.reads),
                    static_cast<unsigned long long>(s.dram.writes),
                    static_cast<unsigned long long>(s.dram.queuedCycles));
    }
    if (s.tlbAccesses) {
        std::printf("D-TLB:             %llu accesses, %llu misses "
                    "(%.3f%%)\n",
                    static_cast<unsigned long long>(s.tlbAccesses),
                    static_cast<unsigned long long>(s.tlbMisses),
                    100.0 * s.tlbMissRatio());
    }
}

int
cmdRun(const std::string &target, const CliOptions &o)
{
    std::unique_ptr<Loaded> l = load(target, o);
    Emulator *emu = &l->emulator();
    const Program *prog = l->machine ? &l->machine->program() : &l->prog;
    Memory *mem = l->machine ? &l->machine->memory() : &l->mem;

    if (!o.ckptRestore.empty()) {
        restoreFunctionalCheckpoint(o.ckptRestore, *l->machine);
        std::printf("restored '%s' at %llu instructions\n",
                    o.ckptRestore.c_str(),
                    static_cast<unsigned long long>(emu->instCount()));
    }

    // --max-insts bounds *total* executed instructions so a save/restore
    // pair covers exactly the same stream as an uninterrupted run. The
    // first --print-insts instructions go one at a time through step()
    // (they need per-instruction records to disassemble); the rest run
    // as chained blocks.
    uint64_t n = 0;
    ExecRecord rec;
    while (n < o.printInsts &&
           (!o.maxInsts || emu->instCount() < o.maxInsts) &&
           emu->step(&rec)) {
        std::printf("%08x  %s\n", rec.pc,
                    disasm(rec.inst, rec.pc).c_str());
        ++n;
    }
    if (!o.maxInsts)
        n += emu->run();
    else if (emu->instCount() < o.maxInsts)
        n += emu->run(o.maxInsts - emu->instCount());
    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        obs::Group &sg = root.group("sim");
        uint64_t insts = emu->instCount();
        uint64_t bytes = mem->memUsageBytes();
        sg.formula("insts", "instructions executed",
                   [insts] { return static_cast<double>(insts); });
        sg.formula("mem_usage_bytes", "simulated-memory footprint",
                   [bytes] { return static_cast<double>(bytes); });
        registerEmulatorStats(root.group("emu"), emu->translationStats(),
                              Emulator::defaultEngine());
    });
    if (!o.ckptSave.empty()) {
        saveFunctionalCheckpoint(o.ckptSave, *l->machine);
        std::printf("checkpoint saved to '%s' at %llu instructions\n",
                    o.ckptSave.c_str(),
                    static_cast<unsigned long long>(emu->instCount()));
    }
    std::printf("executed %llu instructions; %s\n",
                static_cast<unsigned long long>(n),
                emu->halted() ? "halted" : "instruction limit");
    for (unsigned r = 0; r < numIntRegs; ++r) {
        if (emu->intReg(r))
            std::printf("  $%-4s = 0x%08x (%d)\n", regName(r),
                        emu->intReg(r),
                        static_cast<int32_t>(emu->intReg(r)));
    }
    // Workload convention: a "result" checksum global.
    for (const DataSym &s : prog->syms()) {
        if (s.name == "result")
            std::printf("  result = %u\n", mem->read32(s.addr));
    }
    return 0;
}

void
printSampleEstimate(const SampleEstimate &s)
{
    std::printf("sampling:          %llu window(s); %.2f%% of %llu "
                "insts in detail\n",
                static_cast<unsigned long long>(s.windows),
                100.0 * s.detailFraction(),
                static_cast<unsigned long long>(s.totalInsts));
    std::printf("  measured:        %llu insts / %llu cycles "
                "(+%llu warmup, +%llu drain, %llu fast-forwarded)\n",
                static_cast<unsigned long long>(s.measuredInsts),
                static_cast<unsigned long long>(s.measuredCycles),
                static_cast<unsigned long long>(s.warmupInsts),
                static_cast<unsigned long long>(s.drainInsts),
                static_cast<unsigned long long>(s.fastForwardInsts));
    if (s.cpi.insufficient) {
        // < 2 windows: the ratio-estimator variance has 0 degrees of
        // freedom, so no confidence interval exists.
        std::printf("  CPI estimate:    %.4f (insufficient windows for "
                    "a CI; need >= 2, got %llu)\n",
                    s.cpi.mean,
                    static_cast<unsigned long long>(s.cpi.n));
        std::printf("  IPC estimate:    %.4f (insufficient windows for "
                    "a CI)\n", s.ipc.mean);
    } else {
        std::printf("  CPI estimate:    %.4f +- %.4f (95%% CI)\n",
                    s.cpi.mean, s.cpi.halfWidth);
        std::printf("  IPC estimate:    %.4f +- %.4f (95%% CI)\n",
                    s.ipc.mean, s.ipc.halfWidth);
    }
    std::printf("  est. cycles:     %.0f\n", s.estCycles());
}

/**
 * Time @p target under @p cfg on this thread: the path for .s files
 * and for checkpointed workloads, which the experiment runner cannot
 * take. Observability attaches only to the @p primary run.
 */
TimingResult
timeHere(const std::string &target, const CliOptions &o,
         const PipelineConfig &cfg, bool primary)
{
    std::unique_ptr<Loaded> l = load(target, o);
    Pipeline pipe(cfg, l->emulator());
    // Trace/ring progress is not part of a checkpoint: a trace started
    // here covers only this run's portion of the program.
    std::unique_ptr<obs::OpenTrace> trace =
        primary ? obs::openTrace(o.trace) : nullptr;
    if (trace)
        pipe.setTrace(trace->sink.get(), o.trace.start, o.trace.count);
    if (primary && o.ring)
        pipe.enableHistoryRing(o.ring);
    if (!o.ckptRestore.empty()) {
        restoreTimingCheckpoint(o.ckptRestore, *l->machine, pipe);
        std::printf("restored '%s' at cycle %llu (%llu insts)\n",
                    o.ckptRestore.c_str(),
                    static_cast<unsigned long long>(pipe.currentCycle()),
                    static_cast<unsigned long long>(pipe.stats().insts));
    }
    // run() bounds *total* issued instructions, so a save/restore pair
    // replays exactly the cycles an uninterrupted run would.
    TimingResult r;
    if (o.sampling.enabled())
        r.sample = runSampled(pipe, o.sampling, o.maxInsts);
    r.stats = o.sampling.enabled() ? pipe.stats() : pipe.run(o.maxInsts);
    if (!o.ckptSave.empty()) {
        saveTimingCheckpoint(o.ckptSave, *l->machine, pipe);
        std::printf("checkpoint saved to '%s' at cycle %llu (%llu insts)\n",
                    o.ckptSave.c_str(),
                    static_cast<unsigned long long>(pipe.currentCycle()),
                    static_cast<unsigned long long>(r.stats.insts));
    }
    r.hier = pipe.hierarchyStats();
    r.emu = l->emulator().translationStats();
    r.emuEngine = Emulator::defaultEngine();
    r.memUsageBytes = l->machine ? l->machine->memUsageBytes()
                                 : l->mem.memUsageBytes();
    return r;
}

int
cmdTime(const std::string &target, const CliOptions &o)
{
    const bool viaRunner =
        isWorkload(target) && o.ckptSave.empty() && o.ckptRestore.empty();
    std::vector<TimingResult> res;
    RunnerReport report;
    if (viaRunner) {
        // Workload targets go through the experiment runner so a
        // --compare pair runs on two threads when --jobs allows it.
        auto requestWith = [&](const PipelineConfig &cfg) {
            TimingRequest req;
            req.workload = target.substr(1);
            req.build = buildOf(o);
            req.pipe = cfg;
            req.maxInsts = o.maxInsts;
            req.sampling = o.sampling;
            return req;
        };
        std::vector<TimingRequest> reqs{requestWith(pipeOf(o))};
        // Observability attaches only to the measured configuration;
        // the --compare baseline runs dark.
        reqs[0].trace = o.trace;
        reqs[0].historyRing = o.ring;
        if (o.compare)
            reqs.push_back(requestWith(pipeOf(o, true)));
        res = Runner(o.jobs).runTimings(reqs, &report);
    } else {
        res.push_back(timeHere(target, o, pipeOf(o), true));
        if (o.compare)
            res.push_back(timeHere(target, o, pipeOf(o, true), false));
    }

    printPipeStats(res[0].stats);
    printHierarchyStats(res[0].hier);
    if (res[0].sample.enabled)
        printSampleEstimate(res[0].sample);
    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        registerTimingStats(root, res[0]);
    });
    if (o.compare) {
        double base = res[1].estimatedCycles();
        double mine = res[0].estimatedCycles();
        std::printf("baseline cycles:   %.0f\n", base);
        std::printf("speedup:           %.3f%s\n",
                    base > 0.0 && mine > 0.0 ? base / mine : 0.0,
                    res[0].sample.enabled ? " (sampled estimate)" : "");
        if (viaRunner)
            std::printf("host time:         %.2fs on %u threads "
                        "(%.2fM sim-insts/s)\n",
                        report.wallSeconds, report.jobs,
                        report.simInstsPerHostSecond() / 1e6);
    }
    return 0;
}

/** One estimate line; "insufficient" when the CI needs more windows. */
void
printEstimateLine(const char *label, const MetricEstimate &e)
{
    if (e.insufficient)
        std::printf("%s%.4f (insufficient windows for a CI; need >= 2, "
                    "got %llu)\n", label, e.mean,
                    static_cast<unsigned long long>(e.n));
    else
        std::printf("%s%.4f +- %.4f (95%% CI)\n", label, e.mean,
                    e.halfWidth);
}

int
cmdMklib(const std::string &target, const CliOptions &o)
{
    if (!isWorkload(target))
        fatal("mklib requires a built-in @workload target");
    if (!o.sampling.enabled())
        fatal("mklib requires --sample-period (one live-point per "
              "period)");
    if (o.lib.empty())
        fatal("mklib requires --lib=FILE");

    LvptBuildRequest req;
    req.workload = target.substr(1);
    req.build = buildOf(o);
    req.pipe = pipeOf(o);
    req.sampling = o.sampling;
    req.maxInsts = o.maxInsts;

    auto t0 = std::chrono::steady_clock::now();
    LvptBuildResult r = buildLvptLibrary(o.lib, req);
    double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();

    std::printf("library:           '%s'\n", o.lib.c_str());
    std::printf("live-points:       %llu (one per %llu insts)\n",
                static_cast<unsigned long long>(r.entries),
                static_cast<unsigned long long>(o.sampling.period));
    std::printf("covered insts:     %llu\n",
                static_cast<unsigned long long>(r.totalInsts));
    std::printf("library bytes:     %llu\n",
                static_cast<unsigned long long>(r.libraryBytes));
    // Host accounting goes to stderr so stdout stays deterministic.
    std::fprintf(stderr, "mklib: %.2fs host time\n", secs);

    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        LvptLibrary lib(o.lib);
        registerLvptStats(root.group("lvpt"), lib);
    });
    return 0;
}

int
cmdFarm(const std::string &target, const CliOptions &o)
{
    LvptLibrary lib(target);

    FarmRequest req;
    req.pipe = pipeOf(o);
    req.matchedPair = o.compare;
    // The matched-pair partner is measured from the *same* live-points.
    if (o.compare)
        req.partner = pipeOf(o, true);
    req.jobs = o.jobs;
    req.maxEntries = o.maxEntries;

    FarmResult fr = runFarm(lib, req);

    std::printf("library:           '%s' (%zu live-points, %llu insts)\n",
                lib.path().c_str(), lib.numEntries(),
                static_cast<unsigned long long>(lib.totalInsts()));
    std::printf("farm windows:      %llu measured; %llu insts / %llu "
                "cycles (+%llu warmup)\n",
                static_cast<unsigned long long>(fr.windows),
                static_cast<unsigned long long>(fr.measuredInsts),
                static_cast<unsigned long long>(fr.measuredCycles),
                static_cast<unsigned long long>(fr.warmupInsts));
    printEstimateLine("  CPI estimate:    ", fr.cpi);
    printEstimateLine("  IPC estimate:    ", fr.ipc);
    std::printf("  est. cycles:     %.0f\n", fr.estCycles());
    if (o.compare) {
        printEstimateLine("baseline CPI:      ", fr.partnerCpi);
        printEstimateLine("paired speedup:    ", fr.pairedSpeedup);
        printEstimateLine("  vs independent:  ", fr.independentSpeedup);
    }
    // Host accounting goes to stderr so stdout is byte-identical for
    // any --jobs (the CI smoke job diffs jobs=1 against jobs=2).
    std::fprintf(stderr, "farm: %u thread(s), %.2fs host time "
                 "(%.1f live-points/s)\n",
                 fr.report.jobs, fr.report.wallSeconds,
                 fr.jobsPerSecond());

    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        registerLvptStats(root.group("lvpt"), lib);
        registerFarmStats(root.group("farm"), fr);
    });
    return 0;
}

void
printProfile(Profiler &prof)
{
    std::printf("instructions:      %llu\n",
                static_cast<unsigned long long>(prof.insts()));
    std::printf("loads / stores:    %llu / %llu\n",
                static_cast<unsigned long long>(prof.loads()),
                static_cast<unsigned long long>(prof.stores()));
    std::printf("load classes:      %.1f%% global / %.1f%% stack / "
                "%.1f%% general\n",
                100.0 * prof.loadFrac(RefClass::Global),
                100.0 * prof.loadFrac(RefClass::Stack),
                100.0 * prof.loadFrac(RefClass::General));
    const FacProfile &f = prof.fac(0);
    std::printf("FAC failure rate:  %.1f%% loads, %.1f%% stores "
                "(no-R+R: %.1f%% / %.1f%%)\n",
                100.0 * f.loadFailRate(), 100.0 * f.storeFailRate(),
                100.0 * f.loadFailRateNoRR(),
                100.0 * f.storeFailRateNoRR());
    static const char *cause_names[5] = {
        "Overflow", "GenCarry", "LargeNegConst", "NegIndexReg",
        "GenCarryTag",
    };
    uint64_t refs = f.loadAttempts + f.storeAttempts;
    for (unsigned c = 0; c < 5; ++c) {
        if (f.causeCounts[c]) {
            std::printf("  cause %-14s %llu (%.1f%% of refs)\n",
                        cause_names[c],
                        static_cast<unsigned long long>(
                            f.causeCounts[c]),
                        refs ? 100.0 * f.causeCounts[c] / refs : 0.0);
        }
    }
}

int
cmdProfile(const std::string &target, const CliOptions &o)
{
    FacConfig fc = facConfigFor(profileCacheOf(o));
    Profiler prof;
    prof.addFacConfig(fc);

    std::unique_ptr<Loaded> l = load(target, o);
    ExecRecord rec;
    while (l->emulator().step(&rec)) {
        prof.observe(rec);
        if (o.maxInsts && prof.insts() >= o.maxInsts)
            break;
    }
    printProfile(prof);
    const ProfileResult pr = profileResult(prof);
    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        registerProfileStats(root.group("profile"), pr);
    });
    return 0;
}

/**
 * Emit a classic dinero III "label address" trace (0 = data read,
 * 1 = data write, 2 = instruction fetch) so the reference streams can
 * be replayed through external cache simulators.
 */
int
cmdDinero(const std::string &target, const CliOptions &o)
{
    std::unique_ptr<Loaded> l = load(target, o);
    ExecRecord rec;
    uint64_t n = 0;
    while (l->emulator().step(&rec)) {
        std::printf("2 %x\n", rec.pc);
        if (isMem(rec.inst.op))
            std::printf("%d %x\n", isStore(rec.inst.op) ? 1 : 0,
                        rec.effAddr);
        if (o.maxInsts && ++n >= o.maxInsts)
            break;
    }
    return 0;
}

/**
 * Run the differential fuzzer: each case is one random program run
 * through the co-simulation under every configuration of the FAC matrix
 * (off / hw / hw+sw / r+r / hw+disamb). Exits non-zero if any case
 * diverges.
 */
int
cmdFuzz(const std::string &, const CliOptions &o)
{
    verify::FuzzOptions fo = o.fuzz;
    fo.jobs = o.jobs;

    verify::FuzzBatchResult res = verify::runFuzzBatch(fo);
    std::printf("fuzz: %llu case(s), seed %llu, batch digest %016llx\n",
                static_cast<unsigned long long>(res.casesRun),
                static_cast<unsigned long long>(fo.seed),
                static_cast<unsigned long long>(res.digest));
    if (fo.predictor != "fac")
        std::printf("      predictor matrix: %s\n", fo.predictor.c_str());
    std::printf("      %.2fs host time, %.2fM sim-insts\n",
                res.wallSeconds, res.simInsts / 1e6);
    if (!res.divergingCases) {
        std::printf("      no divergences\n");
        return 0;
    }
    std::printf("      %llu DIVERGING case(s)\n",
                static_cast<unsigned long long>(res.divergingCases));
    for (const verify::FuzzCaseOutcome &f : res.failures) {
        std::printf("\n--- case %llu (seed %llu, config %s) ---\n",
                    static_cast<unsigned long long>(f.index),
                    static_cast<unsigned long long>(f.caseSeed),
                    f.configName.c_str());
        if (!f.shrunkItems.empty()) {
            std::printf("shrunk %zu -> %zu descriptor(s); minimal "
                        "program:\n%s\n",
                        f.items.size(), f.shrunkItems.size(),
                        f.shrunkListing.c_str());
        }
        std::printf("%s", f.report.c_str());
    }
    return 1;
}

int
cmdDisasm(const std::string &target, const CliOptions &o)
{
    auto l = loadAsm(target, o);
    for (uint32_t i = 0; i < l->prog.numInsts(); ++i) {
        uint32_t pc = l->prog.instAddr(i);
        std::printf("%08x:  %08x  %s\n", pc, l->prog.words()[i],
                    disasm(l->prog.inst(i), pc).c_str());
    }
    return 0;
}

int
cmdServe(const std::string &, const CliOptions &o)
{
    serve::ServerOptions so = o.serve;
    so.socketPath = o.socket;
    so.jobs = o.jobs;
    so.statsOut = o.statsOut;
    if (so.socketPath.empty() && !so.stdio)
        fatal("usage: serve needs --socket=PATH or --stdio");
    if (!so.socketPath.empty() && so.stdio)
        fatal("usage: --socket and --stdio are mutually exclusive");
    if (so.statsInterval > 0 && so.statsOut.empty())
        fatal("usage: --stats-interval needs --stats-out=FILE");
    return serve::serveMain(so);
}

/**
 * One rendered `top` frame: windowed rates computed by the sampler
 * from two successive Stats snapshots.
 */
void
printTopFrame(const obs::StatsSampler &s)
{
    double reqs = s.rate("serve.profile_requests") +
                  s.rate("serve.timing_requests");
    double hits = s.delta("cache.hits");
    double lookups = hits + s.delta("cache.misses");
    double hitPct = lookups > 0.0 ? 100.0 * hits / lookups : 0.0;
    std::printf("window %.1fs\n", s.windowSeconds());
    std::printf("  %-22s %10.1f /s\n", "experiment requests", reqs);
    std::printf("  %-22s %10.1f /s\n", "cache hits",
                s.rate("cache.hits"));
    std::printf("  %-22s %9.1f %%\n", "cache hit rate (win)", hitPct);
    std::printf("  %-22s %10.1f /s\n", "cache evictions",
                s.rate("cache.evictions"));
    std::printf("  %-22s %10.0f\n", "queue depth now",
                s.value("serve.queue_now"));
    std::printf("  %-22s %10.1f us\n", "latency p50 (lifetime)",
                s.value("serve.latency_p50_us"));
    std::printf("  %-22s %10.1f us\n", "latency p99 (lifetime)",
                s.value("serve.latency_p99_us"));
    std::printf("  %-22s %10.0f\n", "requests total",
                s.value("serve.requests"));
    std::printf("  %-22s %10.0f\n", "cache entries",
                s.value("cache.entries"));
    if (s.resets())
        std::printf("  %-22s %10llu\n", "counter resets seen",
                    static_cast<unsigned long long>(s.resets()));
    std::fflush(stdout);
}

int
cmdTop(const std::string &, const CliOptions &o)
{
    if (o.socket.empty())
        fatal("usage: top needs --socket=PATH");

    std::string err;
    int fd = serve::connectUnix(o.socket, &err);
    if (fd < 0)
        fatal("top: %s", err.c_str());
    serve::ServeClient client(fd);

    if (o.prom) {
        // Raw Prometheus exposition; --once prints one scrape, else one
        // scrape per interval (a file-based scraper can poll this).
        do {
            std::string promText;
            if (!client.stats(nullptr, &promText, &err))
                fatal("top: %s", err.c_str());
            std::fputs(promText.c_str(), stdout);
            std::fflush(stdout);
            if (!o.once)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(o.interval));
        } while (!o.once);
        return 0;
    }

    using Clock = std::chrono::steady_clock;
    Clock::time_point t0 = Clock::now();
    obs::StatsSampler sampler;
    // Only true counters take part in the resets() monotonicity check;
    // gauges (queue depth, percentiles) move down in normal operation.
    sampler.watchCounter("serve.requests");
    sampler.watchCounter("serve.profile_requests");
    sampler.watchCounter("serve.timing_requests");
    sampler.watchCounter("cache.hits");
    sampler.watchCounter("cache.misses");
    bool clearScreen = !o.once && ::isatty(STDOUT_FILENO);
    for (;;) {
        std::string json;
        if (!client.stats(&json, nullptr, &err))
            fatal("top: %s", err.c_str());
        obs::StatsSnapshot snap;
        if (!obs::parseStatsJson(json, &snap, &err))
            fatal("top: malformed stats JSON: %s", err.c_str());
        sampler.push(snap,
                     std::chrono::duration<double>(Clock::now() - t0)
                         .count());
        if (sampler.hasWindow()) {
            if (clearScreen)
                std::fputs("\x1b[H\x1b[2J", stdout);
            printTopFrame(sampler);
            if (o.once)
                return 0;  // two polls -> one windowed frame -> done
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(o.interval));
    }
}

int
cmdLoadgen(const std::string &, const CliOptions &o)
{
    serve::LoadgenOptions lo = o.loadgen;
    lo.socketPath = o.socket;
    lo.scale = o.scale;
    if (lo.socketPath.empty())
        fatal("usage: loadgen needs --socket=PATH");
    if (lo.repeatPct > 100 || lo.timingPct > 100)
        fatal("usage: --repeat-pct/--timing-pct are percentages (0..100)");
    serve::LoadgenReport rep;
    std::string err;
    bool ok = serve::runLoadgen(lo, &rep, &err);
    if (!ok && rep.sent == 0)
        fatal("loadgen: %s", err.c_str());
    if (!ok)
        warn("loadgen: %s", err.c_str());
    if (o.json) {
        std::string body = rep.json() + "\n";
        if (o.jsonFile.empty()) {
            std::fputs(body.c_str(), stdout);
        } else {
            std::ofstream out(o.jsonFile, std::ios::binary);
            if (!out)
                fatal("cannot write '%s'", o.jsonFile.c_str());
            out << body;
            std::printf("loadgen report written to '%s'\n",
                        o.jsonFile.c_str());
        }
    } else {
        std::fputs(rep.text().c_str(), stdout);
    }
    return ok && rep.errors == 0 ? 0 : 1;
}

int
cmdList(const std::string &, const CliOptions &)
{
    for (const WorkloadInfo &w : allWorkloads())
        std::printf("%-10s %-3s %s\n", w.name,
                    w.floatingPoint ? "FP" : "Int", w.input);
    return 0;
}

struct VerbInfo
{
    const char *name;
    Verb bit;
    /** The positional target; empty when the verb takes none. */
    const char *operand;
    const char *summary;
    int (*run)(const std::string &target, const CliOptions &o);
};

const VerbInfo kVerbs[] = {
    {"run", Run, "<file.s|@workload>", "execute and print state", cmdRun},
    {"time", Time, "<file.s|@workload>", "cycle-level simulation", cmdTime},
    {"profile", Profile, "<file.s|@workload>",
     "reference behaviour + FAC", cmdProfile},
    {"disasm", Disasm, "<file.s>", "assemble and disassemble", cmdDisasm},
    {"dinero", Dinero, "<file.s|@workload>",
     "dinero-format address trace", cmdDinero},
    {"fuzz", Fuzz, "", "differential fuzzing", cmdFuzz},
    {"mklib", Mklib, "@workload", "write a live-point library", cmdMklib},
    {"farm", Farm, "<library>", "sweep a live-point library", cmdFarm},
    {"serve", Serve, "", "experiment-serving daemon", cmdServe},
    {"loadgen", Loadgen, "", "drive a serve daemon", cmdLoadgen},
    {"top", Top, "", "live stats from a daemon", cmdTop},
    {"list", List, "", "list built-in workloads", cmdList},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    const VerbInfo *verb = nullptr;
    for (const VerbInfo &v : kVerbs) {
        if (cmd == v.name)
            verb = &v;
    }
    if (!verb) {
        // Bare --help is the only way to ask for this list on purpose.
        const bool help = cmd == "--help";
        std::FILE *out = help ? stdout : stderr;
        if (!help && !cmd.empty())
            std::fprintf(out, "unknown command '%s'\n", cmd.c_str());
        std::fprintf(out, "usage: %s <verb> [options]; %s <verb> --help "
                          "lists a verb's options\n\n", argv[0], argv[0]);
        for (const VerbInfo &v : kVerbs)
            std::fprintf(out, "  %-8s %-20s %s\n", v.name, v.operand,
                         v.summary);
        return help ? 0 : 1;
    }

    CliOptions o;
    std::string target;
    int first = 2;
    if (*verb->operand && first < argc && std::strncmp(argv[first], "--", 2))
        target = argv[first++];
    const std::string command = "facsim_cli " + cmd;
    flags::parseCommandLine(command.c_str(), verb->operand,
                            flagsFor(verb->bit, o), argc, argv, first);
    if (*verb->operand && target.empty())
        fatal("usage: %s needs a target %s", command.c_str(),
              verb->operand);
    checkOptions(o, target, verb->bit);
    return verb->run(target, o);
}
