/**
 * @file
 * facsim command-line driver: run assembly programs or built-in
 * workloads on the simulator without writing C++.
 *
 * Usage:
 *   facsim_cli run <file.s> [options]         execute and print state
 *   facsim_cli time <file.s|@workload> [opts] cycle-level simulation
 *   facsim_cli profile <file.s|@workload>     reference behaviour + FAC
 *   facsim_cli disasm <file.s>                assemble and disassemble
 *   facsim_cli dinero <file.s|@workload>      dinero-format address trace
 *   facsim_cli fuzz [--seed=N] [--count=M]    differential fuzzing
 *   facsim_cli mklib @workload --lib=FILE     write a live-point library
 *   facsim_cli farm <library> [opts]          sweep a live-point library
 *   facsim_cli serve [opts]                   experiment-serving daemon
 *   facsim_cli loadgen [opts]                 drive a serve daemon
 *   facsim_cli top [opts]                     live stats from a daemon
 *   facsim_cli list                           list built-in workloads
 *
 * Serve options (see docs/INTERNALS.md "Experiment service"):
 *   --socket=PATH      listen on a unix-domain socket at PATH
 *   --stdio            serve one connection over stdin/stdout instead
 *   --jobs=N           worker threads for cache misses (0 = all)
 *   --cache-bytes=N    result-cache byte budget (default 256 MiB)
 *   --cache-file=FILE  persist the result cache across restarts
 *   --stats-out=FILE   dump serve.* / cache.* stats on drain
 *   --stats-interval=S flush --stats-out every S seconds while serving
 *                      (atomic write-to-temp + rename)
 *   --trace=FILE       per-request span trace (Chrome trace-event JSON;
 *                      one track per daemon thread)
 *   SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight
 *   requests, flush the cache, dump stats, exit 0.
 *
 * Top options (live telemetry client; docs/INTERNALS.md):
 *   --socket=PATH      daemon socket to poll (required)
 *   --interval=S       seconds between polls (default 2)
 *   --once             print a single frame and exit (two polls for a
 *                      windowed-rate frame; one poll with --prom)
 *   --prom             print the raw Prometheus exposition instead of
 *                      the rate table
 *
 * Loadgen options:
 *   --socket=PATH      daemon socket to drive (required)
 *   --requests=N       total requests (default 100)
 *   --concurrency=N    client threads (default 1)
 *   --repeat-pct=N     percent of requests repeating an earlier one
 *                      (default 50)
 *   --timing-pct=N     percent of unique requests that are timing
 *                      (default 50; rest are profile)
 *   --seed=N           schedule seed (default 1); same seed = same
 *                      request set = same response digest
 *   --scale=N          workload scale per request (default 1)
 *   --max-insts=N      instruction bound per request (default 20000)
 *   --workloads=N      distinct workloads in the mix (default 4)
 *   --json[=FILE]      JSON report to stdout (or FILE) instead of text
 *
 * Fuzz options:
 *   --seed=N           batch seed (default 2026); case i is generated
 *                      from splitmix64(seed, i), independent of --jobs
 *   --count=M          cases to run (default 100)
 *   --jobs=N           worker threads (0 = all; default 1)
 *   --shrink           minimize diverging cases with ddmin
 *   --engine=E         emulator dispatch engine (see Options)
 *   --predictor=M      config matrix under predictor mode M (see
 *                      Options; default fac = the historical matrix)
 *
 * Options:
 *   --engine=switch|threaded
 *                      translated-block dispatch engine for bulk
 *                      emulation (default threaded; degrades to switch
 *                      when the build lacks computed-goto support)
 *   --support          enable the Section 4 software support
 *   --fac              enable fast address calculation (time)
 *   --agi              AGI pipeline organisation (time)
 *   --predictor=M      load-predictor organisation: none, fac, stride,
 *                      fac+stride, fac+waymemo or fac+stride+waymemo
 *                      (time; excludes --fac/--agi)
 *   --compare          also run the plain baseline and print the speedup
 *   --block=16|32      data-cache block size (default 32)
 *   --hierarchy=NAME   memory hierarchy preset: 'paper' (flat 6-cycle,
 *                      default) or 'modern' (L2 + MSHRs + DRAM) (time)
 *   --dram-lat=N       override the preset's DRAM latency (time)
 *   --mshrs=N          override the preset's L1 MSHR entry count (time)
 *   --tlb-penalty=N    model a 64-entry data TLB whose misses add N
 *                      cycles to the access (time)
 *   --no-rr            disable register+register speculation
 *   --max-insts=N      stop after N instructions (sampled runs: total
 *                      retired instructions, fast-forwarded included)
 *   --scale=N          workload scale (built-in workloads)
 *   --print-insts=N    print the first N executed instructions (run)
 *   --jobs=N           worker threads for --compare runs (0 = all)
 *
 * Observability (see docs/INTERNALS.md):
 *   --stats-out=FILE   dump the hierarchical stats registry after the
 *                      run; JSON when FILE ends in .json, text otherwise
 *                      (run/time/profile)
 *   --trace=FILE       write a per-instruction pipeline trace (time;
 *                      applies to the measured config of a --compare
 *                      pair)
 *   --trace-format=F   konata (default; open in Konata) or chrome
 *                      (open in chrome://tracing / Perfetto)
 *   --trace-start=N    first dynamic instruction to trace (default 0)
 *   --trace-count=N    trace at most N instructions (default: all)
 *   --ring=N           keep the last N issued instructions in a crash
 *                      ring that panic() dumps (time)
 *   --debug-flags=A,B  enable FACSIM_DPRINTF debug output for the named
 *                      flags (comma separated; unknown names are fatal
 *                      and list the valid set)
 *
 * Sampled simulation (time, @workload or .s):
 *   --sample-period=U  systematic sampling: one detailed window per U
 *                      retired instructions (0 is rejected; omit the
 *                      flag for full detail)
 *   --sample-detail=N  measured instructions per window (default 1000)
 *   --sample-warmup=N  unmeasured detailed warmup per window
 *                      (default 2000)
 *
 * Live-point libraries (see docs/INTERNALS.md "Live-point library"):
 *   mklib fast-forwards the workload once with functional warming and
 *   writes one checkpoint per --sample-period instructions to --lib=FILE
 *   (--sample-detail/--sample-warmup are recorded for the farm; the
 *   cache/TLB/BTB geometry flags fix the library's warm fingerprint).
 *   farm restores every entry and measures a detailed window per entry
 *   across --jobs threads; --compare also measures the plain baseline
 *   from the *same* live-points and reports the matched-pair speedup
 *   (stdout is byte-identical for any --jobs; host timing goes to
 *   stderr). Timing-only flags (--fac, --agi, --no-rr, latencies) may
 *   differ from the mklib run; geometry flags must match.
 *   --lib=FILE         library path to write (mklib)
 *   --max-entries=N    farm: measure only the first N live-points
 *                      (0 = all; smoke-test hook)
 *
 * Checkpoints (@workload targets; 'run' = functional, 'time' = timing):
 *   --ckpt-save=FILE   run (honouring --max-insts), then save
 *   --ckpt-restore=FILE restore, then continue to completion (or
 *                      --max-insts total instructions); the resumed
 *                      run's final stats are bit-identical to an
 *                      uninterrupted run
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
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/sealed.hh"
#include "verify/fuzz.hh"

using namespace facsim;

namespace
{

/** --engine= choices; index order matches EmuEngine's enumerators. */
const char *const kEngineChoices[] = {"switch", "threaded", nullptr};

EmuEngine
parseEngineFlag(const std::string &value)
{
    return parse::oneOfFlag("--engine", value, kEngineChoices) == 0
               ? EmuEngine::Switch
               : EmuEngine::Threaded;
}

struct CliOptions
{
    EmuEngine engine = EmuEngine::Threaded;
    bool support = false;
    bool fac = false;
    bool agi = false;
    /** Predictor-zoo mode (kPredictorChoices); empty = use --fac/--agi. */
    std::string predictor;
    bool compare = false;
    bool specRr = true;
    uint32_t block = 32;
    std::string hierarchy = "paper";
    /** Preset overrides; UINT32_MAX / -1 = keep the preset's value. */
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
    size_t ring = 0;
    /** Systematic sampling (time); period 0 = full detail. */
    SamplingConfig sampling;
    /** Checkpoint paths; empty = no checkpointing. */
    std::string ckptSave;
    std::string ckptRestore;
    /** Live-point library output path (mklib). */
    std::string lib;
    /** Farm: restore only the first N entries (0 = all). */
    uint64_t maxEntries = 0;
};

std::string
readFile(const std::string &path)
{
    std::string text;
    if (!ser::readFile(path, &text))
        fatal("cannot open '%s'", path.c_str());
    return text;
}

CliOptions
parseOptions(int argc, char **argv, int first)
{
    CliOptions o;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--engine="))
            o.engine = parseEngineFlag(v);
        else if (a == "--support")
            o.support = true;
        else if (a == "--fac")
            o.fac = true;
        else if (a == "--agi")
            o.agi = true;
        else if (const char *v = val("--predictor=")) {
            parse::oneOfFlag("--predictor", v, kPredictorChoices);
            o.predictor = v;
        } else if (a == "--compare")
            o.compare = true;
        else if (a == "--no-rr")
            o.specRr = false;
        else if (const char *v = val("--block="))
            o.block = parse::u32FlagPositive("--block", v);
        else if (const char *v = val("--hierarchy="))
            o.hierarchy = v;
        else if (const char *v = val("--dram-lat="))
            o.dramLat = parse::u32FlagPositive("--dram-lat", v);
        else if (const char *v = val("--mshrs="))
            o.mshrs = parse::u32FlagPositive("--mshrs", v);
        else if (const char *v = val("--tlb-penalty="))
            o.tlbPenalty = parse::u32FlagPositive("--tlb-penalty", v);
        else if (const char *v = val("--max-insts="))
            o.maxInsts = parse::u64Flag("--max-insts", v);
        else if (const char *v = val("--scale="))
            o.scale = parse::u64FlagPositive("--scale", v);
        else if (const char *v = val("--print-insts="))
            o.printInsts = parse::u64Flag("--print-insts", v);
        else if (const char *v = val("--trace=")) {
            if (!*v)
                fatal("usage: --trace expects a file path");
            o.trace.path = v;
        } else if (const char *v = val("--trace-format=")) {
            if (!obs::parseTraceFormat(v, o.trace.format))
                fatal("unknown trace format '%s' (expected 'konata' or "
                      "'chrome')", v);
        } else if (const char *v = val("--trace-start="))
            o.trace.start = parse::u64Flag("--trace-start", v);
        else if (const char *v = val("--trace-count="))
            o.trace.count = parse::u64FlagPositive("--trace-count", v);
        else if (const char *v = val("--stats-out=")) {
            if (!*v)
                fatal("usage: --stats-out expects a file path");
            o.statsOut = v;
        } else if (const char *v = val("--ring="))
            o.ring = parse::u64FlagPositive("--ring", v);
        else if (const char *v = val("--debug-flags=")) {
            std::string unknown;
            if (!obs::setDebugFlags(v, &unknown)) {
                std::string names;
                for (const obs::DebugFlag *f : obs::allDebugFlags()) {
                    names += ' ';
                    names += f->name();
                }
                fatal("unknown debug flag '%s' (valid flags:%s)",
                      unknown.c_str(), names.c_str());
            }
        } else if (const char *v = val("--jobs="))
            o.jobs = parse::u32Flag("--jobs", v);
        else if (const char *v = val("--sample-period="))
            o.sampling.period = parse::u64FlagPositive("--sample-period", v);
        else if (const char *v = val("--sample-detail="))
            o.sampling.detail = parse::u64FlagPositive("--sample-detail", v);
        else if (const char *v = val("--sample-warmup="))
            o.sampling.warmup = parse::u64FlagPositive("--sample-warmup", v);
        else if (const char *v = val("--ckpt-save=")) {
            if (!*v)
                fatal("usage: --ckpt-save expects a file path");
            o.ckptSave = v;
        } else if (const char *v = val("--ckpt-restore=")) {
            if (!*v)
                fatal("usage: --ckpt-restore expects a file path");
            o.ckptRestore = v;
        } else if (const char *v = val("--lib=")) {
            if (!*v)
                fatal("usage: --lib expects a file path");
            o.lib = v;
        } else if (const char *v = val("--max-entries="))
            o.maxEntries = parse::u64Flag("--max-entries", v);
        else
            fatal("unknown option '%s'", a.c_str());
    }
    if (!o.predictor.empty() && (o.fac || o.agi))
        fatal("usage: --predictor is mutually exclusive with --fac and "
              "--agi (it selects the whole organisation)");
    if (!o.ckptSave.empty() && !o.ckptRestore.empty())
        fatal("usage: --ckpt-save and --ckpt-restore are mutually "
              "exclusive");
    if (o.sampling.enabled() &&
        (!o.ckptSave.empty() || !o.ckptRestore.empty()))
        fatal("usage: sampling (--sample-period) cannot be combined with "
              "checkpointing (--ckpt-save/--ckpt-restore)");
    if (o.sampling.enabled())
        o.sampling.validate();
    return o;
}

CodeGenPolicy
policyOf(const CliOptions &o)
{
    return o.support ? CodeGenPolicy::withSupport()
                     : CodeGenPolicy::baseline();
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

PipelineConfig
pipeOf(const CliOptions &o)
{
    PipelineConfig c;
    if (!o.predictor.empty())
        c = predictorPipelineConfig(o.predictor, o.block, o.specRr);
    else if (o.agi)
        c = agiConfig(o.block);
    else if (o.fac)
        c = facPipelineConfig(o.block, o.specRr);
    else
        c = baselineConfig(o.block);
    c.hierarchy = hierarchyOf(o);
    return c;
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

/** A loaded program ready to execute (from a .s file). */
struct Loaded
{
    Program prog;
    Memory mem;
    LinkedImage img;
    std::unique_ptr<Emulator> emu;
};

std::unique_ptr<Loaded>
loadAsm(const std::string &path, const CliOptions &o)
{
    auto l = std::make_unique<Loaded>();
    parseAsm(readFile(path), l->prog);
    CodeGenPolicy pol = policyOf(o);
    l->img = Linker(pol.link).link(l->prog, l->mem);
    l->emu = std::make_unique<Emulator>(l->prog, l->mem, l->img,
                                        pol.stack.initialSp());
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
    std::unique_ptr<Loaded> l;
    std::unique_ptr<Machine> m;
    Emulator *emu;
    const Program *prog;
    Memory *mem;
    bool ckpt = !o.ckptSave.empty() || !o.ckptRestore.empty();
    if (!target.empty() && target[0] == '@') {
        BuildOptions b;
        b.policy = policyOf(o);
        b.scale = o.scale;
        m = std::make_unique<Machine>(workload(target.substr(1)), b);
        emu = &m->emulator();
        prog = &m->program();
        mem = &m->memory();
    } else {
        if (ckpt)
            fatal("checkpoints require a built-in @workload target");
        l = loadAsm(target, o);
        emu = l->emu.get();
        prog = &l->prog;
        mem = &l->mem;
    }

    if (!o.ckptRestore.empty()) {
        restoreFunctionalCheckpoint(o.ckptRestore, *m);
        std::printf("restored '%s' at %llu instructions\n",
                    o.ckptRestore.c_str(),
                    static_cast<unsigned long long>(emu->instCount()));
    }

    // --max-insts bounds *total* executed instructions so a save/restore
    // pair covers exactly the same stream as an uninterrupted run. The
    // first --print-insts instructions go through the scalar step()
    // path (they need per-instruction records to disassemble); the rest
    // runs on the translated-block engine selected by --engine.
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
                              emu->engine());
    });
    if (!o.ckptSave.empty()) {
        saveFunctionalCheckpoint(o.ckptSave, *m);
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

int
cmdTime(const std::string &target, const CliOptions &o)
{
    bool is_workload = !target.empty() && target[0] == '@';

    if (!o.ckptSave.empty() || !o.ckptRestore.empty()) {
        if (!is_workload)
            fatal("checkpoints require a built-in @workload target");
        BuildOptions b;
        b.policy = policyOf(o);
        b.scale = o.scale;
        Machine m(workload(target.substr(1)), b);
        Pipeline pipe(pipeOf(o), m.emulator());
        // Trace/ring progress is not part of a checkpoint: a trace
        // started here covers only this run's portion of the program.
        std::unique_ptr<obs::OpenTrace> trace = obs::openTrace(o.trace);
        if (trace)
            pipe.setTrace(trace->sink.get(), o.trace.start,
                          o.trace.count);
        if (o.ring)
            pipe.enableHistoryRing(o.ring);
        if (!o.ckptRestore.empty()) {
            restoreTimingCheckpoint(o.ckptRestore, m, pipe);
            std::printf("restored '%s' at cycle %llu (%llu insts)\n",
                        o.ckptRestore.c_str(),
                        static_cast<unsigned long long>(
                            pipe.currentCycle()),
                        static_cast<unsigned long long>(
                            pipe.stats().insts));
        }
        // run() bounds *total* issued instructions, so a save/restore
        // pair replays exactly the cycles an uninterrupted run would.
        PipeStats st = pipe.run(o.maxInsts);
        if (!o.ckptSave.empty()) {
            saveTimingCheckpoint(o.ckptSave, m, pipe);
            std::printf("checkpoint saved to '%s' at cycle %llu "
                        "(%llu insts)\n",
                        o.ckptSave.c_str(),
                        static_cast<unsigned long long>(
                            pipe.currentCycle()),
                        static_cast<unsigned long long>(st.insts));
        }
        printPipeStats(st);
        HierarchyStats hs = pipe.hierarchyStats();
        printHierarchyStats(hs);
        uint64_t mu = m.memUsageBytes();
        writeStatsFile(o.statsOut, [&](obs::Group &root) {
            registerPipeStats(root.group("pipeline"), st);
            registerHierarchyStats(root.group("hier"), hs);
            registerEmulatorStats(root.group("emu"),
                                  m.emulator().translationStats(),
                                  m.emulator().engine());
            root.group("sim").counterView(
                "mem_usage_bytes", "peak simulated-memory footprint",
                &mu);
        });
        return 0;
    }

    if (is_workload) {
        // Workload targets go through the experiment runner so a
        // --compare pair runs on two threads when --jobs allows it.
        auto requestWith = [&](const PipelineConfig &cfg) {
            TimingRequest req;
            req.workload = target.substr(1);
            req.build.policy = policyOf(o);
            req.build.scale = o.scale;
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
        if (o.compare) {
            // The baseline shares the memory system so the speedup
            // isolates the pipeline change.
            PipelineConfig base = baselineConfig(o.block);
            base.hierarchy = hierarchyOf(o);
            reqs.push_back(requestWith(base));
        }

        RunnerReport report;
        std::vector<TimingResult> res =
            Runner(o.jobs).runTimings(reqs, &report);

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
                        res[0].sample.enabled ? " (sampled estimate)"
                                              : "");
            std::printf("host time:         %.2fs on %u threads "
                        "(%.2fM sim-insts/s)\n",
                        report.wallSeconds, report.jobs,
                        report.simInstsPerHostSecond() / 1e6);
        }
        return 0;
    }

    // The emulator dies with the per-run Loaded image, so copy its
    // translation counters out for the stats dump.
    EmuTranslationStats emuTs;
    EmuEngine emuEngine = EmuEngine::Switch;
    auto timeWith = [&](const PipelineConfig &cfg, HierarchyStats *hs,
                        SampleEstimate *se, bool primary) {
        auto l = loadAsm(target, o);
        Pipeline pipe(cfg, *l->emu);
        std::unique_ptr<obs::OpenTrace> trace =
            primary ? obs::openTrace(o.trace) : nullptr;
        if (trace)
            pipe.setTrace(trace->sink.get(), o.trace.start,
                          o.trace.count);
        if (primary && o.ring)
            pipe.enableHistoryRing(o.ring);
        PipeStats st;
        if (o.sampling.enabled()) {
            *se = runSampled(pipe, o.sampling, o.maxInsts);
            st = pipe.stats();
        } else {
            st = pipe.run(o.maxInsts);
        }
        if (hs)
            *hs = pipe.hierarchyStats();
        if (primary) {
            emuTs = l->emu->translationStats();
            emuEngine = l->emu->engine();
        }
        return st;
    };
    HierarchyStats hier;
    SampleEstimate sample;
    PipeStats st = timeWith(pipeOf(o), &hier, &sample, true);
    printPipeStats(st);
    printHierarchyStats(hier);
    if (sample.enabled)
        printSampleEstimate(sample);
    writeStatsFile(o.statsOut, [&](obs::Group &root) {
        registerPipeStats(root.group("pipeline"), st);
        registerHierarchyStats(root.group("hier"), hier);
        registerEmulatorStats(root.group("emu"), emuTs, emuEngine);
    });
    if (o.compare) {
        PipelineConfig bcfg = baselineConfig(o.block);
        bcfg.hierarchy = hierarchyOf(o);
        SampleEstimate bsample;
        PipeStats base = timeWith(bcfg, nullptr, &bsample, false);
        double bcyc = bsample.enabled ? bsample.estCycles()
                                      : static_cast<double>(base.cycles);
        double mcyc = sample.enabled ? sample.estCycles()
                                     : static_cast<double>(st.cycles);
        std::printf("baseline cycles:   %.0f\n", bcyc);
        std::printf("speedup:           %.3f%s\n",
                    bcyc > 0.0 && mcyc > 0.0 ? bcyc / mcyc : 0.0,
                    sample.enabled ? " (sampled estimate)" : "");
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
    if (target.empty() || target[0] != '@')
        fatal("mklib requires a built-in @workload target");
    if (!o.sampling.enabled())
        fatal("mklib requires --sample-period (one live-point per "
              "period)");
    if (o.lib.empty())
        fatal("mklib requires --lib=FILE");

    LvptBuildRequest req;
    req.workload = target.substr(1);
    req.build.policy = policyOf(o);
    req.build.scale = o.scale;
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
    if (o.compare) {
        // Same convention as 'time --compare': the partner is the plain
        // baseline sharing the memory system, measured from the *same*
        // live-points (matched pair).
        PipelineConfig base = baselineConfig(o.block);
        base.hierarchy = hierarchyOf(o);
        req.partner = base;
    }
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
    FacConfig fc = facConfigFor(CacheConfig{16 * 1024, o.block, 1, 6});
    Profiler prof;
    prof.addFacConfig(fc);

    if (!target.empty() && target[0] == '@') {
        BuildOptions b;
        b.policy = policyOf(o);
        b.scale = o.scale;
        Machine m(workload(target.substr(1)), b);
        ExecRecord rec;
        while (m.emulator().step(&rec)) {
            prof.observe(rec);
            if (o.maxInsts && prof.insts() >= o.maxInsts)
                break;
        }
    } else {
        auto l = loadAsm(target, o);
        ExecRecord rec;
        while (l->emu->step(&rec)) {
            prof.observe(rec);
            if (o.maxInsts && prof.insts() >= o.maxInsts)
                break;
        }
    }
    printProfile(prof);
    ProfileResult pr;
    pr.insts = prof.insts();
    pr.loads = prof.loads();
    pr.stores = prof.stores();
    pr.fracGlobal = prof.loadFrac(RefClass::Global);
    pr.fracStack = prof.loadFrac(RefClass::Stack);
    pr.fracGeneral = prof.loadFrac(RefClass::General);
    for (size_t i = 0; i < prof.numFacConfigs(); ++i)
        pr.fac.push_back(prof.fac(i));
    pr.tlbAccesses = prof.tlbAccesses();
    pr.tlbMisses = prof.tlbMisses();
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
    auto emitTrace = [&](Emulator &emu) {
        ExecRecord rec;
        uint64_t n = 0;
        while (emu.step(&rec)) {
            std::printf("2 %x\n", rec.pc);
            if (isMem(rec.inst.op))
                std::printf("%d %x\n", isStore(rec.inst.op) ? 1 : 0,
                            rec.effAddr);
            if (o.maxInsts && ++n >= o.maxInsts)
                break;
        }
    };
    if (!target.empty() && target[0] == '@') {
        BuildOptions b;
        b.policy = policyOf(o);
        b.scale = o.scale;
        Machine m(workload(target.substr(1)), b);
        emitTrace(m.emulator());
    } else {
        auto l = loadAsm(target, o);
        emitTrace(*l->emu);
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
cmdFuzz(int argc, char **argv, int first)
{
    verify::FuzzOptions fo;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--engine="))
            Emulator::setDefaultEngine(parseEngineFlag(v));
        else if (const char *v = val("--seed="))
            fo.seed = std::strtoull(v, nullptr, 0);
        else if (const char *v = val("--count="))
            fo.count = std::strtoull(v, nullptr, 0);
        else if (const char *v = val("--jobs="))
            fo.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (a == "--shrink")
            fo.shrink = true;
        else if (const char *v = val("--min-items="))
            fo.minItems =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (const char *v = val("--max-items="))
            fo.maxItems =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (const char *v = val("--predictor=")) {
            parse::oneOfFlag("--predictor", v, kPredictorChoices);
            fo.predictor = v;
        } else
            fatal("unknown fuzz option '%s'", a.c_str());
    }

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
cmdServe(int argc, char **argv, int first)
{
    serve::ServerOptions so;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--socket=")) {
            if (!*v)
                fatal("usage: --socket expects a path");
            so.socketPath = v;
        } else if (a == "--stdio")
            so.stdio = true;
        else if (const char *v = val("--jobs="))
            so.jobs = parse::u32Flag("--jobs", v);
        else if (const char *v = val("--cache-bytes="))
            so.cacheBytes = parse::u64FlagPositive("--cache-bytes", v);
        else if (const char *v = val("--cache-file=")) {
            if (!*v)
                fatal("usage: --cache-file expects a path");
            so.cacheFile = v;
        } else if (const char *v = val("--stats-out=")) {
            if (!*v)
                fatal("usage: --stats-out expects a file path");
            so.statsOut = v;
        } else if (const char *v = val("--stats-interval="))
            so.statsInterval = parse::u32FlagPositive("--stats-interval", v);
        else if (const char *v = val("--trace=")) {
            if (!*v)
                fatal("usage: --trace expects a file path");
            so.tracePath = v;
        } else
            fatal("unknown serve option '%s'", a.c_str());
    }
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
cmdTop(int argc, char **argv, int first)
{
    std::string socket;
    double interval = 2.0;
    bool once = false, prom = false;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--socket=")) {
            if (!*v)
                fatal("usage: --socket expects a path");
            socket = v;
        } else if (const char *v = val("--interval=")) {
            interval = parse::doubleFlag("--interval", v);
            if (interval <= 0.0)
                fatal("usage: --interval must be positive");
        } else if (a == "--once")
            once = true;
        else if (a == "--prom")
            prom = true;
        else
            fatal("unknown top option '%s'", a.c_str());
    }
    if (socket.empty())
        fatal("usage: top needs --socket=PATH");

    std::string err;
    int fd = serve::connectUnix(socket, &err);
    if (fd < 0)
        fatal("top: %s", err.c_str());
    serve::ServeClient client(fd);

    if (prom) {
        // Raw Prometheus exposition; --once prints one scrape, else one
        // scrape per interval (a file-based scraper can poll this).
        do {
            std::string promText;
            if (!client.stats(nullptr, &promText, &err))
                fatal("top: %s", err.c_str());
            std::fputs(promText.c_str(), stdout);
            std::fflush(stdout);
            if (!once)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(interval));
        } while (!once);
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
    bool clearScreen = !once && ::isatty(STDOUT_FILENO);
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
            if (once)
                return 0;  // two polls -> one windowed frame -> done
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}

int
cmdLoadgen(int argc, char **argv, int first)
{
    serve::LoadgenOptions lo;
    bool json = false;
    std::string jsonFile;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--socket=")) {
            if (!*v)
                fatal("usage: --socket expects a path");
            lo.socketPath = v;
        } else if (const char *v = val("--requests="))
            lo.requests = parse::u64FlagPositive("--requests", v);
        else if (const char *v = val("--concurrency="))
            lo.concurrency = parse::u32FlagPositive("--concurrency", v);
        else if (const char *v = val("--repeat-pct="))
            lo.repeatPct = parse::u32Flag("--repeat-pct", v);
        else if (const char *v = val("--timing-pct="))
            lo.timingPct = parse::u32Flag("--timing-pct", v);
        else if (const char *v = val("--seed="))
            lo.seed = parse::u64Flag("--seed", v);
        else if (const char *v = val("--scale="))
            lo.scale = parse::u64FlagPositive("--scale", v);
        else if (const char *v = val("--max-insts="))
            lo.maxInsts = parse::u64FlagPositive("--max-insts", v);
        else if (const char *v = val("--workloads="))
            lo.workloadPool = parse::u32FlagPositive("--workloads", v);
        else if (a == "--json")
            json = true;
        else if (const char *v = val("--json=")) {
            json = true;
            jsonFile = v;
        } else
            fatal("unknown loadgen option '%s'", a.c_str());
    }
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
    if (json) {
        std::string body = rep.json() + "\n";
        if (jsonFile.empty()) {
            std::fputs(body.c_str(), stdout);
        } else {
            std::ofstream out(jsonFile, std::ios::binary);
            if (!out)
                fatal("cannot write '%s'", jsonFile.c_str());
            out << body;
            std::printf("loadgen report written to '%s'\n",
                        jsonFile.c_str());
        }
    } else {
        std::fputs(rep.text().c_str(), stdout);
    }
    return ok && rep.errors == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s run|time|profile|disasm|mklib|"
                             "farm|serve|loadgen|top|list "
                             "<file.s|@workload> [options]\n",
                     argv[0]);
        return 1;
    }
    std::string cmd = argv[1];
    if (cmd == "serve")
        return cmdServe(argc, argv, 2);
    if (cmd == "loadgen")
        return cmdLoadgen(argc, argv, 2);
    if (cmd == "top")
        return cmdTop(argc, argv, 2);
    if (cmd == "list") {
        for (const WorkloadInfo &w : allWorkloads())
            std::printf("%-10s %-3s %s\n", w.name,
                        w.floatingPoint ? "FP" : "Int", w.input);
        return 0;
    }
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv, 2);
    if (argc < 3)
        fatal("'%s' needs a target", cmd.c_str());
    std::string target = argv[2];
    CliOptions o = parseOptions(argc, argv, 3);
    // Before any Machine/Emulator is built (including the Runner's
    // worker-thread builds — see the machine.hh thread-safety note).
    Emulator::setDefaultEngine(o.engine);

    if (cmd == "run")
        return cmdRun(target, o);
    if (cmd == "time")
        return cmdTime(target, o);
    if (cmd == "profile")
        return cmdProfile(target, o);
    if (cmd == "disasm")
        return cmdDisasm(target, o);
    if (cmd == "dinero")
        return cmdDinero(target, o);
    if (cmd == "mklib")
        return cmdMklib(target, o);
    if (cmd == "farm")
        return cmdFarm(target, o);
    fatal("unknown command '%s'", cmd.c_str());
}
