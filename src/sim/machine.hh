/**
 * @file
 * Machine: wires one workload build into a runnable simulated system —
 * program assembly, linking (with the policy's software support), heap
 * initialisation and the functional CPU. One Machine corresponds to one
 * program execution; construct a fresh one per simulation run.
 *
 * Thread-safety contract (relied on by sim/runner.hh): constructing and
 * running any number of Machine instances on concurrent threads is
 * safe. Every piece of mutable state — Program, Memory, Rng, Heap,
 * Emulator, and the Pipeline/Profiler driven on top — is owned by one
 * Machine or one experiment: the workload registry and ISA lookup
 * tables are `static const` with thread-safe (C++11 magic-static)
 * initialisation, all randomness flows through the per-Machine Rng
 * seeded from BuildOptions::seed, and logging writes to stderr with no
 * shared buffers. The only mutable globals in the library are the
 * observability controls — the debug-flag set (obs/debug.hh) and the
 * swappable log sink (util/logging.hh) — which must be set before
 * concurrent Machines start running and not changed underneath them.
 * A single Machine must stay confined to one thread at a time.
 */

#ifndef FACSIM_SIM_MACHINE_HH
#define FACSIM_SIM_MACHINE_HH

#include <memory>
#include <string>

#include "cpu/emulator.hh"
#include "runtime/heap.hh"
#include "workloads/registry.hh"

namespace facsim
{

/** How to build a Machine. */
struct BuildOptions
{
    CodeGenPolicy policy = CodeGenPolicy::baseline();
    /** Workload size multiplier (tests use small values). */
    uint64_t scale = 1;
    /** Seed for workload data generation (deterministic runs). */
    uint64_t seed = 0x5eed;

    /** Wire order (request codec, workloadFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&BuildOptions::policy, &BuildOptions::scale, &BuildOptions::seed);
    }
};

/** A fully built, ready-to-run simulated system. */
class Machine
{
  public:
    Machine(const WorkloadInfo &info, const BuildOptions &options);

    /** The functional CPU positioned at the entry point. */
    Emulator &emulator() { return *emu; }
    const Emulator &emulator() const { return *emu; }

    /** Simulated memory (text+data+heap initialised). */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }

    /** The linked program. */
    const Program &program() const { return prog; }

    /** Link results. */
    const LinkedImage &image() const { return img; }

    /** Heap after initialisation. */
    const Heap &heap() const { return *heap_; }

    /**
     * Memory-usage statistic (Tables 3/4): pages touched so far,
     * covering text, static data, heap and stack.
     */
    uint64_t memUsageBytes() const { return mem.memUsageBytes(); }

    /** Workload name this machine was built from (checkpoint identity). */
    const std::string &workloadName() const { return wlName; }

    /** Build options this machine was built with (checkpoint identity). */
    const BuildOptions &buildOptions() const { return opts; }

  private:
    std::string wlName;
    BuildOptions opts;
    Memory mem;
    Program prog;
    Rng rng;
    LinkedImage img;
    std::unique_ptr<Heap> heap_;
    std::unique_ptr<Emulator> emu;
};

/**
 * Who a saved simulation belongs to: the workload and the build that
 * ran it. Checkpoints and live-point libraries both lead with it, and
 * a restore refuses a machine built any other way.
 */
struct BuildIdentity
{
    std::string workload;
    uint64_t scale = 1;
    uint64_t seed = 0;
    bool softwareSupport = false;

    /** The identity of @p m. */
    static BuildIdentity of(const Machine &m);

    /** BuildOptions reproducing the machine (policy from the marker). */
    BuildOptions buildOptions() const;

    /**
     * Die naming @p what ("checkpoint", ...) and @p path unless @p m
     * was built to this identity.
     */
    void check(const Machine &m, const char *what,
               const std::string &path) const;

    /** Wire order (checkpoint and live-point library headers). */
    template <class V>
    static void
    fields(V &&v)
    {
        using B = BuildIdentity;
        v(&B::workload, &B::scale, &B::seed, &B::softwareSupport);
    }
};

} // namespace facsim

#endif // FACSIM_SIM_MACHINE_HH
