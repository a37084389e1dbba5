/**
 * @file
 * Cycle-level timing model of the paper's baseline superscalar (Table 5)
 * and its fast-address-calculation extension (Section 5.5).
 *
 * Microarchitecture modelled:
 *  - 4-wide fetch of any contiguous group, BTB-directed, 16 KB I-cache;
 *  - in-order issue of up to 4 ops/cycle, out-of-order completion via a
 *    register scoreboard (WAW hazards stall issue);
 *  - functional units with the Table 5 latencies, divides unpipelined;
 *  - traditional 5-stage timing: ALU results ready after EX (1 cycle);
 *    a non-speculative load computes its address in EX and accesses the
 *    data cache in MEM — the 2-cycle load latency of Figure 1;
 *  - dual-read-ported, write-back, non-blocking 16 KB data cache with a
 *    6-cycle miss latency and a 16-entry non-merging store buffer that
 *    retires to the cache on cycles with no load traffic;
 *  - 2-cycle branch misprediction penalty.
 *
 * With fast address calculation enabled, loads and stores speculatively
 * access the cache in EX using the predicted address (if a read port is
 * free); a misprediction re-executes the access in MEM the next cycle, and
 * memory operations issued in the cycle after a misprediction defer their
 * access to MEM — except that a load may speculate immediately after a
 * misspeculated load. Stores always execute speculatively into the store
 * buffer, whose entry is patched when a store's address was mispredicted.
 *
 * The model is trace-driven from the functional Emulator: the timing core
 * consumes the architecturally-correct dynamic instruction stream
 * (register values at EX equal architectural values because issue is
 * in-order), and wrong-path fetch is modelled as a fetch-redirect bubble
 * without cache pollution.
 */

#ifndef FACSIM_CPU_PIPELINE_HH
#define FACSIM_CPU_PIPELINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "branch/btb.hh"
#include "cache/cache.hh"
#include "cache/store_buffer.hh"
#include "core/fast_addr_calc.hh"
#include "cpu/emulator.hh"
#include "cpu/load_predictor.hh"
#include "mem/hierarchy/hierarchy.hh"
#include "obs/ring.hh"
#include "obs/trace.hh"
#include "util/fields.hh"

namespace facsim
{

/** Pipeline configuration; defaults reproduce the paper's Table 5. */
struct PipelineConfig
{
    unsigned fetchWidth = 4;
    unsigned issueWidth = 4;
    unsigned fetchBufferSize = 16;

    CacheConfig icache{16 * 1024, 32, 1, 6};
    CacheConfig dcache{16 * 1024, 32, 1, 6};

    /**
     * What sits below (and around) the L1 data cache. The default flat
     * hierarchy charges `dcache.missLatency` per miss — the paper's
     * machine, bit-identical to the pre-hierarchy model. See
     * `mem/hierarchy/hierarchy.hh` for the L2/MSHR/DRAM parameters and
     * `modernHierarchy()` in sim/config.hh for the deeper preset.
     */
    HierarchyConfig hierarchy{};

    unsigned btbEntries = 1024;
    unsigned branchPenalty = 2;

    unsigned storeBufferEntries = 16;
    unsigned maxLoadsPerCycle = 2;   ///< data-cache read ports
    unsigned maxStoresPerCycle = 1;

    unsigned numIntAlus = 4;
    unsigned numMemUnits = 2;
    unsigned numFpAdders = 2;

    // Result latencies in cycles ("total"); divides also occupy their
    // unit for the full latency ("issue" interval).
    unsigned intAluLat = 1;
    unsigned intMulLat = 3;
    unsigned intDivLat = 12;
    unsigned fpAddLat = 2;
    unsigned fpMulLat = 4;
    unsigned fpDivLat = 12;
    unsigned fpSqrtLat = 12;

    // --- fast address calculation ---------------------------------------
    bool facEnabled = false;
    FacConfig fac;
    /** Speculate stores into the store buffer (Section 3.1 discussion). */
    bool speculateStores = true;
    /**
     * Conservative memory disambiguation: stall a load whose block
     * overlaps a buffered store until that store retires (the default
     * models free store-to-load forwarding instead, which is what the
     * paper's in-order access stream implies).
     */
    bool loadsStallOnStoreConflict = false;

    /**
     * Table-based predictor zoo (PC-indexed stride source, way
     * memoization); all off by default, leaving FAC behaviour
     * bit-identical to the pre-zoo model. Way memoization requires
     * facEnabled and a non-perfect data cache; the stride source is
     * independent of facEnabled.
     */
    PredictorConfig pred;

    // --- idealisations for the Figure 2 potential study -----------------
    bool oneCycleLoads = false;   ///< loads skip the address-calc cycle
    bool perfectDCache = false;   ///< all data accesses hit
    bool perfectICache = false;   ///< all fetches hit

    /**
     * AGI pipeline organisation (Jouppi's MultiTitan / the TFP, compared
     * by Golden & Mudge — paper Section 6): a dedicated address-
     * generation stage, with ALU execution pushed down to the cache-
     * access stage. Removes the load-use hazard but introduces a 1-cycle
     * address-use hazard (ALU result feeding a memory op's address) and
     * lengthens the branch misprediction penalty by one cycle. Mutually
     * exclusive with facEnabled and oneCycleLoads.
     */
    bool agiOrganization = false;

    // Bounds check() enforces: the fetch buffer and the functional units
    // live in fixed arrays, and each instruction's timing record holds
    // its latency and unit occupancy in one byte.
    static constexpr unsigned widthCap = 64;
    static constexpr unsigned fetchBufferCap = 256;
    static constexpr unsigned unitCap = 32;
    static constexpr unsigned latencyCap = 255;

    /**
     * Empty when this configuration describes a machine the pipeline
     * can build and run, else the first problem found: a zero or
     * over-cap width, buffer or unit count, a latency the timing record
     * cannot hold, incoherent cache, hierarchy or predictor parameters,
     * or an incompatible combination of features. Never aborts — the
     * experiment daemon rejects requests with it; Pipeline's
     * constructor panics on a non-empty answer.
     */
    std::string check() const;

    /**
     * Every field in wire order: the request codec and
     * configFingerprint() both encode exactly this list.
     */
    template <class V>
    static void
    fields(V &&v)
    {
        using C = PipelineConfig;
        v(&C::fetchWidth, &C::issueWidth, &C::fetchBufferSize, &C::icache,
          &C::dcache, &C::hierarchy, &C::btbEntries, &C::branchPenalty,
          &C::storeBufferEntries, &C::maxLoadsPerCycle,
          &C::maxStoresPerCycle, &C::numIntAlus, &C::numMemUnits,
          &C::numFpAdders, &C::intAluLat, &C::intMulLat, &C::intDivLat,
          &C::fpAddLat, &C::fpMulLat, &C::fpDivLat, &C::fpSqrtLat,
          &C::facEnabled, &C::fac, &C::speculateStores,
          &C::loadsStallOnStoreConflict, &C::oneCycleLoads,
          &C::perfectDCache, &C::perfectICache, &C::agiOrganization,
          &C::pred);
    }
};

// Tripwire: PipelineConfig::fields() above must list every field, or
// configFingerprint() misses it and a checkpoint restore, a live-point
// farm or a cached result would silently answer for a *different*
// machine. If the struct grows (or shrinks) this assertion fails. The
// byte count is for the one supported ABI (LP64 x86-64/AArch64 Linux,
// which is what CI builds); other ABIs skip the check rather than pin
// a second number.
#if defined(__linux__) && defined(__LP64__)
static_assert(sizeof(PipelineConfig) == 220,
              "PipelineConfig changed size: list the new field in "
              "PipelineConfig::fields() (cpu/pipeline.hh) and update this "
              "tripwire");
#endif

/**
 * Counters produced by one pipeline run, one X-macro entry each in
 * wire order (checkpoint and request codec): X(type, member, merge,
 * group, key, description), see util/fields.hh.
 *
 * Stride-sourced speculation is a subset of loadsSpeculated /
 * storesSpeculated (the shared speculative-access path); recovery
 * cycles count the MEM-stage replay each mispredict or stale memoized
 * way costs; way-memo counters are loads-only. The stall* counters
 * attribute each cycle in which the *first* issue slot could not issue
 * to one cause (in-order head blocking makes the head's reason the
 * cycle's reason); cycles with at least one issue are not counted.
 */
#define FACSIM_PIPE_STATS(X)                                                \
    X(uint64_t, cycles, Sum, "", "cycles", "simulated cycles")              \
    X(uint64_t, insts, Sum, "", "insts", "instructions issued")             \
    X(uint64_t, loads, Sum, "", "loads", "load instructions")               \
    X(uint64_t, stores, Sum, "", "stores", "store instructions")            \
    X(uint64_t, icacheAccesses, Sum, "icache", "accesses",                  \
      "I-cache block accesses")                                             \
    X(uint64_t, icacheMisses, Sum, "icache", "misses", "I-cache misses")    \
    X(uint64_t, dcacheAccesses, Sum, "dcache", "accesses",                  \
      "D-cache accesses (ports consumed)")                                  \
    X(uint64_t, dcacheMisses, Sum, "dcache", "misses",                      \
      "D-cache (L1) misses")                                                \
    X(uint64_t, btbLookups, Sum, "btb", "lookups", "BTB predictions made")  \
    X(uint64_t, btbMispredicts, Sum, "btb", "mispredicts",                  \
      "control mispredictions")                                             \
    X(uint64_t, loadsSpeculated, Sum, "fac", "loads_speculated",            \
      "loads that accessed the cache speculatively in EX")                  \
    X(uint64_t, loadSpecFailures, Sum, "fac", "load_spec_failures",         \
      "speculative loads whose FAC verify failed")                          \
    X(uint64_t, storesSpeculated, Sum, "fac", "stores_speculated",          \
      "stores entered speculatively into the buffer")                       \
    X(uint64_t, storeSpecFailures, Sum, "fac", "store_spec_failures",       \
      "speculative stores whose FAC verify failed")                         \
    X(uint64_t, extraAccesses, Sum, "fac", "extra_accesses",                \
      "wasted cache accesses from mispredictions (Table 6)")                \
    X(uint64_t, storeBufferFullStalls, Sum, "store_buffer", "full_stalls",  \
      "issue stalls with the buffer full")                                  \
    X(uint64_t, stallFetch, Sum, "stall", "fetch",                          \
      "cycles stalled with no fetched inst ready")                          \
    X(uint64_t, stallData, Sum, "stall", "data",                            \
      "cycles stalled on operands / WAW")                                   \
    X(uint64_t, stallStructural, Sum, "stall", "structural",                \
      "cycles stalled on a unit or cache port")                             \
    X(uint64_t, stallStoreBuffer, Sum, "stall", "store_buffer",             \
      "cycles stalled on the store buffer")                                 \
    X(uint64_t, strideSpeculated, Sum, "pred", "stride_speculated",         \
      "accesses speculated from the stride table")                          \
    X(uint64_t, strideSpecFailures, Sum, "pred", "stride_spec_failures",    \
      "stride-sourced speculations whose verify failed")                    \
    X(uint64_t, predRecoveryCycles, Sum, "pred", "recovery_cycles",         \
      "MEM-replay cycles spent recovering mispredictions")                  \
    X(uint64_t, wayMemoTagReadsSaved, Sum, "pred",                          \
      "waymemo_tag_reads_saved",                                            \
      "L1 tag reads skipped via a fresh memoized way")                      \
    X(uint64_t, wayMemoStale, Sum, "pred", "waymemo_stale",                 \
      "memoized ways caught stale by the late verify")

struct PipeStats
{
    FACSIM_STATS_FIELDS(PipeStats, FACSIM_PIPE_STATS)

    bool operator==(const PipeStats &) const = default;

    double ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }
    double icacheMissRatio() const
    {
        return icacheAccesses
            ? static_cast<double>(icacheMisses) / icacheAccesses : 0.0;
    }
    double dcacheMissRatio() const
    {
        return dcacheAccesses
            ? static_cast<double>(dcacheMisses) / dcacheAccesses : 0.0;
    }
    /** Table 6 metric: extra accesses as a fraction of references. */
    double bandwidthOverhead() const
    {
        uint64_t refs = loads + stores;
        return refs ? static_cast<double>(extraAccesses) / refs : 0.0;
    }
    /** Guarded: stride mispredicts over stride-sourced attempts. */
    double strideFailRate() const
    {
        return strideSpeculated
            ? static_cast<double>(strideSpecFailures) / strideSpeculated
            : 0.0;
    }
    /** Guarded: all mispredicts over all speculative attempts. */
    double predFailRate() const
    {
        uint64_t attempts = loadsSpeculated + storesSpeculated;
        return attempts
            ? static_cast<double>(loadSpecFailures + storeSpecFailures) /
                  attempts
            : 0.0;
    }
};

/** Trace-driven superscalar timing simulator. */
class Pipeline
{
  public:
    /**
     * @param config microarchitecture parameters.
     * @param emu functional CPU supplying the dynamic stream (not owned;
     *        must be freshly constructed/positioned at the program start).
     */
    Pipeline(const PipelineConfig &config, Emulator &emu);
    ~Pipeline();

    /**
     * Simulate until the program halts (or @p max_insts issue).
     * Resumable: calling run() again continues from where the previous
     * call stopped.
     * @return the accumulated statistics (also via stats()).
     */
    PipeStats run(uint64_t max_insts = 0);

    /**
     * Sampled-simulation fast-forward: consume up to @p n instructions
     * from the functional emulator with *functional warming* — I-cache,
     * BTB and the data hierarchy (D-cache tags, L2, TLB) observe the
     * stream through their counter-free warm() interfaces, so the
     * large-structure state stays accurate across skipped intervals while
     * measured-window statistics stay unpolluted. The cycle counter
     * does not advance. If the program's HALT is consumed here the
     * pipeline is marked done.
     *
     * @return instructions actually consumed (< n at end of trace).
     */
    uint64_t fastForward(uint64_t n);

    /**
     * Drain the in-flight state after a measurement window: issue
     * everything already fetched, retire the store buffer and apply
     * pending store patches (fetch inhibited), then advance the clock
     * past every busy resource (scoreboards, functional units, MSHR
     * fills, writeback drains, the DRAM channel). On return the
     * machine is quiescent: the next measurement window starts with
     * empty queues and no timing state leaking across the gap.
     */
    void drain();

    /** True once the program's HALT has been consumed. */
    bool done() const { return halted; }

    /** Current simulation cycle. */
    uint64_t currentCycle() const { return cycle; }

    /** Instructions consumed by fastForward() (not in stats().insts). */
    uint64_t fastForwardedInsts() const { return ffInsts; }

    /** The configuration this pipeline was built with. */
    const PipelineConfig &config() const { return cfg; }

    /** Statistics of the last/ongoing run. */
    const PipeStats &stats() const { return st; }

    /**
     * Saved state, the complete timing state: statistics, clocks, the
     * fetch buffer and pending store patches, scoreboards, functional
     * units, read-port reservations, I-cache/BTB/store-buffer state,
     * the whole data hierarchy and the predictor tables. All in-flight
     * completion cycles are stored as absolute cycle numbers; the cycle
     * counter itself is saved, so restore into a pipeline of the same
     * config continues bit-identically with no drain needed. The
     * Emulator/Memory are saved separately by the owner.
     */
    template <class V>
    static void
    fields(V &&v)
    {
        using P = Pipeline;
        v(&P::st, &P::cycle, &P::fetchReadyCycle, &P::awaitingRedirect,
          &P::traceDone, &P::halted, &P::seqCounter, &P::dynSeq_,
          &P::ffInsts, &P::lastProgressCycle, &P::lastProgressInsts,
          &P::lastMispredictCycle, &P::lastMispredictWasLoad,
          ser::Queue{"fetch ring", &P::fbuf,
                     [](const P &p) { return p.cfg.fetchBufferSize; }},
          ser::Queue{"store patches", &P::patches,
                     [](const P &p) { return p.cfg.storeBufferEntries; }},
          ser::First{&P::ready, noSlot},
          ser::Table{"functional units", &P::fuFree}, &P::readPorts,
          &P::tagReads, &P::icache, &P::dmem, &P::btb, &P::sbuf,
          &P::predictor, ser::OnRestore{&P::rebindFetched});
    }

    /**
     * Serialize only the functionally-warmed large structures — the
     * I-cache, the data hierarchy (D-cache tags, L2, TLB) and the BTB.
     * This is the live-point library payload (sim/lvpt.hh): it is valid
     * only at a quiescent point with no detailed cycles in flight
     * (fresh pipeline or post-drain(), empty fetch buffer and store
     * buffer), which library creation guarantees by only ever calling
     * fastForward(). Statistics, clocks and in-flight state are NOT
     * included; a restore target must be a freshly constructed pipeline
     * with matching structure geometry (see warmStateFingerprint()).
     */
    void saveWarmState(ser::Writer &w) const;

    /** Restore structures saved by saveWarmState (fresh pipeline). */
    void loadWarmState(ser::Reader &r);

    /** Per-issue observer event: the record traces and the ring keep. */
    using IssueEvent = obs::IssueEvent;

    /**
     * Install an observer invoked at every instruction issue — the hook
     * behind pipeline visualisation and the structural property tests.
     */
    void
    onIssue(std::function<void(const IssueEvent &)> fn)
    {
        issueHook = std::move(fn);
    }

    /**
     * Install an observer invoked when a store retires from the store
     * buffer into the data cache, with its sequence number (dynamic
     * store index, from 0) and the address written. Used by the
     * differential co-simulation to check FIFO retirement order and
     * that patched (mispredicted) addresses reached the cache.
     */
    void
    onStoreRetire(std::function<void(uint64_t, uint32_t)> fn)
    {
        storeRetireHook = std::move(fn);
    }

    /**
     * Attach a per-instruction lifecycle trace sink (nullptr detaches;
     * not owned — must outlive the run). Only dynamic instructions in
     * [@p start, @p start + @p count) are reported. With no observer
     * attached the pipeline makes one test per issued instruction.
     * Trace/ring progress is not checkpointed: a restored run restarts
     * its dynamic-sequence numbering from the checkpoint's counter but
     * needs its sink re-attached.
     */
    void
    setTrace(obs::TraceSink *sink, uint64_t start = 0,
             uint64_t count = UINT64_MAX)
    {
        trace_ = sink;
        traceStart_ = start;
        traceCount_ = count;
    }

    /**
     * Retain the last @p capacity issued instructions in a history ring
     * and install this thread's panic-context hook, so panics (and the
     * co-simulation's divergence reports) carry the pipeline history.
     */
    void enableHistoryRing(size_t capacity);

    /** The history ring, or nullptr when disabled. */
    const obs::RetireRing *historyRing() const { return ring_.get(); }

    /** Fetched instructions waiting to issue (observer access). */
    unsigned fetchBuffered() const { return fbuf.count; }

    /** The store buffer (observer access for diagnostics/co-sim). */
    const StoreBuffer &storeBuffer() const { return sbuf; }

    /** Per-level hierarchy counters (exported with timing results). */
    HierarchyStats hierarchyStats() const { return dmem.snapshot(); }

  private:
    // Unified scoreboard: the cycle each register's pending write
    // lands. Integer registers, FP registers, the FP condition code,
    // then the sentinel — never written, so always ready.
    static constexpr uint8_t fpSlot0 = numIntRegs;
    static constexpr uint8_t fpccSlot = numIntRegs + numFpRegs;
    static constexpr uint8_t noSlot = fpccSlot + 1;

    /** What the issue stage does with an instruction. */
    enum class Kind : uint8_t
    {
        Unbound, Nop, Halt, Load, Store, Control, Alu
    };

    /**
     * Issue-side facts of one instruction: bound once per static
     * instruction (boundFor()), copied into each FetchedInst at fetch,
     * and re-derived from the ExecRecord on restore, so checkpoints do
     * not carry it. Every slot names a scoreboard entry; unused ones
     * name noSlot. An instruction may issue once every source is ready
     * and every destination has no write pending: readyAt() <= cycle.
     */
    struct Timing
    {
        uint8_t addr[2];  ///< address operands (AGI: due a cycle early)
        uint8_t src[2];   ///< other sources: integer, FP or fpcc
        uint8_t dst;      ///< integer or FP result register
        uint8_t base;     ///< post-increment base, written at issue+1
        uint8_t cc;       ///< fpcc definition (FP compares)
        Kind kind;
        uint8_t fu;       ///< functional-unit class
        uint8_t lat;      ///< result latency (1 except for ALU/FP ops)
        uint8_t busy;     ///< cycles the unit stays occupied
    };

    /** A fetched instruction waiting to issue. */
    struct FetchedInst
    {
        ExecRecord rec;
        uint64_t readyCycle = 0;   ///< earliest issue cycle
        uint64_t fetchCycle = 0;   ///< cycle the fetch happened (traces)
        Timing t;                  ///< not saved: rebindFetched()
        bool ctlMispredicted = false;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&FetchedInst::rec, &FetchedInst::readyCycle,
              &FetchedInst::fetchCycle, &FetchedInst::ctlMispredicted);
        }
    };

    /**
     * The fetch buffer: a ring of the smallest power of two holding
     * cfg.fetchBufferSize entries; emu.step() writes into it in place.
     * Entry i is the i-th oldest of the count buffered.
     */
    struct FetchRing
    {
        std::array<FetchedInst, PipelineConfig::fetchBufferCap> slot;
        unsigned mask = 0;
        unsigned head = 0;
        unsigned count = 0;

        FetchedInst &operator[](size_t i) { return slot[(head + i) & mask]; }
        const FetchedInst &
        operator[](size_t i) const
        {
            return slot[(head + i) & mask];
        }
        size_t size() const { return count; }
        /** Restore: @p n entries, the oldest in slot 0. */
        void
        resize(size_t n)
        {
            head = 0;
            count = static_cast<unsigned>(n);
        }
        void
        pop()
        {
            head = (head + 1) & mask;
            --count;
        }
    };

    /** Deferred store-buffer address patch. */
    struct StorePatch
    {
        uint64_t applyCycle;
        uint64_t seq;
        uint32_t addr;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&StorePatch::applyCycle, &StorePatch::seq, &StorePatch::addr);
        }
    };

    /** Why the head of the fetch buffer failed to issue. */
    enum class StallReason
    {
        None, Fetch, Data, Structural, StoreBuffer
    };

    // Simulate one cycle (the body of run()); allow_fetch=false is the
    // drain mode used at sampling window boundaries. True when nothing
    // issued because the head waits on an operand or a WAW hazard.
    bool stepCycle(bool allow_fetch);
    // After a data-stalled cycle: jump the clock over the cycles that
    // provably repeat it (see docs/INTERNALS.md "Idle-cycle skip").
    void skipDataStall(bool allow_fetch);
    // Fetch one group into the fetch buffer; advances the trace.
    void fetchGroup();
    // Try to issue the head of the fetch buffer; true on success.
    bool tryIssue(unsigned &loads_this_cycle, unsigned &stores_this_cycle,
                  bool &store_forced_retire);

    // The speculative access every memory op shares (Section 5.5).
    // May a load (@p load) or store access the cache in EX this cycle?
    bool maySpeculate(bool load) const;
    // Predict and verify its address; a failed verify recovers.
    PredResult speculate(const ExecRecord &rec, bool load);
    // Charge the MEM-stage replay of a failed verify or a stale
    // memoized way, and arm the post-mispredict issue rule.
    void recover(bool load);

    StallReason lastStall = StallReason::None;
    // Issue-side helpers.
    Timing bind(const Inst &in) const;
    /**
     * Restore (fields()): bind the fetched records' timing again, after
     * checking each is the program's instruction at its PC.
     */
    void rebindFetched(ser::TryReader &r);
    /** The record of the static instruction at @p rec.pc, bound once. */
    const Timing &
    boundFor(const ExecRecord &rec)
    {
        // Text never changes under the emulator, so a PC's record is
        // derived on its first fetch and reused for every later one.
        uint32_t idx = (rec.pc - Program::textBase) >> 2;
        if (idx >= bound.size())
            bound.resize(idx + 1);
        Timing &t = bound[idx];
        if (t.kind == Kind::Unbound)
            t = bind(rec.inst);
        return t;
    }
    uint64_t
    readyAt(const Timing &t) const
    {
        uint64_t a = std::max(ready[t.addr[0]], ready[t.addr[1]]);
        // An address operand that has ever been written is due
        // addrSlack cycles before its consumer issues.
        if (a)
            a += addrSlack;
        return std::max({a, ready[t.src[0]], ready[t.src[1]], ready[t.dst],
                         ready[t.base], ready[t.cc]});
    }
    void
    setReady(uint8_t slot, uint64_t t)
    {
        if (slot != noSlot)
            ready[slot] = t;
    }
    /** Next-free cycle of a free unit of class @p cls, or null. */
    uint64_t *
    freeUnit(unsigned cls)
    {
        for (uint64_t &free_at : fuFree[cls])
            if (free_at <= cycle)
                return &free_at;
        return nullptr;
    }

    // Data-cache access at a given cycle; returns the completion cycle
    // plus L1-hit and service-level attribution.
    MemResult dcacheReadAt(uint64_t t, uint32_t addr);
    // Port-usage ring helpers.
    unsigned &readPortsAt(uint64_t t) { return readPorts[t % portWindow]; }
    unsigned &tagReadsAt(uint64_t t) { return tagReads[t % portWindow]; }

    // Observability slow path: number @p ev and hand it to the ring,
    // the trace window and the hook. Called only when one is attached.
    void notifyIssue(IssueEvent ev);
    static std::string panicHistoryThunk(void *self);

    std::function<void(const IssueEvent &)> issueHook;
    std::function<void(uint64_t, uint32_t)> storeRetireHook;

    // Observability state (all inert unless explicitly enabled).
    obs::TraceSink *trace_ = nullptr;
    uint64_t traceStart_ = 0;
    uint64_t traceCount_ = 0;
    std::unique_ptr<obs::RetireRing> ring_;
    /** Dynamic index of the next issued instruction (trace/ring seq). */
    uint64_t dynSeq_ = 0;

    PipelineConfig cfg;
    Emulator &emu;
    Cache icache;
    MemHierarchy dmem;
    Btb btb;
    StoreBuffer sbuf;
    LoadPredictor predictor;
    PipeStats st;

    uint64_t cycle = 0;
    uint64_t fetchReadyCycle = 0;
    bool awaitingRedirect = false;
    bool traceDone = false;
    bool halted = false;
    uint64_t seqCounter = 0;
    /** Instructions consumed by fastForward (excluded from st.insts). */
    uint64_t ffInsts = 0;

    // Deadlock watchdog (no issue for deadlockCycles => panic).
    static constexpr uint64_t deadlockCycles = 100000;
    uint64_t lastProgressCycle = 0;
    uint64_t lastProgressInsts = 0;

    FetchRing fbuf;
    std::vector<StorePatch> patches;

    std::array<uint64_t, noSlot + 1> ready{};
    /** Timing records by static instruction index (boundFor()). */
    std::vector<Timing> bound;
    /** AGI address-use hazard: address operands are due a cycle early. */
    uint64_t addrSlack = 0;

    // Functional units: next-free cycle per unit, by class.
    static constexpr unsigned fuIntAlu = 0;
    static constexpr unsigned fuMem = 1;
    static constexpr unsigned fuFpAdd = 2;
    static constexpr unsigned fuIntMulDiv = 3;
    static constexpr unsigned fuFpMulDiv = 4;
    static constexpr unsigned numFuClasses = 5;
    std::array<std::vector<uint64_t>, numFuClasses> fuFree;

    // Read-port usage for a short window of cycles, plus the parallel
    // tag-read count: every load port use reads the L1 tag array too,
    // *except* a fresh memoized way. Store-buffer retirement keys off
    // the tag reads (identical to read ports when way memo is off).
    static constexpr unsigned portWindow = 8;
    std::array<unsigned, portWindow> readPorts{};
    std::array<unsigned, portWindow> tagReads{};

    // Section 5.5 post-misprediction issue rule.
    uint64_t lastMispredictCycle = UINT64_MAX - 8;
    bool lastMispredictWasLoad = false;
};

} // namespace facsim

#endif // FACSIM_CPU_PIPELINE_HH
