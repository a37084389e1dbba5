/**
 * @file
 * The contract between the pipeline's MEM stage and the data memory
 * system, and the level-to-level interface a hierarchy is built from.
 *
 * The paper's machine (Table 5) hard-wires a flat 16 KB data cache with
 * a fixed 6-cycle miss penalty; the pipeline only ever needed a hit/miss
 * bool. A multi-level hierarchy cannot be described that way — an access
 * may hit L1, hit an in-flight fill, hit L2, or go to DRAM behind a
 * queue — so the port contract is a *completion cycle*: "present this
 * access at cycle t, receive the cycle its data is available". The
 * pipeline stays in charge of ports, issue rules and speculation; the
 * memory system owns everything below the first tag lookup.
 *
 * `MemHierarchy` (hierarchy.hh) is what the core talks to; `MemLevel`
 * is the level-to-level interface it is composed from (each level
 * forwards its misses to the level below it).
 */

#ifndef FACSIM_MEM_HIERARCHY_MEM_PORT_HH
#define FACSIM_MEM_HIERARCHY_MEM_PORT_HH

#include <cstdint>

namespace facsim
{

/**
 * Hierarchy-level identifiers used for per-access service attribution
 * (pipeline traces, stats): 0 = none (perfect cache), 1 = L1, 2 = L2,
 * 3 = the memory backend (FixedLatencyMem or DRAM).
 */
namespace memlevel
{
constexpr uint8_t None = 0;
constexpr uint8_t L1 = 1;
constexpr uint8_t L2 = 2;
constexpr uint8_t Mem = 3;
} // namespace memlevel

/** Outcome of one data access presented to a memory port. */
struct MemResult
{
    uint64_t doneCycle = 0;  ///< cycle the data is available to the core
    bool l1Hit = true;       ///< the first-level tag lookup hit
    uint8_t level = memlevel::L1;  ///< level that serviced the access
};

/** Outcome of an access serviced by one hierarchy level. */
struct LevelResult
{
    uint64_t doneCycle = 0;  ///< cycle this level can deliver the data
    bool hit = true;         ///< the level's tag lookup hit
    uint8_t level = memlevel::L1;  ///< level that supplied the data
};

/** One level of a memory hierarchy (a cache level or a backend). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Service a demand access arriving at cycle @p t.
     * @param addr full byte address (levels derive their own block).
     * @param is_write write traffic (writebacks from above / store fills).
     * @param t cycle the request reaches this level.
     */
    virtual LevelResult access(uint32_t addr, bool is_write, uint64_t t) = 0;

    /** Counter-free state warming (see MemHierarchy::warm). */
    virtual void warm(uint32_t addr, bool is_write) = 0;

    /**
     * Latest absolute cycle any in-flight resource of this level (or a
     * level below it) stays busy: MSHR fills, writeback-buffer slots,
     * the DRAM channel. Used by the pipeline's drain (sampling window
     * boundaries) to advance the clock to full quiescence.
     */
    virtual uint64_t busyUntil() const = 0;

    /** Display name ("L2", "dram", ...). */
    virtual const char *name() const = 0;
};

/**
 * Fixed-latency, infinite-bandwidth backend — the paper's implicit
 * memory: every miss costs exactly `latency` cycles, misses never queue
 * and writebacks are free. Terminating a hierarchy with this level and
 * no MSHR/writeback modelling reproduces the flat machine bit for bit.
 */
class FixedLatencyMem final : public MemLevel
{
  public:
    explicit FixedLatencyMem(unsigned latency) : lat(latency) {}

    LevelResult
    access(uint32_t, bool, uint64_t t) override
    {
        return {t + lat, true, memlevel::Mem};
    }

    void warm(uint32_t, bool) override {}  // stateless backend
    uint64_t busyUntil() const override { return 0; }
    const char *name() const override { return "mem"; }

  private:
    unsigned lat;
};

} // namespace facsim

#endif // FACSIM_MEM_HIERARCHY_MEM_PORT_HH
