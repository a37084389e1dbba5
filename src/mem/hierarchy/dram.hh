/**
 * @file
 * Simple main-memory backend: a fixed access latency plus a bandwidth /
 * occupancy constraint. The channel can start at most one request every
 * `issueInterval` cycles; requests arriving while the channel is busy
 * queue (FCFS) and their queueing delay is accounted separately from
 * the access latency, so the benches can tell "DRAM is slow" apart from
 * "DRAM is saturated". Deliberately not a banked DDR state machine —
 * the hierarchy experiments need a latency/bandwidth knob, not a
 * protocol model.
 */

#ifndef FACSIM_MEM_HIERARCHY_DRAM_HH
#define FACSIM_MEM_HIERARCHY_DRAM_HH

#include <cstdint>

#include "mem/hierarchy/mem_port.hh"
#include "util/fields.hh"

namespace facsim
{

/** Main-memory timing parameters. */
struct DramConfig
{
    /** Request start to data available, in cycles. */
    unsigned latency = 80;
    /** Minimum cycles between request starts (0 = unconstrained). */
    unsigned issueInterval = 8;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&DramConfig::latency, &DramConfig::issueInterval);
    }
};

/** Traffic and contention counters (list: see util/fields.hh). */
#define FACSIM_DRAM_STATS(X)                                                \
    X(uint64_t, reads, Sum, "", "reads", "line fills from memory")          \
    X(uint64_t, writes, Sum, "", "writes", "writebacks to memory")          \
    X(uint64_t, queuedCycles, Sum, "", "queued_cycles",                     \
      "FCFS wait before channel start")                                     \
    X(uint64_t, busyCycles, Sum, "", "busy_cycles", "channel occupancy")

struct DramStats
{
    FACSIM_STATS_FIELDS(DramStats, FACSIM_DRAM_STATS)
};

/** Fixed-latency, bandwidth-limited memory level. */
class DramModel final : public MemLevel
{
  public:
    explicit DramModel(const DramConfig &config) : cfg(config) {}

    LevelResult
    access(uint32_t, bool is_write, uint64_t t) override
    {
        uint64_t start = t < nextFree ? nextFree : t;
        st.queuedCycles += start - t;
        if (cfg.issueInterval) {
            nextFree = start + cfg.issueInterval;
            st.busyCycles += cfg.issueInterval;
        }
        ++(is_write ? st.writes : st.reads);
        return {start + cfg.latency, true, memlevel::Mem};
    }

    void warm(uint32_t, bool) override {}  // no warmable state

    /** The channel's busy-until cycle (bandwidth constraint). */
    uint64_t busyUntil() const override { return nextFree; }

    /** Saved state: channel occupancy (absolute cycle), statistics. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&DramModel::nextFree, &DramModel::st);
    }

    const char *name() const override { return "dram"; }

    const DramStats &stats() const { return st; }
    const DramConfig &config() const { return cfg; }

  private:
    DramConfig cfg;
    uint64_t nextFree = 0;
    DramStats st;
};

} // namespace facsim

#endif // FACSIM_MEM_HIERARCHY_DRAM_HH
