#include "obs/prof.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.hh"
#include "util/logging.hh"

namespace facsim::obs
{

const char *
profPhaseName(ProfPhase p)
{
    switch (p) {
      case ProfPhase::BlockTranslate: return "translate";
      case ProfPhase::Warmup: return "warmup";
      case ProfPhase::DetailedWindow: return "detail";
      case ProfPhase::Drain: return "drain";
      case ProfPhase::CacheSave: return "cache_save";
      case ProfPhase::CacheLoad: return "cache_load";
      case ProfPhase::Encode: return "encode";
      case ProfPhase::NumPhases: break;
    }
    panic("profPhaseName: bad phase %u", static_cast<unsigned>(p));
}

bool
profCompiledIn()
{
    return FACSIM_PROF_ON != 0;
}

namespace
{

/** One thread's accumulators; its own mutex keeps snapshots coherent
 *  against the (uncontended) owner without a global lock per scope. */
struct Block
{
    std::mutex mu;
    DistData acc[numProfPhases];
};

/** Registration list + the tally of exited threads. Lock order:
 *  g_mu before any Block::mu. */
std::mutex g_mu;
std::vector<std::shared_ptr<Block>> g_blocks;
DistData g_retired[numProfPhases];

/** Merges the thread's block into g_retired when the thread exits, so
 *  a long-lived daemon does not accumulate one Block per ephemeral
 *  Runner worker forever. */
struct TlsHolder
{
    std::shared_ptr<Block> block;

    ~TlsHolder()
    {
        if (!block)
            return;
        std::lock_guard<std::mutex> lk(g_mu);
        {
            std::lock_guard<std::mutex> blk(block->mu);
            for (unsigned i = 0; i < numProfPhases; ++i)
                g_retired[i].merge(block->acc[i]);
        }
        g_blocks.erase(
            std::remove(g_blocks.begin(), g_blocks.end(), block),
            g_blocks.end());
    }
};

Block &
myBlock()
{
    thread_local TlsHolder holder;
    if (!holder.block) {
        holder.block = std::make_shared<Block>();
        std::lock_guard<std::mutex> lk(g_mu);
        g_blocks.push_back(holder.block);
    }
    return *holder.block;
}

} // namespace

void
profScopeEnd(ProfPhase p, std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    Block &b = myBlock();
    {
        std::lock_guard<std::mutex> lk(b.mu);
        b.acc[static_cast<unsigned>(p)].sample(us);
    }
    if (SpanTracer *tr = spanTracer())
        tr->complete(profPhaseName(p), currentSpanReqId(), t0, t1);
}

DistData
profSnapshot(ProfPhase p)
{
    unsigned i = static_cast<unsigned>(p);
    std::lock_guard<std::mutex> lk(g_mu);
    DistData merged = g_retired[i];
    for (const auto &b : g_blocks) {
        std::lock_guard<std::mutex> blk(b->mu);
        merged.merge(b->acc[i]);
    }
    return merged;
}

void
profReset()
{
    std::lock_guard<std::mutex> lk(g_mu);
    for (auto &a : g_retired)
        a = DistData{};
    for (const auto &b : g_blocks) {
        std::lock_guard<std::mutex> blk(b->mu);
        for (auto &a : b->acc)
            a = DistData{};
    }
}

void
registerProfStats(Group &g)
{
    for (unsigned i = 0; i < numProfPhases; ++i) {
        auto p = static_cast<ProfPhase>(i);
        g.distribution(profPhaseName(p),
                       std::string("host us per ") + profPhaseName(p) +
                           " scope",
                       [p] { return profSnapshot(p); });
    }
}

} // namespace facsim::obs
