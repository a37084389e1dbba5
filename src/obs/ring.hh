/**
 * @file
 * Crash-dump history ring: the last N issued instructions, retained as
 * the pipeline's IssueEvents (one struct copy per instruction, no
 * formatting, no allocation after construction) and disassembled only
 * when a dump is actually requested — by panic() via the thread-local
 * panic-context hook, or by the co-simulation's divergence reporter.
 * Fuzz failures and deadlock panics thereby arrive with their pipeline
 * history attached.
 */

#ifndef FACSIM_OBS_RING_HH
#define FACSIM_OBS_RING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace facsim::obs
{

/** Fixed-capacity overwrite-oldest history of issued instructions. */
class RetireRing
{
  public:
    explicit RetireRing(size_t capacity);

    void
    push(const IssueEvent &e)
    {
        buf_[next_] = e;
        next_ = (next_ + 1) % buf_.size();
        if (count_ < buf_.size())
            ++count_;
    }

    size_t size() const { return count_; }
    size_t capacity() const { return buf_.size(); }
    bool empty() const { return count_ == 0; }

    /** Entry @p i back from the newest (0 = most recent). */
    const IssueEvent &fromNewest(size_t i) const;

    /**
     * Multi-line disassembled dump, oldest first — the text appended to
     * panic output and divergence reports.
     */
    std::string dump() const;

  private:
    std::vector<IssueEvent> buf_;
    size_t next_ = 0;   ///< slot the next push writes
    size_t count_ = 0;  ///< valid entries
};

} // namespace facsim::obs

#endif // FACSIM_OBS_RING_HH
