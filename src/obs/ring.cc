#include "obs/ring.hh"

#include "isa/disasm.hh"
#include "util/logging.hh"

namespace facsim::obs
{

RetireRing::RetireRing(size_t capacity)
{
    FACSIM_ASSERT(capacity > 0, "history ring needs a nonzero capacity");
    buf_.resize(capacity);
}

const IssueEvent &
RetireRing::fromNewest(size_t i) const
{
    FACSIM_ASSERT(i < count_, "ring index %zu out of range (%zu entries)",
                  i, count_);
    // next_ points at the slot after the newest entry.
    size_t idx = (next_ + buf_.size() - 1 - i) % buf_.size();
    return buf_[idx];
}

std::string
RetireRing::dump() const
{
    std::string out = strprintf(
        "pipeline history (last %zu of capacity %zu, oldest first):\n",
        count_, buf_.size());
    for (size_t i = count_; i-- > 0;) {
        const IssueEvent &e = fromNewest(i);
        out += strprintf("  seq=%-8llu cy=%-8llu %08x: %-28s",
                         static_cast<unsigned long long>(e.seq),
                         static_cast<unsigned long long>(e.cycle),
                         e.rec.pc, disasm(e.rec.inst, e.rec.pc).c_str());
        if (isMem(e.rec.inst.op)) {
            out += strprintf(" ea=%08x %s", e.rec.effAddr,
                             memLevelName(e.memLevel));
            if (e.speculated)
                out += e.mispredicted ? " fac=mispredict" : " fac=hit";
        }
        out += "\n";
    }
    return out;
}

} // namespace facsim::obs
