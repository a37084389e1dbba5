#include "cpu/load_predictor.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

std::string
PredictorConfig::check(const char *what) const
{
    if (!strideEntries || !isPow2(strideEntries))
        return strprintf("%s stride table entries must be a positive "
                         "power of two (got %u)", what, strideEntries);
    if (!wayMemoEntries || !isPow2(wayMemoEntries))
        return strprintf("%s way-memo table entries must be a positive "
                         "power of two (got %u)", what, wayMemoEntries);
    if (strideConfMax < 1)
        return strprintf("%s stride confidence ceiling must be at "
                         "least 1", what);
    if (strideConfThreshold < 1 || strideConfThreshold > strideConfMax)
        return strprintf("%s stride confidence threshold (%u) must lie "
                         "in [1, %u]", what, strideConfThreshold,
                         strideConfMax);
    return {};
}

void
PredictorConfig::validate(const char *what) const
{
    if (std::string err = check(what); !err.empty())
        panic("%s", err.c_str());
}

StridePredictor::StridePredictor(const PredictorConfig &cfg)
    : size_(cfg.strideEntries), confMax_(cfg.strideConfMax),
      confThreshold_(cfg.strideConfThreshold)
{
    cfg.validate();
    table_.resize(size_);
}

void
StridePredictor::train(uint32_t pc, uint32_t eff_addr)
{
    Entry &e = table_[indexOf(pc)];
    uint32_t tag = pc >> 2;
    if (!e.valid || e.tag != tag) {
        e = Entry{};
        e.tag = tag;
        e.lastAddr = eff_addr;
        e.valid = true;
        return;
    }
    int32_t stride = static_cast<int32_t>(eff_addr - e.lastAddr);
    if (stride == e.stride) {
        if (e.conf < confMax_)
            ++e.conf;
    } else {
        // Saturating-down on a broken pattern; only a fully drained
        // entry retrains its stride, so one outlier in a steady stream
        // does not flush the pattern.
        if (e.conf)
            --e.conf;
        if (!e.conf)
            e.stride = stride;
    }
    e.lastAddr = eff_addr;
}

void
StridePredictor::reset()
{
    for (Entry &e : table_)
        e = Entry{};
}

void
StridePredictor::saveState(ser::Writer &w) const
{
    w.u64(table_.size());
    for (const Entry &e : table_) {
        w.u32(e.tag);
        w.u32(e.lastAddr);
        w.u32(static_cast<uint32_t>(e.stride));
        w.u32(e.conf);
        w.b(e.valid);
    }
}

void
StridePredictor::loadState(ser::Reader &r)
{
    uint64_t n = r.u64();
    FACSIM_ASSERT(n == table_.size(),
                  "checkpoint stride table has %llu entries, this "
                  "config has %zu",
                  static_cast<unsigned long long>(n), table_.size());
    for (Entry &e : table_) {
        e.tag = r.u32();
        e.lastAddr = r.u32();
        e.stride = static_cast<int32_t>(r.u32());
        e.conf = r.u32();
        e.valid = r.b();
    }
}

WayMemo::WayMemo(const PredictorConfig &cfg)
    : size_(cfg.wayMemoEntries)
{
    cfg.validate();
    table_.resize(size_);
}

void
WayMemo::train(uint32_t pc, uint32_t block_addr, uint32_t way)
{
    Entry &e = table_[indexOf(pc)];
    e.tag = pc >> 2;
    e.blockAddr = block_addr;
    e.way = way;
    e.valid = true;
}

void
WayMemo::reset()
{
    for (Entry &e : table_)
        e = Entry{};
}

void
WayMemo::saveState(ser::Writer &w) const
{
    w.u64(table_.size());
    for (const Entry &e : table_) {
        w.u32(e.tag);
        w.u32(e.blockAddr);
        w.u32(e.way);
        w.b(e.valid);
    }
}

void
WayMemo::loadState(ser::Reader &r)
{
    uint64_t n = r.u64();
    FACSIM_ASSERT(n == table_.size(),
                  "checkpoint way-memo table has %llu entries, this "
                  "config has %zu",
                  static_cast<unsigned long long>(n), table_.size());
    for (Entry &e : table_) {
        e.tag = r.u32();
        e.blockAddr = r.u32();
        e.way = r.u32();
        e.valid = r.b();
    }
}

LoadPredictor::LoadPredictor(bool fac_enabled, const FacConfig &fc,
                             const PredictorConfig &pc)
    : facEnabled_(fac_enabled), cfg_(pc), fac_(fc), stride_(pc),
      wayMemo_(pc)
{
    cfg_.validate();
}

void
LoadPredictor::reset()
{
    stride_.reset();
    wayMemo_.reset();
}

void
LoadPredictor::saveState(ser::Writer &w) const
{
    stride_.saveState(w);
    wayMemo_.saveState(w);
}

void
LoadPredictor::loadState(ser::Reader &r)
{
    stride_.loadState(r);
    wayMemo_.loadState(r);
}

} // namespace facsim
