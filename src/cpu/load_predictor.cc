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

LoadPredictor::LoadPredictor(bool fac_enabled, const FacConfig &fc,
                             const PredictorConfig &pc)
    : facEnabled_(fac_enabled), cfg_(pc), fac_(fc), stride_(pc),
      wayMemo_(pc)
{
    cfg_.validate();
}

} // namespace facsim
