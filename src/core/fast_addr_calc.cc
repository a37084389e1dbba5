#include "core/fast_addr_calc.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

std::string
FacConfig::check() const
{
    if (blockBits < 1 || blockBits >= setBits || setBits >= 32)
        return strprintf("FAC fields must satisfy 1 <= B < S < 32 "
                         "(B=%u S=%u)", blockBits, setBits);
    return {};
}

FastAddrCalc::FastAddrCalc(const FacConfig &config)
    : cfg(config)
{
    FACSIM_ASSERT(cfg.blockBits >= 1 && cfg.blockBits < cfg.setBits,
                  "block-offset field must sit below the set field");
    FACSIM_ASSERT(cfg.setBits < 32, "set field must leave room for a tag");
    maskB = maskLow(cfg.blockBits);
    maskIdx = maskLow(cfg.setBits - cfg.blockBits);
    tagShift = cfg.setBits;
}

std::string
FastAddrCalc::failMaskName(uint8_t mask)
{
    if (mask == facFailNone)
        return "None";
    std::string s;
    auto app = [&](const char *name) {
        if (!s.empty())
            s += "|";
        s += name;
    };
    if (mask & facFailOverflow)
        app("Overflow");
    if (mask & facFailGenCarry)
        app("GenCarry");
    if (mask & facFailLargeNegConst)
        app("LargeNegConst");
    if (mask & facFailNegIndexReg)
        app("NegIndexReg");
    if (mask & facFailGenCarryTag)
        app("GenCarryTag");
    return s;
}

} // namespace facsim
