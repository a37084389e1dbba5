#include "isa/inst.hh"

#include "util/logging.hh"

namespace facsim
{

unsigned
memAccessSize(Op op)
{
    const unsigned size = isa::of(op).size;
    if (size == 0)
        panic("memAccessSize on non-memory op %s", opName(op));
    return size;
}

const char *
opName(Op op)
{
    return op < Op::NumOps ? isa::of(op).mnemonic : "???";
}

const char *
regName(unsigned r)
{
    static const char *names[32] = {
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
        "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
        "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
    };
    FACSIM_ASSERT(r < 32, "register index out of range");
    return names[r];
}

} // namespace facsim
