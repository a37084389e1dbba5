/**
 * @file
 * Encoder and decoder, both driven by the FACSIM_ISA rows (isa/inst.hh):
 * a row's shape picks one bit layout per addressing mode, its code,
 * funct and post-increment columns fill the opcode fields, and decode
 * finds the row through a (primary, funct-or-rt) index built from the
 * same rows at compile time.
 */

#include "isa/encoding.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

namespace
{

using isa::Shape;

/** Primary opcode of the register+register (MEMX) format. */
constexpr uint32_t opMemx = 0x1c;

/** What a register slot of the word carries. */
enum class Slot : uint8_t
{
    Zero,  ///< reserved, must be zero
    Rd, Rs, Rt,
    Fn,    ///< the row's fn (REGIMM opcode extension)
};

/** Where the immediate travels. */
enum class Imm : uint8_t
{
    None,
    S16,     ///< bits 15:0, sign-extended
    U16,     ///< bits 15:0, zero-extended
    Shamt,   ///< bits 10:6 (R format)
    Target,  ///< bits 25:0 (J format)
};

/**
 * Bit layout of one shape in one addressing mode: what the rs[25:21],
 * rt[20:16] and rd[15:11] slots carry and where the immediate goes.
 * R-format words end in the row's funct in bits 5:0; the others carry
 * the immediate in the low bits.
 */
struct Layout
{
    Slot s, t, d;
    Imm imm;
    bool rFormat;
};

constexpr Layout
layoutOf(Shape shape, AMode mode)
{
    constexpr Slot Z = Slot::Zero, Rd = Slot::Rd, Rs = Slot::Rs,
                   Rt = Slot::Rt;
    switch (shape) {
      case Shape::None: return {Z, Z, Z, Imm::None, true};
      case Shape::R3: return {Rs, Rt, Rd, Imm::None, true};
      // Shifts put their source in the rt slot.
      case Shape::Shift: return {Z, Rs, Rd, Imm::Shamt, true};
      case Shape::ImmS: return {Rs, Rt, Z, Imm::S16, false};
      case Shape::ImmU: return {Rs, Rt, Z, Imm::U16, false};
      case Shape::Lui: return {Z, Rt, Z, Imm::U16, false};
      case Shape::Mem:
        // MEMX: base in rs, index in the rt slot, data in the rd slot.
        return mode == AMode::RegReg ? Layout{Rs, Rd, Rt, Imm::None, true}
                                     : Layout{Rs, Rt, Z, Imm::S16, false};
      case Shape::Br2: return {Rs, Rt, Z, Imm::S16, false};
      case Shape::Br1: return {Rs, Slot::Fn, Z, Imm::S16, false};
      case Shape::Bc1: return {Z, Z, Z, Imm::S16, false};
      case Shape::J: case Shape::Jal: return {Z, Z, Z, Imm::Target, false};
      case Shape::Jr: return {Rs, Z, Z, Imm::None, true};
      case Shape::Jalr: return {Rs, Z, Rd, Imm::None, true};
      case Shape::Fp3: return {Rs, Rt, Rd, Imm::None, true};
      case Shape::Fp2: return {Rs, Z, Rd, Imm::None, true};
      case Shape::FpCmp: return {Rs, Rt, Z, Imm::None, true};
      case Shape::Mtc1: return {Z, Rt, Rd, Imm::None, true};
      case Shape::Mfc1: return {Rs, Z, Rd, Imm::None, true};
    }
    return {Z, Z, Z, Imm::None, true};
}

/** Primary opcode of @p r in @p mode, or -1 if it has no encoding. */
constexpr int
primaryOf(const isa::OpInfo &r, AMode mode)
{
    if (r.shape != Shape::Mem || mode == AMode::RegConst)
        return r.code;
    return mode == AMode::RegReg ? static_cast<int>(opMemx) : r.pi;
}

/**
 * Decode index: the rows sharing a primary opcode are told apart by the
 * funct (R format), by the rt slot (one-register branches) or not at
 * all. Building it at compile time rejects two rows with one encoding.
 */
struct DecodeIndex
{
    enum class Key : uint8_t { Invalid, Only, Funct, Rt };

    struct Entry
    {
        uint8_t opPlus1 = 0;  ///< 0: no row
        AMode mode = AMode::RegConst;
    };

    Key key[64] = {};
    Entry entry[64][64] = {};
};

constexpr DecodeIndex
buildIndex()
{
    DecodeIndex x;
    for (unsigned o = 0; o < static_cast<unsigned>(Op::NumOps); ++o) {
        // Word 0 is NOP, which decode tests first; the rest of the
        // all-zero R format belongs to SLL.
        if (static_cast<Op>(o) == Op::NOP)
            continue;
        const isa::OpInfo &r = isa::info[o];
        for (AMode m : {AMode::RegConst, AMode::RegReg, AMode::PostInc}) {
            const int primary = primaryOf(r, m);
            if ((m != AMode::RegConst && r.shape != Shape::Mem) ||
                primary < 0)
                continue;
            const Layout l = layoutOf(r.shape, m);
            const auto k = l.rFormat ? DecodeIndex::Key::Funct
                : l.t == Slot::Fn ? DecodeIndex::Key::Rt
                                  : DecodeIndex::Key::Only;
            const unsigned sub = k == DecodeIndex::Key::Only ? 0 : r.fn;
            auto &e = x.entry[primary][sub];
            if (x.key[primary] != DecodeIndex::Key::Invalid &&
                x.key[primary] != k)
                throw "rows sharing a primary opcode disagree on its key";
            if (e.opPlus1 != 0)
                throw "two rows share one encoding";
            x.key[primary] = k;
            e = {static_cast<uint8_t>(o + 1), m};
        }
    }
    return x;
}

constexpr DecodeIndex decodeIndex = buildIndex();

} // anonymous namespace

uint32_t
encode(const Inst &in)
{
    const isa::OpInfo &r = isa::of(in.op);
    const AMode mode = r.shape == Shape::Mem ? in.amode : AMode::RegConst;
    const int primary = primaryOf(r, mode);
    if (primary < 0)
        panic("post-increment not encodable for %s", opName(in.op));
    const Layout l = layoutOf(r.shape, mode);
    if (l.imm != Imm::None) {
        const isa::ImmRange range = isa::immRange(r.shape);
        FACSIM_ASSERT(in.imm >= range.lo && in.imm <= range.hi,
                      "%s immediate %d out of range", opName(in.op),
                      in.imm);
    }

    auto slot = [&](Slot s) -> uint32_t {
        switch (s) {
          case Slot::Rd: return in.rd;
          case Slot::Rs: return in.rs;
          case Slot::Rt: return in.rt;
          case Slot::Fn: return r.fn;
          case Slot::Zero: break;
        }
        return 0;
    };
    const uint32_t imm = static_cast<uint32_t>(in.imm);
    const uint32_t word = (static_cast<uint32_t>(primary) << 26) |
        (slot(l.s) << 21) | (slot(l.t) << 16);
    if (l.rFormat)
        return word | (slot(l.d) << 11) |
            (l.imm == Imm::Shamt ? imm << 6 : 0) | r.fn;
    return word | (l.imm == Imm::Target ? imm : imm & 0xffffu);
}

bool
decode(uint32_t word, Inst &in)
{
    in = Inst{};
    if (word == 0)
        return true;

    const uint32_t primary = bits(word, 31, 26);
    const DecodeIndex::Key k = decodeIndex.key[primary];
    const uint32_t sub = k == DecodeIndex::Key::Funct ? bits(word, 5, 0)
        : k == DecodeIndex::Key::Rt ? bits(word, 20, 16)
                                    : 0;
    const DecodeIndex::Entry e = decodeIndex.entry[primary][sub];
    if (e.opPlus1 == 0)
        return false;
    in.op = static_cast<Op>(e.opPlus1 - 1);
    in.amode = e.mode;

    const Layout l = layoutOf(isa::of(in.op).shape, e.mode);
    auto take = [&](Slot s, uint32_t v) {
        if (s == Slot::Rd)
            in.rd = static_cast<uint8_t>(v);
        else if (s == Slot::Rs)
            in.rs = static_cast<uint8_t>(v);
        else if (s == Slot::Rt)
            in.rt = static_cast<uint8_t>(v);
    };
    take(l.s, bits(word, 25, 21));
    take(l.t, bits(word, 20, 16));
    if (l.rFormat)
        take(l.d, bits(word, 15, 11));
    switch (l.imm) {
      case Imm::S16:
        in.imm = sext(word & 0xffffu, 16);
        break;
      case Imm::U16:
        in.imm = static_cast<int32_t>(word & 0xffffu);
        break;
      case Imm::Shamt:
        in.imm = static_cast<int32_t>(bits(word, 10, 6));
        break;
      case Imm::Target:
        in.imm = static_cast<int32_t>(bits(word, 25, 0));
        break;
      case Imm::None:
        break;
    }
    // Reserved fields must be zero: a word decodes only if it is the
    // encoding of what it decodes to.
    return encode(in) == word;
}

} // namespace facsim
