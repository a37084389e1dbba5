#include "verify/fuzz.hh"

#include <algorithm>

#include "isa/disasm.hh"
#include "mem/memory.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace facsim::verify
{
namespace
{

/** The one data buffer every access lands in. */
constexpr uint32_t bufBytes = 0x20000;  // 128 KB, 64-byte aligned

/** Base registers parked at FAC-adversarial positions in the buffer. */
struct BasePark
{
    uint8_t reg;
    uint32_t off;
};
constexpr BasePark kBases[] = {
    {reg::s0, 0x00000},  // aligned buffer start
    {reg::s4, 0x02000},  // power-of-two interior boundary
    {reg::s5, 0x08000},  // half-buffer (negative offsets reach far)
    {reg::s6, 0x04000},  // exactly the 16 KB set-index span
    {reg::s7, 0x01ffc},  // word-aligned, one word below a boundary
    {reg::s3, 61},       // block-edge, byte-aligned only
};
constexpr unsigned kNumBases = 6;

/**
 * Seed of both digest folds (programDigest and the batch fold). It is
 * the FNV-1a offset basis 14695981039346656037 with its last digit
 * dropped: the value every pinned digest in tests/golden/
 * fuzz_digests.txt was computed with. Keep it, or every pin moves.
 */
constexpr uint64_t kDigestSeed = 1469598103934665603ull;

constexpr uint8_t kTemps[6] = {reg::t0, reg::t1, reg::t2,
                               reg::t3, reg::t4, reg::t5};
/** Scratch for materialized register+register indices. */
constexpr uint8_t kIdxReg = reg::t6;

uint8_t tempOf(uint8_t slot) { return kTemps[slot % 6]; }
uint8_t fpOf(uint8_t slot) { return static_cast<uint8_t>(2 + 2 * (slot % 4)); }

/**
 * Pick an effective-address offset for an access of @p sz bytes from
 * the base parked at @p base_off, biased toward the FAC failure
 * boundaries: near-zero offsets, +/- powers of two, the exact set-index
 * span, and block edges. The result keeps the access inside the buffer,
 * aligned to @p sz, and within the signed 16-bit displacement field.
 */
int32_t
genOffset(Rng &rng, uint32_t base_off, unsigned sz)
{
    int64_t ea;
    switch (rng.range(6)) {
      case 0:
        ea = static_cast<int64_t>(rng.range(bufBytes - 8));
        break;
      case 1:
        ea = static_cast<int64_t>(base_off) + rng.between(-64, 64);
        break;
      case 2: {
        unsigned k = 5 + static_cast<unsigned>(rng.range(10));
        int64_t s = rng.chance(0.5) ? 1 : -1;
        ea = static_cast<int64_t>(base_off) + s * (int64_t{1} << k) +
             rng.between(-4, 4);
        break;
      }
      case 3: {
        static const int32_t spans[] = {0x3ffc, 0x4000, 0x4004, 0x7ff8,
                                        0x1c, 0x20, 0x24};
        int32_t sp = spans[rng.range(7)];
        ea = static_cast<int64_t>(base_off) + (rng.chance(0.5) ? sp : -sp);
        break;
      }
      case 4:
        // Block-edge cluster: a 32-byte boundary plus a small residue.
        ea = static_cast<int64_t>(rng.range(bufBytes / 32) * 32) +
             static_cast<int64_t>(rng.range(4)) * sz;
        break;
      default:
        ea = rng.between(0, 96);  // start-of-buffer cluster
        break;
    }
    const int64_t lo = base_off > 0x7ff8 ? base_off - 0x7ff8 : 0;
    const int64_t hi = std::min<int64_t>(bufBytes - 8,
                                         static_cast<int64_t>(base_off) +
                                             0x7ff8);
    ea = std::clamp(ea, lo, hi);
    ea &= ~static_cast<int64_t>(sz - 1);
    return static_cast<int32_t>(ea - base_off);
}

/** Like genOffset but for an index-register value (no imm16 limit). */
int32_t
genIndex(Rng &rng, uint32_t base_off, unsigned sz)
{
    int64_t ea;
    switch (rng.range(4)) {
      case 0:
        ea = static_cast<int64_t>(rng.range(bufBytes - 8));
        break;
      case 1:
        ea = static_cast<int64_t>(base_off) + rng.between(-96, 96);
        break;
      case 2: {
        unsigned k = 5 + static_cast<unsigned>(rng.range(12));
        int64_t s = rng.chance(0.5) ? 1 : -1;
        ea = static_cast<int64_t>(base_off) + s * (int64_t{1} << k);
        break;
      }
      default:
        ea = rng.between(0, 128);
        break;
    }
    ea = std::clamp<int64_t>(ea, 0, bufBytes - 8);
    ea &= ~static_cast<int64_t>(sz - 1);
    return static_cast<int32_t>(ea - base_off);
}

/** Access sizes for the LoadConst/StoreConst selectors. */
unsigned
loadSize(uint8_t sel)
{
    switch (sel % 5) {
      case 0: case 1: return 1;  // lbu / lb
      case 2: case 3: return 2;  // lhu / lh
      default: return 4;         // lw
    }
}

unsigned
storeSize(uint8_t sel)
{
    switch (sel % 3) {
      case 0: return 1;
      case 1: return 2;
      default: return 4;
    }
}

unsigned
rrSize(uint8_t sel)
{
    switch (sel % 7) {
      case 0: case 1: return 1;  // lbu / lb
      case 2: return 4;          // lw
      case 3: return 1;          // sb
      case 4: return 4;          // sw
      case 5: return 8;          // ldc1
      default: return 8;         // sdc1
    }
}

unsigned
fpMemSize(uint8_t sel)
{
    return (sel % 4) < 2 ? 4 : 8;  // lwc1/swc1 : ldc1/sdc1
}

} // anonymous namespace

uint64_t
splitmix64(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<FuzzItem>
generateItems(Rng &rng, unsigned count)
{
    std::vector<FuzzItem> items;
    items.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        FuzzItem it;
        it.a = static_cast<uint8_t>(rng.range(251));
        it.b = static_cast<uint8_t>(rng.range(251));
        it.c = static_cast<uint8_t>(rng.range(kNumBases));
        it.d = static_cast<uint8_t>(rng.range(251));
        const uint32_t base_off = kBases[it.c].off;

        const uint64_t w = rng.range(100);
        if (w < 10) {
            it.kind = FuzzItem::Kind::AluReg;
        } else if (w < 16) {
            it.kind = FuzzItem::Kind::AluImm;
            it.x = static_cast<int32_t>(rng.range(0x8000));
        } else if (w < 22) {
            it.kind = FuzzItem::Kind::LiConst;
            static const int32_t consts[] = {
                0, 1, -1, 2, 0x7fffffff, INT32_MIN, 0x8000, 0x7ff8,
                0xff, 0x10000, -0x4000, 0x3ffc, 0x4000, -0x7ff8,
            };
            it.x = rng.chance(0.25)
                       ? static_cast<int32_t>(rng.next())
                       : consts[rng.range(14)];
        } else if (w < 38) {
            it.kind = FuzzItem::Kind::LoadConst;
            it.x = genOffset(rng, base_off, loadSize(it.a));
        } else if (w < 50) {
            it.kind = FuzzItem::Kind::StoreConst;
            it.x = genOffset(rng, base_off, storeSize(it.a));
        } else if (w < 58) {
            it.kind = FuzzItem::Kind::MemRR;
            it.x = genIndex(rng, base_off, rrSize(it.a));
        } else if (w < 63) {
            it.kind = FuzzItem::Kind::MemRRMasked;
            // Word-aligned masks; c selects s0 (positive index) or s5
            // (negated index stays in bounds).
            static const int32_t masks[] = {0x0ffc, 0x1ffc, 0x3ffc,
                                            0x3fe0, 0x07fc};
            it.x = masks[rng.range(5)];
            it.c = (it.b & 1) ? 2 : 0;  // negated -> s5, else s0
        } else if (w < 70) {
            it.kind = FuzzItem::Kind::PostInc;
            it.x = 8 * static_cast<int32_t>(1 + rng.range(4)) *
                   (rng.chance(0.5) ? 1 : -1);
        } else if (w < 72) {
            it.kind = FuzzItem::Kind::CursorReset;
        } else if (w < 78) {
            it.kind = FuzzItem::Kind::FpArith;
        } else if (w < 82) {
            it.kind = FuzzItem::Kind::FpMove;
        } else if (w < 84) {
            it.kind = FuzzItem::Kind::FpCmp;
        } else if (w < 89) {
            it.kind = FuzzItem::Kind::FpMemConst;
            it.x = genOffset(rng, base_off, fpMemSize(it.a));
        } else if (w < 95) {
            it.kind = FuzzItem::Kind::Skip;
            it.x = 1 + static_cast<int32_t>(rng.range(4));
        } else if (w < 97) {
            it.kind = FuzzItem::Kind::StoreBurst;
            it.x = static_cast<int32_t>(rng.range(0x6000)) & 0x7ffc;
        } else {
            it.kind = FuzzItem::Kind::StoreThenLoad;
            it.x = genOffset(rng, base_off, 4);
        }
        items.push_back(it);
    }
    return items;
}

void
materialize(AsmBuilder &as, const std::vector<FuzzItem> &items)
{
    SymId buf = as.global("fuzzbuf", bufBytes, 64, false);
    for (const BasePark &bp : kBases)
        as.la(bp.reg, buf, static_cast<int32_t>(bp.off));
    as.la(reg::s2, buf, 0x10000);  // roving post-increment cursor

    // Deterministic temp seeds; LiConst items re-randomize them.
    static const int32_t seeds[6] = {0x12345, -7, 0x7ffc,
                                     0x0badf00d, 3, 0x8000};
    for (unsigned i = 0; i < 6; ++i)
        as.li(kTemps[i], seeds[i]);
    for (uint8_t slot = 0; slot < 4; ++slot) {
        as.mtc1(fpOf(slot), kTemps[slot]);
        as.cvtDW(fpOf(slot), fpOf(slot));
    }

    bool skip_active = false;
    int skip_left = 0;
    LabelId skip_label = 0;

    for (const FuzzItem &it : items) {
        const uint8_t base = kBases[it.c % kNumBases].reg;
        switch (it.kind) {
          case FuzzItem::Kind::AluReg: {
            const uint8_t rd = tempOf(it.b), r1 = tempOf(it.c),
                          r2 = tempOf(it.d);
            switch (it.a % 12) {
              case 0: as.add(rd, r1, r2); break;
              case 1: as.sub(rd, r1, r2); break;
              case 2: as.and_(rd, r1, r2); break;
              case 3: as.or_(rd, r1, r2); break;
              case 4: as.xor_(rd, r1, r2); break;
              case 5: as.nor(rd, r1, r2); break;
              case 6: as.slt(rd, r1, r2); break;
              case 7: as.sltu(rd, r1, r2); break;
              case 8: as.mul(rd, r1, r2); break;
              case 9: as.div(rd, r1, r2); break;
              case 10: as.rem(rd, r1, r2); break;
              default: as.srav(rd, r1, r2); break;
            }
            break;
          }
          case FuzzItem::Kind::AluImm: {
            const uint8_t rt = tempOf(it.b), rs = tempOf(it.d);
            switch (it.a % 5) {
              case 0: as.andi(rt, rs, it.x & 0x7fff); break;
              case 1: as.ori(rt, rs, it.x & 0x7fff); break;
              case 2: as.xori(rt, rs, it.x & 0x7fff); break;
              case 3: as.addi(rt, rs, (it.x & 0x1ff) - 256); break;
              default: as.sll(rt, rs, it.x & 31); break;
            }
            break;
          }
          case FuzzItem::Kind::LiConst:
            as.li(tempOf(it.b), it.x);
            break;
          case FuzzItem::Kind::LoadConst: {
            const uint8_t rt = tempOf(it.b);
            switch (it.a % 5) {
              case 0: as.lbu(rt, it.x, base); break;
              case 1: as.lb(rt, it.x, base); break;
              case 2: as.lhu(rt, it.x, base); break;
              case 3: as.lh(rt, it.x, base); break;
              default: as.lw(rt, it.x, base); break;
            }
            break;
          }
          case FuzzItem::Kind::StoreConst: {
            const uint8_t rt = tempOf(it.b);
            switch (it.a % 3) {
              case 0: as.sb(rt, it.x, base); break;
              case 1: as.sh_(rt, it.x, base); break;
              default: as.sw(rt, it.x, base); break;
            }
            break;
          }
          case FuzzItem::Kind::MemRR:
            as.li(kIdxReg, it.x);
            switch (it.a % 7) {
              case 0: as.lbuRR(tempOf(it.b), base, kIdxReg); break;
              case 1: as.lbRR(tempOf(it.b), base, kIdxReg); break;
              case 2: as.lwRR(tempOf(it.b), base, kIdxReg); break;
              case 3: as.sbRR(tempOf(it.b), base, kIdxReg); break;
              case 4: as.swRR(tempOf(it.b), base, kIdxReg); break;
              case 5: as.ldc1RR(fpOf(it.b), base, kIdxReg); break;
              default: as.sdc1RR(fpOf(it.b), base, kIdxReg); break;
            }
            break;
          case FuzzItem::Kind::MemRRMasked: {
            // Index computed from live temp data: aligned mask, and for
            // the negated variant a base parked high enough that the
            // negative index stays inside the buffer.
            as.andi(kIdxReg, tempOf(it.d), it.x);
            if (it.b & 1)
                as.sub(kIdxReg, reg::zero, kIdxReg);
            if (it.a & 1)
                as.lwRR(tempOf(it.b >> 1), base, kIdxReg);
            else
                as.swRR(tempOf(it.b >> 1), base, kIdxReg);
            break;
          }
          case FuzzItem::Kind::PostInc:
            switch (it.a % 4) {
              case 0: as.lwPost(tempOf(it.b), reg::s2, it.x); break;
              case 1: as.swPost(tempOf(it.b), reg::s2, it.x); break;
              case 2: as.ldc1Post(fpOf(it.b), reg::s2, it.x); break;
              default: as.sdc1Post(fpOf(it.b), reg::s2, it.x); break;
            }
            break;
          case FuzzItem::Kind::CursorReset:
            as.la(reg::s2, buf, 0x10000);
            break;
          case FuzzItem::Kind::FpArith: {
            const uint8_t fd = fpOf(it.b), f1 = fpOf(it.c),
                          f2 = fpOf(it.d);
            switch (it.a % 8) {
              case 0: as.addD(fd, f1, f2); break;
              case 1: as.subD(fd, f1, f2); break;
              case 2: as.mulD(fd, f1, f2); break;
              case 3: as.divD(fd, f1, f2); break;
              case 4: as.sqrtD(fd, f1); break;
              case 5: as.absD(fd, f1); break;
              case 6: as.negD(fd, f1); break;
              default: as.movD(fd, f1); break;
            }
            break;
          }
          case FuzzItem::Kind::FpMove:
            switch (it.a % 4) {
              case 0: as.mtc1(fpOf(it.b), tempOf(it.d)); break;
              case 1: as.mfc1(tempOf(it.d), fpOf(it.b)); break;
              case 2: as.cvtDW(fpOf(it.b), fpOf(it.d)); break;
              default: as.cvtWD(fpOf(it.b), fpOf(it.d)); break;
            }
            break;
          case FuzzItem::Kind::FpCmp:
            switch (it.a % 3) {
              case 0: as.cEqD(fpOf(it.b), fpOf(it.d)); break;
              case 1: as.cLtD(fpOf(it.b), fpOf(it.d)); break;
              default: as.cLeD(fpOf(it.b), fpOf(it.d)); break;
            }
            break;
          case FuzzItem::Kind::FpMemConst:
            switch (it.a % 4) {
              case 0: as.lwc1(fpOf(it.b), it.x, base); break;
              case 1: as.swc1(fpOf(it.b), it.x, base); break;
              case 2: as.ldc1(fpOf(it.b), it.x, base); break;
              default: as.sdc1(fpOf(it.b), it.x, base); break;
            }
            break;
          case FuzzItem::Kind::Skip:
            // One pending skip at a time keeps every subsequence of the
            // descriptor vector well-formed for the shrinker.
            if (!skip_active) {
                skip_label = as.newLabel();
                switch (it.a % 6) {
                  case 0: as.beq(tempOf(it.b), tempOf(it.d), skip_label);
                    break;
                  case 1: as.bne(tempOf(it.b), tempOf(it.d), skip_label);
                    break;
                  case 2: as.blez(tempOf(it.b), skip_label); break;
                  case 3: as.bgez(tempOf(it.b), skip_label); break;
                  case 4: as.bc1t(skip_label); break;
                  default: as.bc1f(skip_label); break;
                }
                skip_active = true;
                skip_left = it.x + 1;  // decremented below, this item too
            }
            break;
          case FuzzItem::Kind::StoreBurst: {
            // More stores back-to-back than the buffer holds: forces
            // full-buffer stalls and forced retirement cycles.
            const unsigned n = 18 + (it.a % 8);
            for (unsigned i = 0; i < n; ++i)
                as.sw(tempOf(static_cast<uint8_t>(it.b + i)),
                      (it.x + 4 * static_cast<int32_t>(i)) & 0x7ffc,
                      reg::s0);
            break;
          }
          case FuzzItem::Kind::StoreThenLoad:
            as.sw(tempOf(it.b), it.x, base);
            as.lw(tempOf(it.d), it.x, base);
            break;
        }

        if (skip_active && --skip_left == 0) {
            as.bind(skip_label);
            skip_active = false;
        }
    }
    if (skip_active)
        as.bind(skip_label);
    as.halt();
}

uint64_t
programDigest(const std::vector<FuzzItem> &items)
{
    Program p;
    AsmBuilder as(p);
    materialize(as, items);
    uint64_t h = kDigestSeed;
    for (uint32_t i = 0; i < p.numInsts(); ++i) {
        const Inst &in = p.inst(i);
        const uint8_t head[5] = {static_cast<uint8_t>(in.op),
                                 static_cast<uint8_t>(in.amode),
                                 in.rd, in.rs, in.rt};
        h = ser::fnv1a(head, sizeof(head), h);
        h = ser::fnv1a(&in.imm, sizeof(in.imm), h);
    }
    return h;
}

std::vector<FuzzConfig>
fuzzConfigMatrix(const std::string &predictor)
{
    std::vector<FuzzConfig> m;
    if (predictor == "fac") {
        // The historical matrix, unchanged so the pinned batch digest
        // for --predictor=fac stays stable.
        m.push_back({"off", baselineConfig(), LinkPolicy{}});
        m.push_back({"hw", facPipelineConfig(32, false, true),
                     LinkPolicy{}});
        LinkPolicy sw;
        sw.alignGlobalPointer = true;
        sw.alignStatics = true;
        m.push_back({"hw+sw", facPipelineConfig(32, false, true), sw});
        m.push_back({"r+r", facPipelineConfig(32, true, true),
                     LinkPolicy{}});
        PipelineConfig disamb = facPipelineConfig(32, true, true);
        disamb.loadsStallOnStoreConflict = true;
        m.push_back({"hw+disamb", disamb, LinkPolicy{}});
        return m;
    }

    m.push_back({"off", baselineConfig(), LinkPolicy{}});
    if (predictor == "none")
        return m;

    PipelineConfig base = predictorPipelineConfig(predictor, 32, false);
    m.push_back({predictor, base, LinkPolicy{}});

    PipelineConfig disamb = base;
    disamb.loadsStallOnStoreConflict = true;
    m.push_back({predictor + "+disamb", disamb, LinkPolicy{}});

    if (base.facEnabled)
        m.push_back({predictor + "+rr",
                     predictorPipelineConfig(predictor, 32, true),
                     LinkPolicy{}});

    if (base.pred.wayMemo) {
        // A 2-way L1 makes distinct blocks collide within a set, so
        // memoized ways go stale under eviction — the adversarial case
        // for the mandatory late verify.
        PipelineConfig assoc2 = base;
        assoc2.dcache.assoc = 2;
        assoc2.fac = facConfigFor(assoc2.dcache, false, true);
        m.push_back({predictor + "+assoc2", assoc2, LinkPolicy{}});
    }
    return m;
}

std::vector<FuzzItem>
ddminItems(const std::vector<FuzzItem> &items,
           const std::function<bool(const std::vector<FuzzItem> &)>
               &still_fails,
           unsigned budget)
{
    std::vector<FuzzItem> cur = items;
    unsigned evals = 0;
    auto fails = [&](const std::vector<FuzzItem> &v) {
        if (v.empty() || evals >= budget)
            return false;
        ++evals;
        return still_fails(v);
    };

    // Phase 1: classic ddmin chunk removal with granularity doubling.
    size_t n = 2;
    while (cur.size() >= 2 && evals < budget) {
        const size_t chunk = (cur.size() + n - 1) / n;
        bool reduced = false;
        for (size_t start = 0; start < cur.size(); start += chunk) {
            std::vector<FuzzItem> cand;
            cand.reserve(cur.size());
            cand.insert(cand.end(), cur.begin(),
                        cur.begin() + static_cast<long>(start));
            const size_t end = std::min(cur.size(), start + chunk);
            cand.insert(cand.end(),
                        cur.begin() + static_cast<long>(end), cur.end());
            if (fails(cand)) {
                cur = std::move(cand);
                n = std::max<size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= cur.size())
                break;
            n = std::min(cur.size(), n * 2);
        }
    }

    // Phase 2: single-removal fixpoint.
    bool changed = true;
    while (changed && evals < budget) {
        changed = false;
        for (size_t i = 0; i < cur.size() && evals < budget; ++i) {
            std::vector<FuzzItem> cand = cur;
            cand.erase(cand.begin() + static_cast<long>(i));
            if (fails(cand)) {
                cur = std::move(cand);
                changed = true;
                break;
            }
        }
    }
    return cur;
}

FuzzCaseOutcome
runFuzzCase(uint64_t case_seed, uint64_t index, const FuzzOptions &opt)
{
    FuzzCaseOutcome out;
    out.index = index;
    out.caseSeed = case_seed;

    Rng rng(case_seed ? case_seed : 1);
    const unsigned span = opt.maxItems >= opt.minItems
                              ? opt.maxItems - opt.minItems + 1 : 1;
    const unsigned count =
        opt.minItems + static_cast<unsigned>(rng.range(span));
    out.items = generateItems(rng, count);
    out.digest = programDigest(out.items);

    for (const FuzzConfig &fc : fuzzConfigMatrix(opt.predictor)) {
        CosimOptions co;
        co.link = fc.link;
        CosimResult res = runCosim(
            [&](AsmBuilder &as) { materialize(as, out.items); }, fc.pipe,
            co);
        out.simInsts += res.stats.insts + res.refInsts;
        if (!res.diverged())
            continue;

        out.diverged = true;
        out.configName = fc.name;
        out.report = res.report;

        if (opt.shrink) {
            out.shrunkItems = ddminItems(
                out.items,
                [&](const std::vector<FuzzItem> &cand) {
                    CosimResult r = runCosim(
                        [&](AsmBuilder &as) { materialize(as, cand); },
                        fc.pipe, co);
                    out.simInsts += r.stats.insts + r.refInsts;
                    return r.diverged();
                },
                opt.shrinkBudget);
            // Re-run the minimal case so the report matches it.
            CosimResult min = runCosim(
                [&](AsmBuilder &as) { materialize(as, out.shrunkItems); },
                fc.pipe, co);
            if (min.diverged())
                out.report = min.report;
            Program p;
            AsmBuilder as(p);
            materialize(as, out.shrunkItems);
            Memory mem;
            Linker(fc.link).link(p, mem);
            std::string listing;
            for (uint32_t i = 0; i < p.numInsts(); ++i)
                listing += strprintf(
                    "  %08x  %s\n", p.instAddr(i),
                    disasm(p.inst(i), p.instAddr(i)).c_str());
            out.shrunkListing = std::move(listing);
        }
        break;  // first diverging configuration is enough per case
    }
    return out;
}

FuzzBatchResult
runFuzzBatch(const FuzzOptions &opt)
{
    FuzzBatchResult batch;
    batch.casesRun = opt.count;

    std::vector<FuzzCaseOutcome> slots(opt.count);
    Runner runner(opt.jobs);
    RunnerReport rep = runner.forEachIndex(
        opt.count, [&](size_t i) -> uint64_t {
            slots[i] =
                runFuzzCase(splitmix64(opt.seed, i), i, opt);
            return slots[i].simInsts;
        });
    batch.wallSeconds = rep.wallSeconds;

    // Fold per-case digests in index order: identical for any --jobs.
    uint64_t h = kDigestSeed;
    for (const FuzzCaseOutcome &o : slots) {
        h = ser::fnv1a(&o.digest, sizeof(o.digest), h);
        batch.simInsts += o.simInsts;
        if (o.diverged) {
            ++batch.divergingCases;
            batch.failures.push_back(o);
        }
    }
    // Non-legacy modes also fold the matrix configFingerprints, so a
    // silent change to any evaluated configuration moves the pinned
    // digest ("fac" keeps the historical program-only digest).
    if (opt.predictor != "fac") {
        for (const FuzzConfig &fc : fuzzConfigMatrix(opt.predictor)) {
            const uint64_t fp = configFingerprint(fc.pipe);
            h = ser::fnv1a(&fp, sizeof(fp), h);
        }
    }
    batch.digest = h;
    return batch;
}

} // namespace facsim::verify
