#include "cpu/pipeline.hh"

#include <algorithm>
#include <bit>

#include "obs/debug.hh"
#include "util/logging.hh"

namespace facsim
{

std::string
PipelineConfig::check() const
{
    struct Bound
    {
        const char *name;
        unsigned value, lo, hi;
    };
    const Bound bounds[] = {
        {"fetchWidth", fetchWidth, 1, widthCap},
        {"issueWidth", issueWidth, 1, widthCap},
        {"fetchBufferSize", fetchBufferSize, 1, fetchBufferCap},
        {"numIntAlus", numIntAlus, 1, unitCap},
        {"numMemUnits", numMemUnits, 1, unitCap},
        {"numFpAdders", numFpAdders, 1, unitCap},
        {"maxLoadsPerCycle", maxLoadsPerCycle, 1, widthCap},
        {"maxStoresPerCycle", maxStoresPerCycle, 1, widthCap},
        {"storeBufferEntries", storeBufferEntries, 1, UINT32_MAX},
        {"intAluLat", intAluLat, 0, latencyCap},
        {"intMulLat", intMulLat, 0, latencyCap},
        {"intDivLat", intDivLat, 0, latencyCap},
        {"fpAddLat", fpAddLat, 0, latencyCap},
        {"fpMulLat", fpMulLat, 0, latencyCap},
        {"fpDivLat", fpDivLat, 0, latencyCap},
        {"fpSqrtLat", fpSqrtLat, 0, latencyCap},
    };
    for (const Bound &b : bounds)
        if (b.value < b.lo || b.value > b.hi)
            return strprintf("%s must lie in [%u, %u] (got %u)", b.name,
                             b.lo, b.hi, b.value);

    for (std::string err : {icache.check("I-cache"),
                            dcache.check("data cache"),
                            hierarchy.check(dcache),
                            pred.check(), fac.check()})
        if (!err.empty())
            return err;

    if (agiOrganization && (facEnabled || oneCycleLoads))
        return "the AGI organisation is an alternative to fast address "
               "calculation, not a companion";
    if (agiOrganization && pred.anyEnabled())
        return "the AGI organisation removes the load-use hazard the "
               "predictor zoo targets; they are alternatives, not "
               "companions";
    if (pred.wayMemo && !facEnabled)
        return "way memoization only skips the tag read on confident FAC "
               "hits; enable FAC to use it";
    if (pred.wayMemo && perfectDCache)
        return "way memoization is meaningless with a perfect data cache "
               "(no tag array to skip)";
    if (facEnabled && (fac.blockBits != dcache.blockBits() ||
                       fac.setBits != dcache.setBits()))
        return strprintf("FAC field widths must match the data cache "
                         "geometry (B=%u S=%u vs cache B=%u S=%u)",
                         fac.blockBits, fac.setBits, dcache.blockBits(),
                         dcache.setBits());
    return {};
}

namespace
{

/** @p config, or a panic naming what check() found wrong with it. */
const PipelineConfig &
checked(const PipelineConfig &config)
{
    if (std::string err = config.check(); !err.empty())
        panic("%s", err.c_str());
    return config;
}

} // anonymous namespace

Pipeline::Pipeline(const PipelineConfig &config, Emulator &emulator)
    : cfg(checked(config)), emu(emulator), icache(cfg.icache),
      dmem(cfg.dcache, cfg.hierarchy), btb(cfg.btbEntries),
      sbuf(cfg.storeBufferEntries),
      predictor(cfg.facEnabled, cfg.fac, cfg.pred)
{
    fbuf.mask = std::bit_ceil(cfg.fetchBufferSize) - 1;
    addrSlack = cfg.agiOrganization ? 1 : 0;
    const unsigned units[numFuClasses] = {
        cfg.numIntAlus, cfg.numMemUnits, cfg.numFpAdders, 1, 1};
    for (unsigned c = 0; c < numFuClasses; ++c)
        fuFree[c].assign(units[c], 0);
}

Pipeline::~Pipeline()
{
    // Release the panic hook only if this pipeline still owns it.
    clearPanicContextHook(this);
}

void
Pipeline::enableHistoryRing(size_t capacity)
{
    ring_ = std::make_unique<obs::RetireRing>(capacity);
    setPanicContextHook(&Pipeline::panicHistoryThunk, this);
}

std::string
Pipeline::panicHistoryThunk(void *self)
{
    auto *p = static_cast<Pipeline *>(self);
    return p->ring_ ? p->ring_->dump() : std::string();
}

void
Pipeline::notifyIssue(IssueEvent ev)
{
    // Record before the hook fires so a divergence/panic raised from
    // inside the hook sees this instruction in the history ring.
    ev.seq = dynSeq_;
    if (trace_ || ring_) {
        ++dynSeq_;
        if (ring_)
            ring_->push(ev);
        if (trace_ && ev.seq >= traceStart_ &&
            ev.seq - traceStart_ < traceCount_)
            trace_->instruction(ev);
    }
    if (issueHook)
        issueHook(ev);
}

MemResult
Pipeline::dcacheReadAt(uint64_t t, uint32_t addr)
{
    ++st.dcacheAccesses;
    if (cfg.perfectDCache)
        return {t, true, memlevel::None};
    MemResult r = dmem.read(addr, t);
    if (!r.l1Hit) {
        ++st.dcacheMisses;
        FACSIM_DPRINTF(Mem, "cycle=%llu load addr=%08x L1 miss, "
                       "serviced by %s, done=%llu",
                       static_cast<unsigned long long>(t), addr,
                       obs::memLevelName(r.level),
                       static_cast<unsigned long long>(r.doneCycle));
    }
    return r;
}

Pipeline::Timing
Pipeline::bind(const Inst &in) const
{
    auto ireg = [](uint8_t r) { return r; };
    auto freg = [](uint8_t r) { return static_cast<uint8_t>(fpSlot0 + r); };

    Timing t{{noSlot, noSlot}, {noSlot, noSlot}, noSlot, noSlot, noSlot,
             Kind::Alu, fuIntAlu, 1, 1};
    if (int d = intDest(in); d >= 0)
        t.dst = ireg(static_cast<uint8_t>(d));
    else if (int fd = fpDest(in); fd >= 0)
        t.dst = freg(static_cast<uint8_t>(fd));

    if (isMem(in.op)) {
        t.kind = isLoad(in.op) ? Kind::Load : Kind::Store;
        t.fu = fuMem;
        t.addr[0] = ireg(in.rs);
        if (in.amode == AMode::RegReg)
            t.addr[1] = ireg(in.rd);
        if (isStore(in.op))
            t.src[0] = isFpMem(in.op) ? freg(in.rt) : ireg(in.rt);
        if (in.amode == AMode::PostInc && in.rs != reg::zero)
            t.base = ireg(in.rs);
        return t;
    }
    if (isControl(in.op))
        t.kind = Kind::Control;  // links (JAL/JALR) are due at issue+1

    using S = isa::Shape;
    switch (isa::of(in.op).shape) {
      case S::None:
        t.kind = in.op == Op::HALT ? Kind::Halt : Kind::Nop;
        break;
      case S::J: case S::Jal: case S::Lui: case S::Mem:
        break;
      case S::Bc1:
        t.src[0] = fpccSlot;
        break;
      case S::Br1: case S::Jr: case S::Jalr: case S::Shift: case S::ImmS:
      case S::ImmU:
        t.src[0] = ireg(in.rs);
        break;
      case S::Mtc1:
        t.src[0] = ireg(in.rt);
        break;
      case S::Mfc1: case S::Fp2:
        t.src[0] = freg(in.rs);
        break;
      case S::FpCmp:
        t.cc = fpccSlot;
        [[fallthrough]];
      case S::Fp3:
        t.src[0] = freg(in.rs);
        t.src[1] = freg(in.rt);
        break;
      case S::R3: case S::Br2:
        t.src[0] = ireg(in.rs);
        t.src[1] = ireg(in.rt);
        break;
    }
    if (t.kind != Kind::Alu)
        return t;

    // Unit class, result latency and occupancy (check() keeps every
    // latency within a byte).
    auto set = [&](unsigned fu, unsigned lat, unsigned busy) {
        t.fu = static_cast<uint8_t>(fu);
        t.lat = static_cast<uint8_t>(lat);
        t.busy = static_cast<uint8_t>(busy);
    };
    switch (isa::of(in.op).unit) {
      case isa::Unit::IntAlu: set(fuIntAlu, cfg.intAluLat, 1); break;
      case isa::Unit::IntMul: set(fuIntMulDiv, cfg.intMulLat, 1); break;
      case isa::Unit::IntDiv:
        set(fuIntMulDiv, cfg.intDivLat, cfg.intDivLat);
        break;
      case isa::Unit::FpAdd: set(fuFpAdd, cfg.fpAddLat, 1); break;
      case isa::Unit::FpMul: set(fuFpMulDiv, cfg.fpMulLat, 1); break;
      case isa::Unit::FpDiv:
        set(fuFpMulDiv, cfg.fpDivLat, cfg.fpDivLat);
        break;
      case isa::Unit::FpSqrt:
        set(fuFpMulDiv, cfg.fpSqrtLat, cfg.fpSqrtLat);
        break;
      case isa::Unit::Mem:
        break;
    }
    return t;
}

void
Pipeline::fetchGroup()
{
    uint64_t delay = 0;
    uint32_t prev_block = 0xffffffffu;
    const unsigned block_bits = cfg.icache.blockBits();
    const unsigned first = fbuf.count;

    for (unsigned n = 0;
         n < cfg.fetchWidth && fbuf.count < cfg.fetchBufferSize; ++n) {
        // The emulator writes straight into the next ring slot; the
        // slot joins the buffer once the step succeeds.
        FetchedInst &fi = fbuf[fbuf.count];
        if (!emu.step(&fi.rec)) {
            traceDone = true;
            break;
        }
        const ExecRecord &rec = fi.rec;

        // Model instruction-cache traffic per block touched by the group.
        if (!cfg.perfectICache) {
            uint32_t block = rec.pc >> block_bits;
            if (block != prev_block) {
                prev_block = block;
                ++st.icacheAccesses;
                CacheAccess acc = icache.read(rec.pc);
                if (!acc.hit) {
                    ++st.icacheMisses;
                    delay += cfg.icache.missLatency;
                }
            }
        }

        fi.fetchCycle = cycle;
        fi.t = boundFor(rec);
        fi.ctlMispredicted = false;
        ++fbuf.count;

        if (fi.t.kind == Kind::Halt) {
            traceDone = true;
            break;
        }

        if (fi.t.kind == Kind::Control) {
            BtbPrediction pr = btb.predict(rec.pc);
            ++st.btbLookups;
            bool pred_taken = isBranch(rec.inst.op) ? (pr.hit && pr.taken)
                                                    : pr.hit;
            bool mispredict;
            if (rec.taken)
                mispredict = !pred_taken || pr.target != rec.nextPc;
            else
                mispredict = pred_taken;
            fi.ctlMispredicted = mispredict;
            if (mispredict) {
                FACSIM_DPRINTF(Fetch, "cycle=%llu pc=%08x BTB mispredict "
                               "(taken=%d target=%08x), fetch redirect",
                               static_cast<unsigned long long>(cycle),
                               rec.pc, rec.taken ? 1 : 0, rec.nextPc);
                // The machine fetches down the wrong path until the
                // transfer resolves in EX; we model that as a fetch stall
                // released by the resolving instruction.
                awaitingRedirect = true;
                break;
            }
            if (rec.taken)
                break;  // correctly-predicted taken: group cannot continue
        }
    }

    // Stamp issue-readiness on everything fetched this cycle.
    fetchReadyCycle = cycle + 1 + delay;
    for (unsigned i = first; i < fbuf.count; ++i)
        fbuf[i].readyCycle = fetchReadyCycle;
}

bool
Pipeline::maySpeculate(bool load) const
{
    if (!cfg.facEnabled && !cfg.pred.stride)
        return false;
    // Section 5.5 issue rule: memory ops issued the cycle after a
    // misprediction access the cache in MEM — unless this is a load
    // right after a misspeculated load. (The FAC R+R policy gate lives
    // inside the predictor: an unattempted prediction costs nothing.)
    if (cycle == lastMispredictCycle + 1 && !(load && lastMispredictWasLoad))
        return false;
    // A load's EX access needs a free read port; a store's goes to the
    // store buffer, if stores speculate at all.
    return load ? readPorts[cycle % portWindow] < cfg.maxLoadsPerCycle
                : cfg.speculateStores;
}

// Inlined into tryIssue(): every load and store issues through it.
[[gnu::always_inline]] inline PredResult
Pipeline::speculate(const ExecRecord &rec, bool load)
{
    PredResult pr = predictor.predict(rec.pc, rec.baseVal, rec.offsetVal,
                                      rec.offsetFromReg, rec.effAddr);
    if (!pr.attempted)
        return pr;
    const bool stride = pr.source == PredSource::Stride;
    ++(load ? st.loadsSpeculated : st.storesSpeculated);
    if (stride)
        ++st.strideSpeculated;
    if (pr.success) {
        FACSIM_ASSERT(pr.predictedAddr == rec.effAddr,
                      "predictor success with wrong address");
        return pr;
    }
    // The EX access used the wrong address: a load's read is wasted
    // (bandwidth only — the fill is squashed) and replays in MEM next
    // cycle; a store's tag probe is wasted and its buffer entry is
    // patched by the MEM-stage re-execution.
    FACSIM_DPRINTF(FacVerify, "cycle=%llu pc=%08x %s %s mispredict "
                   "pred=%08x actual=%08x, %s",
                   static_cast<unsigned long long>(cycle), rec.pc,
                   load ? "load" : "store", stride ? "stride" : "FAC",
                   pr.predictedAddr, rec.effAddr,
                   load ? "MEM replay" : "buffer entry patched");
    ++(load ? st.loadSpecFailures : st.storeSpecFailures);
    if (stride)
        ++st.strideSpecFailures;
    recover(load);
    return pr;
}

void
Pipeline::recover(bool load)
{
    ++st.predRecoveryCycles;
    ++st.extraAccesses;
    ++st.dcacheAccesses;
    lastMispredictCycle = cycle;
    lastMispredictWasLoad = load;
}

bool
Pipeline::tryIssue(unsigned &loads_this_cycle, unsigned &stores_this_cycle,
                   bool &store_forced_retire)
{
    lastStall = StallReason::None;
    if (fbuf.count == 0 || fbuf[0].readyCycle > cycle) {
        lastStall = StallReason::Fetch;
        return false;
    }
    FetchedInst &fi = fbuf[0];
    const ExecRecord &rec = fi.rec;
    const Timing &t = fi.t;

    // NOP and HALT need neither operands nor a unit.
    uint64_t *unit = nullptr;
    if (t.kind != Kind::Nop && t.kind != Kind::Halt) {
        if (readyAt(t) > cycle) {
            lastStall = StallReason::Data;
            return false;
        }
        unit = freeUnit(t.fu);
        if (!unit) {
            lastStall = StallReason::Structural;
            return false;
        }
    }

    // What observers hear: the result-ready cycle, the level that
    // serviced a load, and the speculation outcome.
    uint64_t done = cycle + t.lat;
    uint8_t level = memlevel::None;
    PredResult pr;
    bool wm_used = false;
    bool wm_stale = false;

    switch (t.kind) {
      case Kind::Load: {
        if (loads_this_cycle >= cfg.maxLoadsPerCycle) {
            lastStall = StallReason::Structural;
            return false;
        }
        if (cfg.loadsStallOnStoreConflict &&
            sbuf.conflicts(rec.effAddr, cfg.dcache.blockBytes)) {
            // Conservative disambiguation: wait for the buffered store
            // to drain (retirement proceeds because this cycle then has
            // no load traffic).
            lastStall = StallReason::StoreBuffer;
            return false;
        }
        // One data access: in EX on a verified prediction, else in MEM
        // (as the normal path or as the replay of a failed one).
        const uint32_t block = rec.effAddr & ~(cfg.dcache.blockBytes - 1);
        uint64_t at = cfg.oneCycleLoads ? cycle : cycle + 1;
        bool tag_read = true;
        if (maySpeculate(true))
            pr = speculate(rec, true);
        if (pr.attempted) {
            ++readPortsAt(cycle);
            at = cycle;
            if (!pr.success) {
                ++tagReadsAt(cycle);
                at = cycle + 1;
            } else if (cfg.pred.wayMemo && pr.source == PredSource::Fac) {
                // Way memoization: a confident FAC hit may reuse the
                // memoized way and skip the L1 tag read; the mandatory
                // late verify against the tag state turns a stale memo
                // into a MEM replay with a full tag read, never wrong
                // data.
                int memo = predictor.memoWay(rec.pc, block);
                wm_used = memo >= 0;
                wm_stale = wm_used && memo != dmem.l1().wayOf(rec.effAddr);
                if (wm_stale) {
                    FACSIM_DPRINTF(FacVerify, "cycle=%llu pc=%08x load "
                                   "way-memo stale, MEM replay",
                                   static_cast<unsigned long long>(cycle),
                                   rec.pc);
                    ++st.wayMemoStale;
                    recover(true);
                    at = cycle + 1;
                } else if (wm_used) {
                    tag_read = false;
                    ++st.wayMemoTagReadsSaved;
                }
            }
            if (at != cycle)
                ++readPortsAt(at);  // the MEM replay
        } else {
            if (readPortsAt(at) >= cfg.maxLoadsPerCycle) {
                // Structural stall on a data-cache port.
                lastStall = StallReason::Structural;
                return false;
            }
            ++readPortsAt(at);
        }
        if (tag_read)
            ++tagReadsAt(at);
        MemResult mr = dcacheReadAt(at, rec.effAddr);
        done = mr.doneCycle;
        level = mr.level;
        // Under the AGI organisation the consumer's ALU stage sits level
        // with the cache-access stage, so loaded data forwards to an
        // instruction issued one cycle earlier than in the LUI pipeline
        // (that is the hazard AGI removes).
        setReady(t.dst, done + (cfg.agiOrganization ? 0 : 1));
        if (cfg.pred.wayMemo) {
            int way = dmem.l1().wayOf(rec.effAddr);
            if (way >= 0)
                predictor.trainWay(rec.pc, block,
                                   static_cast<uint32_t>(way));
        }
        ++st.loads;
        ++loads_this_cycle;
        break;
      }

      case Kind::Store: {
        if (stores_this_cycle >= cfg.maxStoresPerCycle) {
            lastStall = StallReason::Structural;
            return false;
        }
        if (sbuf.full()) {
            // Paper: the pipeline stalls and the oldest entry retires.
            FACSIM_DPRINTF(StoreBuffer, "cycle=%llu pc=%08x store buffer "
                           "full, stalling and forcing retirement",
                           static_cast<unsigned long long>(cycle), rec.pc);
            ++st.storeBufferFullStalls;
            store_forced_retire = true;
            lastStall = StallReason::StoreBuffer;
            return false;
        }
        uint64_t seq = seqCounter++;
        if (maySpeculate(false))
            pr = speculate(rec, false);
        if (pr.success) {
            sbuf.push(rec.effAddr, seq, true);
        } else {
            // The address is produced in EX and enters the buffer in
            // MEM, one cycle later — also the patch of a failed verify.
            sbuf.push(0, seq, false);
            patches.push_back({cycle + 1, seq, rec.effAddr});
        }
        // A store's data leaves the core when its buffer entry is
        // complete (done = cycle + 1); the cache write and its service
        // level happen at retirement, asynchronously.
        ++st.stores;
        ++stores_this_cycle;
        break;
      }

      case Kind::Control:
        btb.update(rec.pc, rec.taken, rec.nextPc);
        if (fi.ctlMispredicted) {
            ++st.btbMispredicts;
            awaitingRedirect = false;
            // First correct-path issue lands branchPenalty cycles from
            // now; AGI resolves branches one stage later.
            uint64_t penalty = cfg.branchPenalty +
                (cfg.agiOrganization ? 1 : 0);
            uint64_t resume = cycle + penalty - 1;
            fetchReadyCycle = std::max(fetchReadyCycle, resume);
        }
        [[fallthrough]];
      case Kind::Alu:
        setReady(t.dst, done);
        setReady(t.cc, done);
        break;

      case Kind::Halt:
        halted = true;
        break;

      default:
        break;
    }

    if (t.kind == Kind::Load || t.kind == Kind::Store) {
        // Train the tables in program order (issue is in-order), once
        // per memory op — speculated or not, loads and stores alike
        // (the PCAX-style stride source keys on the static memory
        // instruction), so the cosim shadow can reproduce the state
        // from the retire stream alone.
        predictor.train(rec.pc, rec.effAddr);
        setReady(t.base, cycle + 1);
    }
    if (unit)
        *unit = cycle + t.busy;
    ++st.insts;
    // The event's flags are this access's own outcome, never derived
    // from lastMispredict{Cycle,WasLoad}: that would alias a second
    // load issuing in the same cycle as another's misprediction.
    if (trace_ || ring_ || issueHook)
        notifyIssue({cycle, rec, pr.attempted, pr.attempted && !pr.success,
                     static_cast<uint8_t>(pr.source), wm_used, wm_stale,
                     fi.fetchCycle, done, level});
    fbuf.pop();
    return t.kind != Kind::Halt;
}

bool
Pipeline::stepCycle(bool allow_fetch)
{
    // Slot (cycle+2) cannot yet hold valid reservations (they are
    // made at most one cycle ahead), so recycle it now.
    readPorts[(cycle + 2) % portWindow] = 0;
    tagReads[(cycle + 2) % portWindow] = 0;

    // Apply MEM-stage store-address patches due this cycle.
    for (auto it = patches.begin(); it != patches.end();) {
        if (it->applyCycle <= cycle) {
            sbuf.patchAddr(it->seq, it->addr);
            it = patches.erase(it);
        } else {
            ++it;
        }
    }

    if (allow_fetch && !traceDone && !awaitingRedirect &&
        cycle >= fetchReadyCycle && fbuf.count < cfg.fetchBufferSize) {
        fetchGroup();
    }

    unsigned nloads = 0, nstores = 0;
    bool forced_retire = false;
    unsigned issued = 0;
    for (unsigned slot = 0; slot < cfg.issueWidth; ++slot) {
        if (!tryIssue(nloads, nstores, forced_retire))
            break;
        ++issued;
    }
    if (issued == 0 && !halted) {
        switch (lastStall) {
          case StallReason::Fetch: ++st.stallFetch; break;
          case StallReason::Data: ++st.stallData; break;
          case StallReason::Structural: ++st.stallStructural; break;
          case StallReason::StoreBuffer:
            ++st.stallStoreBuffer;
            break;
          case StallReason::None: break;
        }
    }

    // Store-buffer retirement: the data cache is "unused" when no
    // load accessed it this cycle; a pipeline stalled on a full
    // buffer forces the oldest entry out regardless.
    // (The gate keys on *tag* reads: a memoized load that skipped the
    // tag array leaves it free for the store's tag check, which is the
    // whole point of way memoization. With the memo off, tagReads ==
    // readPorts and this is the original condition bit for bit.)
    if ((tagReadsAt(cycle) == 0 || forced_retire) && sbuf.canRetire()) {
        const StoreBuffer::Entry ent = sbuf.front();
        sbuf.pop();
        ++st.dcacheAccesses;
        if (!cfg.perfectDCache) {
            // Store completion is fire-and-forget: the buffer entry
            // is gone and writes never block the core, so only the
            // hit/miss outcome is consumed (tag state and any
            // MSHR/DRAM occupancy still advance inside the port).
            MemResult r = dmem.write(ent.addr, cycle);
            if (!r.l1Hit)
                ++st.dcacheMisses;
        }
        if (storeRetireHook)
            storeRetireHook(ent.seq, ent.addr);
    }

    if (st.insts != lastProgressInsts) {
        lastProgressInsts = st.insts;
        lastProgressCycle = cycle;
    } else if (cycle - lastProgressCycle > deadlockCycles) {
        panic("pipeline deadlock: no instruction issued for 100k "
              "cycles (cycle %llu, %llu insts)",
              static_cast<unsigned long long>(cycle),
              static_cast<unsigned long long>(st.insts));
    }

    ++cycle;
    return issued == 0 && !halted && lastStall == StallReason::Data;
}

void
Pipeline::skipDataStall(bool allow_fetch)
{
    // The cycle just simulated issued nothing because the head waits on
    // its operands. Until readyAt(head) every following cycle repeats
    // it exactly — same head, same data stall, nothing to retire —
    // provided nothing else can happen meanwhile: no store-address patch
    // falls due, the store buffer cannot retire, and fetch stays blocked.
    if (!patches.empty() || sbuf.canRetire())
        return;
    uint64_t until = readyAt(fbuf[0].t);
    if (allow_fetch && !traceDone && !awaitingRedirect &&
        fbuf.count < cfg.fetchBufferSize)
        until = std::min(until, fetchReadyCycle);
    // Stop on the cycle whose watchdog check fires, so a genuine
    // deadlock still panics there.
    until = std::min(until, lastProgressCycle + deadlockCycles + 1);
    if (until <= cycle)
        return;

    // Charge the skipped cycles [cycle, until) as stepCycle() would:
    // each is a data stall that recycles port/tag slot (its cycle + 2).
    st.stallData += until - cycle;
    if (until - cycle >= portWindow) {
        readPorts.fill(0);
        tagReads.fill(0);
    } else {
        for (uint64_t c = cycle + 2; c < until + 2; ++c) {
            readPorts[c % portWindow] = 0;
            tagReads[c % portWindow] = 0;
        }
    }
    cycle = until;
}

PipeStats
Pipeline::run(uint64_t max_insts)
{
    while (!halted) {
        bool data_stall = stepCycle(true);
        if (max_insts && st.insts >= max_insts)
            break;
        if (data_stall)
            skipDataStall(true);
    }

    // Account for the remaining WB drain of the final group.
    st.cycles = cycle + 2;
    return st;
}

uint64_t
Pipeline::fastForward(uint64_t n)
{
    // Route the emulator's fused warming loop into this pipeline's
    // structures. Stores warm as writes: the detailed model's
    // store-buffer retirement reaches the hierarchy as write traffic
    // (write-allocate + dirty), and the buffer itself is empty at
    // every window boundary by construction (drain()).
    struct Sink final : Emulator::WarmSink
    {
        Pipeline &p;
        explicit Sink(Pipeline &p) : p(p) {}
        void
        warmFetch(uint32_t pc) override
        {
            if (!p.cfg.perfectICache)
                p.icache.warm(pc, false);
        }
        void
        warmControl(uint32_t pc, bool taken, uint32_t next_pc) override
        {
            p.btb.warm(pc, taken, next_pc);
        }
        void
        warmData(uint32_t addr, bool is_store) override
        {
            if (!p.cfg.perfectDCache)
                p.dmem.warm(addr, is_store);
        }
    } sink{*this};

    uint64_t done = 0;
    if (!traceDone)
        done = emu.runWarm(n, cfg.icache.blockBits(), sink);
    if (emu.halted()) {
        // The detailed model never sees the HALT; the sampled run is
        // over.
        traceDone = true;
        halted = true;
    }

    ffInsts += done;
    return done;
}

void
Pipeline::drain()
{
    while (!halted && (fbuf.count || !patches.empty() || !sbuf.empty()))
        if (stepCycle(false))
            skipDataStall(false);

    // Advance the clock past every busy resource: the next measurement
    // window must not inherit stalls from before the sampling gap.
    // Read-port reservations exist at most one cycle ahead, so cycle+2
    // clears the ring's live range.
    uint64_t q = cycle + 2;
    for (uint64_t v : ready)
        q = std::max(q, v);
    for (const auto &units : fuFree)
        for (uint64_t v : units)
            q = std::max(q, v);
    q = std::max(q, fetchReadyCycle);
    q = std::max(q, dmem.busyUntil());

    cycle = q;
    readPorts.fill(0);
    tagReads.fill(0);
    fetchReadyCycle = cycle;
    // Keep the deadlock watchdog from seeing the jump as a stall.
    lastProgressCycle = cycle;
}

void
Pipeline::rebindFetched(ser::TryReader &r)
{
    for (unsigned i = 0; i < fbuf.count; ++i) {
        FetchedInst &fi = fbuf[i];
        const Inst *in = emu.textAt(fi.rec.pc);
        if (!in || *in != fi.rec.inst) {
            r.fail(strprintf("fetched pc %08x is not an instruction of "
                             "the program text", fi.rec.pc));
            return;
        }
        fi.t = boundFor(fi.rec);
    }
}

void
Pipeline::saveWarmState(ser::Writer &w) const
{
    ser::put(w, icache);
    ser::put(w, dmem);
    ser::put(w, btb);
}

void
Pipeline::loadWarmState(ser::Reader &r)
{
    ser::get(r, icache);
    ser::get(r, dmem);
    ser::get(r, btb);
}

} // namespace facsim
