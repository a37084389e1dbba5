#include "sim/lvpt.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "sim/config.hh"
#include "util/logging.hh"
#include "util/sealed.hh"
#include "util/serialize.hh"

namespace facsim
{

namespace
{

const ser::SealedFormat format{"FACSIMLV", lvptLibraryVersion,
                               "live-point library"};

/** Bytes per index record: startInst, offset, size. */
constexpr size_t indexRecordBytes = 24;

/**
 * The library pass's entry bytes. Entries go straight into one body
 * buffer, in order. An entry stays open while its window runs: as the
 * memory's page watcher it appends each page the window touches, with
 * the content from before that first touch, which is the content at
 * the snapshot. Its page count is patched when the window closes.
 * Windows overlap when the period is shorter than a window; a younger
 * entry then fills a side buffer until it becomes the oldest open one
 * and joins the body.
 */
class EntryWriter final : public Memory::PageWatcher
{
  public:
    /** Where a closed entry sits in the body. */
    struct Placed
    {
        uint64_t startInst;
        uint64_t offset;
        uint64_t size;
    };

    EntryWriter(Memory &mem, uint64_t window) : mem_(mem), window_(window)
    {
    }

    // The memory holds this object's address while a window is open.
    EntryWriter(const EntryWriter &) = delete;
    EntryWriter &operator=(const EntryWriter &) = delete;

    /**
     * Open the entry of the snapshot at instruction @p start;
     * @p state(w) writes its emulator and warm-structure state.
     */
    template <class F>
    void
    open(uint64_t start, F &&state)
    {
        Open &e = open_.emplace_back();
        e.start = start;
        e.end = start + window_;
        e.direct = open_.size() == 1;
        ser::Writer &w = out(e);
        e.at = w.size();
        state(w);
        e.countAt = w.size();
        w.u64(0);
        mem_.watchPages(this);
    }

    /** Instruction at which the oldest open window ends (or none). */
    uint64_t
    nextClose() const
    {
        return open_.empty() ? UINT64_MAX : open_.front().end;
    }

    /** Close every window that ends at or before instruction @p now. */
    void
    closeUpTo(uint64_t now)
    {
        while (!open_.empty() && open_.front().end <= now) {
            const Open &e = open_.front();
            body_.patchU64(e.countAt, e.pages.size());
            placed_.push_back({e.start, e.at, body_.size() - e.at});
            open_.pop_front();
            if (open_.empty()) {
                mem_.watchPages(nullptr);
                break;
            }
            Open &n = open_.front();
            const size_t at = body_.size();
            body_.bytes(n.side.data().data(), n.side.size());
            n.side = ser::Writer();
            n.direct = true;
            n.at += at;
            n.countAt += at;
        }
    }

    void
    pageTouched(uint32_t pn, const uint8_t *page) override
    {
        for (Open &e : open_) {
            auto it = std::lower_bound(e.pages.begin(), e.pages.end(), pn);
            if (it != e.pages.end() && *it == pn)
                continue;
            e.pages.insert(it, pn);
            Memory::putPage(out(e), pn, page);
        }
    }

    const std::string &body() const { return body_.data(); }
    const std::vector<Placed> &placed() const { return placed_; }

  private:
    struct Open
    {
        uint64_t start = 0, end = 0;
        bool direct = false;  ///< writes into the body, not side
        ser::Writer side;
        size_t at = 0;       ///< entry start, in its buffer
        size_t countAt = 0;  ///< page-count placeholder, in its buffer
        std::vector<uint32_t> pages;  ///< saved so far, ascending
    };

    ser::Writer &out(Open &e) { return e.direct ? body_ : e.side; }

    Memory &mem_;
    const uint64_t window_;
    ser::Writer body_;
    std::deque<Open> open_;
    std::vector<Placed> placed_;
};

} // namespace

uint64_t
warmStateFingerprint(const PipelineConfig &c)
{
    ser::Writer w;
    // Geometry only: everything that shapes the contents of the warmed
    // structures, nothing that merely times them. Miss/hit latencies,
    // MSHR/writeback/DRAM parameters, FAC and issue-width fields are
    // deliberately absent so a baseline and a FAC config (or two
    // latency variants) consume the same library.
    auto cacheGeom = [&](const CacheConfig &cc) {
        w.u32(cc.sizeBytes);
        w.u32(cc.blockBytes);
        w.u32(cc.assoc);
    };
    cacheGeom(c.icache);
    cacheGeom(c.dcache);

    const HierarchyConfig &h = c.hierarchy;
    w.u8(static_cast<uint8_t>(h.depth));
    cacheGeom(h.l2);
    w.b(h.tlbEnabled);
    w.u32(h.tlbEntries);
    w.u32(h.tlbPageBytes);

    w.u32(c.btbEntries);
    // Perfect structures skip warming entirely, so their state differs.
    w.b(c.perfectICache);
    w.b(c.perfectDCache);

    return ser::fnv1a(w.data().data(), w.data().size());
}

LvptBuildResult
buildLvptLibrary(const std::string &path, const LvptBuildRequest &req)
{
    FACSIM_ASSERT(req.sampling.enabled(),
                  "live-point library needs a sampling period "
                  "(--sample-period)");
    const std::string bad = req.sampling.check();
    FACSIM_ASSERT(bad.empty(), "%s", bad.c_str());

    Machine m(workload(req.workload), req.build);
    Pipeline pipe(req.pipe, m.emulator());
    const SamplingConfig &s = req.sampling;
    EntryWriter entries(m.memory(),
                        s.warmup + s.detail + lvptWindowSlack);

    // One entry per sample unit, opened where the unit's detailed
    // warmup begins. The pipeline only ever fast-forwards here, so it
    // is quiescent at every snapshot (the saveWarmState precondition).
    // Fast-forward stops at each snapshot and at each window's end.
    auto total = [&]() { return pipe.fastForwardedInsts(); };
    uint64_t next = 0;
    while (!pipe.done() && (req.maxInsts == 0 || total() < req.maxInsts)) {
        if (total() == next) {
            entries.open(total(), [&](ser::Writer &w) {
                ser::put(w, m.emulator());
                pipe.saveWarmState(w);
            });
            next += s.period;
        }
        uint64_t until = std::min(next, entries.nextClose());
        if (req.maxInsts)
            until = std::min(until, req.maxInsts);
        if (pipe.fastForward(until - total()) == 0)
            break;
        entries.closeUpTo(total());
    }
    const uint64_t covered = total();
    // The farm runs every window in full, so the last windows run on
    // past the sampled span (and past maxInsts) until they close.
    while (entries.nextClose() != UINT64_MAX) {
        if (pipe.done() ||
            pipe.fastForward(entries.nextClose() - total()) == 0) {
            entries.closeUpTo(UINT64_MAX);
            break;
        }
        entries.closeUpTo(total());
    }

    // The header and index go in front of the entry bytes, which are
    // written to the file where they are, never copied behind them.
    const std::vector<EntryWriter::Placed> &placed = entries.placed();
    const LvptIdentity id{BuildIdentity::of(m),
                          warmStateFingerprint(req.pipe),
                          configFingerprint(req.pipe)};
    ser::Writer w = ser::sealedWriter(format);
    ser::put(w, id);
    ser::put(w, req.sampling);
    w.u64(covered);
    w.u64(placed.size());
    const uint64_t base = w.size() + indexRecordBytes * placed.size();
    for (const EntryWriter::Placed &e : placed) {
        w.u64(e.startInst);
        w.u64(base + e.offset);
        w.u64(e.size);
    }

    const std::string &body = entries.body();
    std::string err;
    if (!ser::writeSealed(path, w, &err, body))
        fatal("cannot write live-point library: %s", err.c_str());

    LvptBuildResult res;
    res.entries = placed.size();
    res.totalInsts = covered;
    res.libraryBytes = w.size() + body.size() + sizeof(uint64_t);
    return res;
}

LvptLibrary::LvptLibrary(const std::string &path)
    : path_(path), data_(ser::loadSealed(path, format))
{
    std::string_view body = ser::sealedBody(data_);
    ser::Reader r(body.data(), body.size(), "live-point library");
    ser::get(r, id_);
    ser::get(r, sampling_);
    totalInsts_ = r.u64();

    uint64_t count = r.u64();
    if (count > r.remaining() / indexRecordBytes)
        fatal("live-point library '%s' has a truncated index: %llu "
              "entries indexed but the file holds %zu bytes",
              path_.c_str(), static_cast<unsigned long long>(count),
              data_.size());
    entries_.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        Entry e;
        e.startInst = r.u64();
        e.offset = r.u64();
        e.size = r.u64();
        entries_.push_back(e);
    }
}

uint64_t
LvptLibrary::entryStartInst(size_t i) const
{
    FACSIM_ASSERT(i < entries_.size(),
                  "live-point %zu requested but '%s' has %zu entries", i,
                  path_.c_str(), entries_.size());
    return entries_[i].startInst;
}

void
LvptLibrary::restoreEntry(size_t i, Machine &m, Pipeline &pipe) const
{
    FACSIM_ASSERT(i < entries_.size(),
                  "live-point %zu requested but '%s' has %zu entries", i,
                  path_.c_str(), entries_.size());

    id_.check(m, "live-point library", path_);
    uint64_t fp = warmStateFingerprint(pipe.config());
    if (fp != id_.warmFingerprint)
        fatal("live-point library '%s' warm-structure fingerprint %016llx "
              "does not match this pipeline's %016llx (cache/TLB/BTB "
              "geometry must match the mklib run)",
              path_.c_str(),
              static_cast<unsigned long long>(id_.warmFingerprint),
              static_cast<unsigned long long>(fp));

    const Entry &e = entries_[i];
    // The 8-byte trailer is not addressable payload. Compared without
    // adding offset + size, which could wrap.
    const uint64_t end = data_.size() - 8;
    if (e.size == 0 || e.offset > end || e.size > end - e.offset)
        fatal("live-point entry %zu of '%s' is missing or out of bounds "
              "(offset %llu + %llu bytes vs %zu-byte file)",
              i, path_.c_str(), static_cast<unsigned long long>(e.offset),
              static_cast<unsigned long long>(e.size), data_.size());

    ser::Reader r(data_.data() + e.offset, e.size, "live-point entry");
    ser::get(r, m.emulator());
    pipe.loadWarmState(r);
    m.memory().loadWindow(
        r, strprintf("live-point entry %zu of '%s'", i, path_.c_str()));
    r.expectEnd();
}

FarmResult
runFarm(const LvptLibrary &lib, const FarmRequest &req)
{
    size_t n = lib.numEntries();
    if (req.maxEntries && req.maxEntries < n)
        n = req.maxEntries;

    // Per-entry measurement slots, written by the workers and folded in
    // entry order afterwards — the jobs=N determinism guarantee.
    struct Win
    {
        uint64_t cyc = 0, ins = 0;
        uint64_t pcyc = 0, pins = 0;
        uint64_t warm = 0;
    };
    std::vector<Win> wins(n);

    const LvptIdentity &id = lib.identity();
    const SamplingConfig &s = lib.sampling();
    const WorkloadInfo &wl = workload(id.workload);

    FarmResult out;
    Runner runner(req.jobs);
    out.report = runner.forEachIndex(n, [&](size_t i) -> uint64_t {
        // One Machine per job; both configs of a matched pair restore
        // the same live-point into it, so they measure the same window
        // from the same warm state.
        Machine m(wl, id.buildOptions());
        uint64_t detailed = 0;
        auto measure = [&](const PipelineConfig &cfg, uint64_t *cyc,
                           uint64_t *ins, bool primary) {
            Pipeline pipe(cfg, m.emulator());
            lib.restoreEntry(i, m, pipe);
            if (s.warmup)
                pipe.run(s.warmup);
            if (primary)
                wins[i].warm = pipe.stats().insts;
            uint64_t i0 = pipe.stats().insts;
            uint64_t c0 = pipe.currentCycle();
            if (!pipe.done())
                pipe.run(i0 + s.detail);
            *ins = pipe.stats().insts - i0;
            *cyc = pipe.currentCycle() - c0;
            detailed += pipe.stats().insts;
        };
        measure(req.pipe, &wins[i].cyc, &wins[i].ins, true);
        if (req.matchedPair)
            measure(req.partner, &wins[i].pcyc, &wins[i].pins, false);
        return detailed;
    });

    std::vector<double> cyc, ins, pcyc, pins, pairBase, pairMine;
    for (const Win &w : wins) {
        if (w.ins) {
            ++out.windows;
            out.measuredInsts += w.ins;
            out.measuredCycles += w.cyc;
            out.warmupInsts += w.warm;
            cyc.push_back(static_cast<double>(w.cyc));
            ins.push_back(static_cast<double>(w.ins));
        }
        if (req.matchedPair && w.pins) {
            pcyc.push_back(static_cast<double>(w.pcyc));
            pins.push_back(static_cast<double>(w.pins));
        }
        if (req.matchedPair && w.ins && w.pins) {
            pairBase.push_back(static_cast<double>(w.pcyc));
            pairMine.push_back(static_cast<double>(w.cyc));
        }
    }
    out.cpi = ratioEstimate(cyc, ins);
    out.ipc = ratioEstimate(ins, cyc);
    out.totalInsts = lib.totalInsts();

    if (req.matchedPair) {
        out.partnerCpi = ratioEstimate(pcyc, pins);
        // Paired: per-window partner/measured cycle ratio through the
        // ratio estimator — correlated window difficulty cancels.
        out.pairedSpeedup = ratioEstimate(pairBase, pairMine);
        // Independent: the two CPI estimates ratioed, relative CI
        // half-widths added in quadrature (what two unrelated sampled
        // runs of the same budget would report).
        MetricEstimate &ind = out.independentSpeedup;
        if (out.cpi.mean > 0.0) {
            ind.mean = out.partnerCpi.mean / out.cpi.mean;
            ind.n = std::min(out.cpi.n, out.partnerCpi.n);
            ind.insufficient =
                out.cpi.insufficient || out.partnerCpi.insufficient;
            if (!ind.insufficient) {
                double rel = std::sqrt(
                    out.cpi.relHalfWidth() * out.cpi.relHalfWidth() +
                    out.partnerCpi.relHalfWidth() *
                        out.partnerCpi.relHalfWidth());
                ind.halfWidth = ind.mean * rel;
            }
        }
    }
    return out;
}

} // namespace facsim
