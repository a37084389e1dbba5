#include "sim/lvpt.hh"

#include <cmath>

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

    // One blob per sample unit: architectural state plus the warmed
    // structures, taken where the unit's detailed warmup begins. The
    // pipeline only ever fast-forwards here, so it is quiescent at
    // every snapshot (the saveWarmState precondition).
    std::vector<std::pair<uint64_t, std::string>> blobs;
    auto total = [&]() { return pipe.fastForwardedInsts(); };
    while (!pipe.done() && (req.maxInsts == 0 || total() < req.maxInsts)) {
        ser::Writer ew;
        ser::put(ew, m.emulator());
        m.memory().saveState(ew);
        pipe.saveWarmState(ew);
        blobs.emplace_back(total(), ew.data());

        uint64_t want = req.sampling.period;
        if (req.maxInsts && total() + want > req.maxInsts)
            want = req.maxInsts - total();
        if (pipe.fastForward(want) == 0)
            break;
    }

    // Compose the container: header, index, blobs, checksum trailer.
    const LvptIdentity id{BuildIdentity::of(m),
                          warmStateFingerprint(req.pipe),
                          configFingerprint(req.pipe)};
    ser::Writer w = ser::sealedWriter(format);
    ser::put(w, id);
    ser::put(w, req.sampling);
    w.u64(total());
    w.u64(blobs.size());

    uint64_t offset = w.data().size() + indexRecordBytes * blobs.size();
    for (const auto &b : blobs) {
        w.u64(b.first);
        w.u64(offset);
        w.u64(b.second.size());
        offset += b.second.size();
    }
    for (const auto &b : blobs)
        w.bytes(b.second.data(), b.second.size());

    std::string err;
    if (!ser::writeSealed(path, w, &err))
        fatal("cannot write live-point library: %s", err.c_str());

    LvptBuildResult res;
    res.entries = blobs.size();
    res.totalInsts = total();
    res.libraryBytes = w.data().size();
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
    m.memory().loadState(r);
    pipe.loadWarmState(r);
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
