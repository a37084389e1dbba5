#include "sim/config.hh"

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/serialize.hh"

namespace facsim
{

PipelineConfig
baselineConfig(uint32_t dcache_block_bytes)
{
    PipelineConfig c;
    c.dcache.blockBytes = dcache_block_bytes;
    return c;
}

FacConfig
facConfigFor(const CacheConfig &dcache, bool speculate_rr,
             bool full_tag_add)
{
    FacConfig f;
    f.blockBits = dcache.blockBits();
    f.setBits = dcache.setBits();
    f.speculateRegReg = speculate_rr;
    f.fullTagAdd = full_tag_add;
    return f;
}

PipelineConfig
facPipelineConfig(uint32_t dcache_block_bytes, bool speculate_rr,
                  bool full_tag_add)
{
    PipelineConfig c = baselineConfig(dcache_block_bytes);
    c.facEnabled = true;
    c.fac = facConfigFor(c.dcache, speculate_rr, full_tag_add);
    return c;
}

HierarchyConfig
paperHierarchy()
{
    return HierarchyConfig{};  // Flat, untracked, free writebacks
}

HierarchyConfig
modernHierarchy()
{
    HierarchyConfig h;
    h.depth = HierarchyDepth::L2;
    h.l1Mshr = MshrConfig{8, true};
    h.l1WbEntries = 4;
    h.l2 = CacheConfig{256 * 1024, 64, 8, 0};
    h.l2HitLatency = 12;
    h.l2Mshr = MshrConfig{16, true};
    h.l2WbEntries = 8;
    h.dram = DramConfig{80, 8};
    return h;
}

HierarchyConfig
hierarchyPreset(const std::string &name)
{
    if (name == "paper")
        return paperHierarchy();
    if (name == "modern")
        return modernHierarchy();
    fatal("unknown hierarchy preset '%s' (expected 'paper' or 'modern')",
          name.c_str());
}

const char *const kPredictorChoices[] = {
    "none", "fac", "stride", "fac+stride", "fac+waymemo",
    "fac+stride+waymemo", nullptr,
};

PipelineConfig
predictorPipelineConfig(const std::string &mode,
                        uint32_t dcache_block_bytes, bool speculate_rr)
{
    unsigned idx = parse::oneOfFlag("--predictor", mode,
                                    kPredictorChoices);
    bool fac = idx == 1 || idx >= 3;
    PipelineConfig c = fac
        ? facPipelineConfig(dcache_block_bytes, speculate_rr)
        : baselineConfig(dcache_block_bytes);
    c.pred.stride = idx == 2 || idx == 3 || idx == 5;
    c.pred.wayMemo = idx == 4 || idx == 5;
    c.pred.validate();
    return c;
}

PipelineConfig
agiConfig(uint32_t dcache_block_bytes)
{
    PipelineConfig c = baselineConfig(dcache_block_bytes);
    c.agiOrganization = true;
    return c;
}

PipelineConfig
oneCycleLoadConfig(uint32_t dcache_block_bytes)
{
    PipelineConfig c = baselineConfig(dcache_block_bytes);
    c.oneCycleLoads = true;
    return c;
}

PipelineConfig
perfectCacheConfig(uint32_t dcache_block_bytes)
{
    PipelineConfig c = baselineConfig(dcache_block_bytes);
    c.perfectDCache = true;
    return c;
}

PipelineConfig
oneCyclePerfectConfig(uint32_t dcache_block_bytes)
{
    PipelineConfig c = baselineConfig(dcache_block_bytes);
    c.oneCycleLoads = true;
    c.perfectDCache = true;
    return c;
}

std::string
describeConfig(const PipelineConfig &c)
{
    std::string s;
    s += strprintf("Fetch:        %u insts/cycle, any contiguous group\n",
                   c.fetchWidth);
    s += strprintf("I-cache:      %uk direct-mapped, %uB blocks, "
                   "%u-cycle miss%s\n",
                   c.icache.sizeBytes / 1024, c.icache.blockBytes,
                   c.icache.missLatency,
                   c.perfectICache ? " (PERFECT)" : "");
    s += strprintf("Branch pred:  %u-entry direct-mapped BTB, 2-bit "
                   "counters, %u-cycle penalty\n",
                   c.btbEntries, c.branchPenalty);
    s += strprintf("Issue:        in-order, %u ops/cycle, out-of-order "
                   "completion, <=%u loads or %u store\n",
                   c.issueWidth, c.maxLoadsPerCycle, c.maxStoresPerCycle);
    s += strprintf("FUs:          %u int ALU, %u ld/st, %u FP add, 1 int "
                   "MUL/DIV, 1 FP MUL/DIV\n",
                   c.numIntAlus, c.numMemUnits, c.numFpAdders);
    s += strprintf("Latency:      ALU %u/1, iMUL %u/1, iDIV %u/%u, "
                   "fADD %u/1, fMUL %u/1, fDIV %u/%u\n",
                   c.intAluLat, c.intMulLat, c.intDivLat, c.intDivLat,
                   c.fpAddLat, c.fpMulLat, c.fpDivLat, c.fpDivLat);
    s += strprintf("D-cache:      %uk direct-mapped, write-back, "
                   "write-alloc, %uB blocks, %u-cycle miss, 2r/1w "
                   "ports%s\n",
                   c.dcache.sizeBytes / 1024, c.dcache.blockBytes,
                   c.dcache.missLatency,
                   c.perfectDCache ? " (PERFECT)" : "");
    if (c.hierarchy.depth == HierarchyDepth::L2) {
        const HierarchyConfig &h = c.hierarchy;
        s += strprintf("L1 MSHRs:     %u entries, secondary misses %s, "
                       "%u writeback slots\n",
                       h.l1Mshr.entries,
                       h.l1Mshr.mergeSecondary ? "merge" : "re-request",
                       h.l1WbEntries);
        s += strprintf("L2:           %uk %u-way unified, %uB blocks, "
                       "%u-cycle hit, %u MSHRs, %u writeback slots\n",
                       h.l2.sizeBytes / 1024, h.l2.assoc, h.l2.blockBytes,
                       h.l2HitLatency, h.l2Mshr.entries, h.l2WbEntries);
        s += strprintf("DRAM:         %u-cycle latency, 1 request / %u "
                       "cycles\n",
                       h.dram.latency, h.dram.issueInterval);
    } else {
        s += "Hierarchy:    flat (L1 miss = fixed latency; paper preset)\n";
    }
    if (c.hierarchy.tlbEnabled) {
        s += strprintf("D-TLB:        %u entries, %uB pages, %u-cycle "
                       "miss penalty\n",
                       c.hierarchy.tlbEntries, c.hierarchy.tlbPageBytes,
                       c.hierarchy.tlbMissPenalty);
    }
    s += strprintf("Store buffer: %u entries, non-merging\n",
                   c.storeBufferEntries);
    s += strprintf("Loads:        %s\n",
                   c.oneCycleLoads ? "1-cycle (idealised)"
                                   : "2-cycle (EX addr calc + MEM access)");
    if (c.agiOrganization)
        s += "Pipeline:     AGI organisation (address-generation stage; "
             "ALU in the cache stage)\n";
    if (c.facEnabled) {
        s += strprintf("FAC:          enabled, B=%u S=%u, %s tag, R+R "
                       "speculation %s, stores %s\n",
                       c.fac.blockBits, c.fac.setBits,
                       c.fac.fullTagAdd ? "full-add" : "OR",
                       c.fac.speculateRegReg ? "on" : "off",
                       c.speculateStores ? "speculated" : "not speculated");
    } else {
        s += "FAC:          disabled\n";
    }
    if (c.pred.stride) {
        s += strprintf("Stride pred:  %u-entry PC-indexed table, "
                       "confidence %u/%u\n",
                       c.pred.strideEntries, c.pred.strideConfThreshold,
                       c.pred.strideConfMax);
    }
    if (c.pred.wayMemo) {
        s += strprintf("Way memo:     %u-entry PC-indexed table, "
                       "mandatory late verify\n",
                       c.pred.wayMemoEntries);
    }
    return s;
}

uint64_t
configFingerprint(const PipelineConfig &c)
{
    // The request encoding of the config: PipelineConfig::fields(),
    // whose completeness the sizeof tripwire in cpu/pipeline.hh guards.
    ser::Writer w;
    ser::put(w, c);
    return ser::fnv1a(w.data().data(), w.data().size());
}

} // namespace facsim
