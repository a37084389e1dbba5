/**
 * @file
 * Canonical simulator configurations: the Table 5 baseline machine and
 * the fast-address-calculation variants evaluated in Section 5.
 */

#ifndef FACSIM_SIM_CONFIG_HH
#define FACSIM_SIM_CONFIG_HH

#include <string>

#include "cpu/pipeline.hh"

namespace facsim
{

/** The Table 5 baseline 4-way superscalar (no fast address calculation). */
PipelineConfig baselineConfig(uint32_t dcache_block_bytes = 32);

/**
 * Baseline plus fast address calculation.
 *
 * @param dcache_block_bytes 16 or 32 (the two block sizes of Figure 6).
 * @param speculate_rr enable register+register mode speculation.
 * @param full_tag_add full addition in the tag field (Section 3.1).
 */
PipelineConfig facPipelineConfig(uint32_t dcache_block_bytes = 32,
                                 bool speculate_rr = true,
                                 bool full_tag_add = true);

/** Section 6 comparison: the AGI pipeline organisation. */
PipelineConfig agiConfig(uint32_t dcache_block_bytes = 32);

/** Figure 2 idealisation: loads complete in one cycle. */
PipelineConfig oneCycleLoadConfig(uint32_t dcache_block_bytes = 32);
/** Figure 2 idealisation: no data-cache miss penalty. */
PipelineConfig perfectCacheConfig(uint32_t dcache_block_bytes = 32);
/** Figure 2 idealisation: both of the above. */
PipelineConfig oneCyclePerfectConfig(uint32_t dcache_block_bytes = 32);

/** FacConfig matching a data-cache geometry. */
FacConfig facConfigFor(const CacheConfig &dcache, bool speculate_rr = true,
                       bool full_tag_add = true);

/**
 * Accepted `--predictor=` spellings, nullptr-terminated for
 * parse::oneOfFlag: none, fac, stride, fac+stride, fac+waymemo,
 * fac+stride+waymemo.
 */
extern const char *const kPredictorChoices[];

/**
 * Pipeline configuration for one predictor-zoo mode (see
 * cpu/load_predictor.hh). "none" is the baseline machine, "fac" is
 * facPipelineConfig() exactly, the other modes layer the PC-indexed
 * stride predictor and/or way memoization on top. Dies with a usage
 * message for any spelling not in kPredictorChoices.
 */
PipelineConfig predictorPipelineConfig(const std::string &mode,
                                       uint32_t dcache_block_bytes = 32,
                                       bool speculate_rr = true);

/**
 * Flat single-level memory hierarchy — the paper's machine (Table 5):
 * every L1 miss costs `dcache.missLatency` cycles, misses are unbounded
 * and untracked, writebacks are free. This is the default in
 * `PipelineConfig`; results are bit-identical to the pre-hierarchy
 * simulator.
 */
HierarchyConfig paperHierarchy();

/**
 * A deeper, contemporary hierarchy under the same 16 KB L1: 256 KB
 * 8-way unified L2 (64 B blocks, 12-cycle L1-miss-to-data), 8 L1 MSHRs
 * with secondary-miss merging, 4 L1 writeback-buffer slots, 16 L2
 * MSHRs, 8 L2 writeback slots, and an 80-cycle DRAM that can start one
 * request every 8 cycles.
 */
HierarchyConfig modernHierarchy();

/** Look up a hierarchy preset by name ("paper" or "modern"). */
HierarchyConfig hierarchyPreset(const std::string &name);

/** Render the Table 5 parameter listing for a configuration. */
std::string describeConfig(const PipelineConfig &config);

/**
 * Fingerprint of every timing-relevant PipelineConfig field. One hash
 * identifies one experiment configuration across the whole system:
 * timing checkpoints embed it so a restore into a differently
 * configured pipeline fails loudly (sim/checkpoint.hh), live-point
 * libraries record the configuration that cut them (sim/lvpt.hh), and
 * the experiment-serving result cache keys on it (serve/cache.hh).
 *
 * It is the FNV-1a hash of the config's request encoding, i.e. of
 * PipelineConfig::fields(); a sizeof tripwire next to that list makes
 * growing PipelineConfig without listing the new field a compile
 * error.
 */
uint64_t configFingerprint(const PipelineConfig &cfg);

} // namespace facsim

#endif // FACSIM_SIM_CONFIG_HH
