/**
 * @file
 * Architectural checkpoints: save a running simulation to a file and
 * resume it later, bit-identically.
 *
 * Two checkpoint kinds share one container format:
 *
 *  - *functional*: the Emulator's architectural state (registers, FP
 *    registers, condition code, PC, instruction count) plus the touched
 *    pages of simulated Memory. Restoring positions a freshly built
 *    Machine exactly where the saved one was.
 *  - *timing*: the functional state plus the complete Pipeline timing
 *    state — statistics, clocks, the fetch buffer and in-flight store
 *    patches, scoreboards, functional units, I-cache/BTB/store-buffer
 *    and the whole data hierarchy (tags, MSHRs, writeback buffers,
 *    DRAM channel, TLB). In-flight MSHR/writeback/DRAM state is stored
 *    as absolute completion cycles and the cycle counter itself is
 *    saved, so no drain or quiescence point is required: a save is
 *    legal at any cycle boundary and the resumed run replays the
 *    remaining cycles bit-identically.
 *
 * Container: magic "FACSIMCK", a format version, the checkpoint kind,
 * an identity header (workload name, scale, seed, codegen-policy
 * marker, and for timing checkpoints a fingerprint of the
 * PipelineConfig), the state sections, and a trailing FNV-1a 64
 * checksum over everything before it. The loader rejects — with a
 * clear fatal message — files that are not checkpoints, truncated or
 * corrupted files, unknown versions, kind mismatches, and checkpoints
 * taken from a different workload/build/pipeline configuration.
 */

#ifndef FACSIM_SIM_CHECKPOINT_HH
#define FACSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "cpu/pipeline.hh"
#include "sim/machine.hh"

namespace facsim
{

/**
 * Container format version written by this build. v2: FetchedInst
 * serializes its fetch cycle and the pipeline its dynamic-sequence
 * counter (observability-layer per-instruction records). v3: every
 * cache's tag array is packed (Cache::fields(): one u32 per line plus
 * a one-byte LRU rank per line of an associative cache).
 */
constexpr uint32_t checkpointVersion = 3;

/** What a checkpoint file contains. */
enum class CheckpointKind : uint8_t
{
    Functional = 0,  ///< Emulator + Memory
    Timing = 1,      ///< Functional plus the full Pipeline state
};

// Timing checkpoints embed configFingerprint(cfg) (sim/config.hh) so a
// restore into a differently configured pipeline fails loudly instead
// of silently desynchronising. The fingerprint lives in sim/config
// because the live-point library and the experiment-serving result
// cache key on the same hash.

/** Save the machine's functional state to @p path (fatal on I/O error). */
void saveFunctionalCheckpoint(const std::string &path, const Machine &m);

/**
 * Restore a functional checkpoint into @p m, which must have been built
 * from the same workload/scale/seed/policy (fatal otherwise).
 */
void restoreFunctionalCheckpoint(const std::string &path, Machine &m);

/** Save functional + timing state (fatal on I/O error). */
void saveTimingCheckpoint(const std::string &path, const Machine &m,
                          const Pipeline &pipe);

/**
 * Restore a timing checkpoint into @p m / @p pipe. The machine must
 * match the checkpoint identity and the pipeline must be configured
 * identically to the one that saved it (fatal otherwise).
 */
void restoreTimingCheckpoint(const std::string &path, Machine &m,
                             Pipeline &pipe);

/** Kind recorded in a checkpoint file (validates container + checksum). */
CheckpointKind checkpointKindOf(const std::string &path);

} // namespace facsim

#endif // FACSIM_SIM_CHECKPOINT_HH
