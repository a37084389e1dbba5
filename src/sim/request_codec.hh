/**
 * @file
 * Versioned binary codec for experiment requests and results
 * (sim/experiment.hh). One encoding serves two consumers: the
 * experiment service's wire protocol (serve/wire.hh) and its
 * disk-backed result cache (serve/cache.hh), so a response replayed
 * from the cache is byte-for-byte the response the cold run produced.
 *
 * Each layout is its struct's field list, in wire order (`fields()`
 * next to the struct; see util/serialize.hh). Encoders write onto a
 * ser::Writer. Decoders read from a ser::TryReader — the *non-fatal*
 * reader — because both consumers decode untrusted bytes (a client
 * frame, a cache file from an older run): a malformed stream must
 * surface as `!r.ok()` with an error message, never abort the daemon.
 * Decoders validate enum ranges and cap vector lengths for the same
 * reason.
 *
 * Deliberately excluded from TimingRequest: the trace options and the
 * crash-dump history ring. Both are host-side observability attached to
 * the *serving* process, not part of the experiment's identity — two
 * requests differing only in trace settings must hit the same cache
 * entry.
 */

#ifndef FACSIM_SIM_REQUEST_CODEC_HH
#define FACSIM_SIM_REQUEST_CODEC_HH

#include <cstdint>

#include "sim/experiment.hh"
#include "util/serialize.hh"

namespace facsim
{

/**
 * Codec format version. Bump whenever any encoded layout below
 * changes; the wire protocol and the cache container both embed it and
 * reject (protocol error / cold start) streams from another version.
 */
constexpr uint32_t requestCodecVersion = 2;

/** @{ @name Request encoding (canonical bytes; also the cache key input) */
void encodeProfileRequest(ser::Writer &w, const ProfileRequest &req);
void encodeTimingRequest(ser::Writer &w, const TimingRequest &req);
bool decodeProfileRequest(ser::TryReader &r, ProfileRequest *req);
bool decodeTimingRequest(ser::TryReader &r, TimingRequest *req);
/** @} */

/** @{ @name Result encoding */
void encodeProfileResult(ser::Writer &w, const ProfileResult &res);
void encodeTimingResult(ser::Writer &w, const TimingResult &res);
bool decodeProfileResult(ser::TryReader &r, ProfileResult *res);
bool decodeTimingResult(ser::TryReader &r, TimingResult *res);
/** @} */

/**
 * Fingerprint of the workload identity a request builds: name, scale,
 * seed and the full codegen policy. With configFingerprint() and the
 * request-body hash this completes the result-cache key.
 */
uint64_t workloadFingerprint(const std::string &workload,
                             const BuildOptions &build);

} // namespace facsim

#endif // FACSIM_SIM_REQUEST_CODEC_HH
