/**
 * @file
 * Host-phase time attribution: scoped monotonic-clock timers
 * (`FACSIM_PROF_SCOPE(Phase)`) that aggregate wall time per coarse
 * host phase — block translation, functional warmup, detailed
 * windows, drain, cache (de)serialization, response encoding — into a
 * process-global store published as `prof.*` distribution stats
 * (registerProfStats).
 *
 * Cost model: every scope is two steady_clock reads plus an
 * uncontended per-thread mutex, and the sites are per-phase (once per
 * translated block / sample window / request), never per instruction
 * — the measured budget is <=2% on BM_PipelineRate. Building with
 * -DFACSIM_PROF=OFF (-DFACSIM_PROF_ON=0) empties the scope's inline
 * ctor/dtor so the sites vanish entirely, mirroring FACSIM_TRACING.
 *
 * Threading: recording touches only the calling thread's accumulator
 * block (registered once, retired into a global tally on thread
 * exit), so Runner workers never contend; snapshots merge every live
 * block under the registration mutex. When a span tracer is attached
 * (obs/trace.hh setSpanTracer) each scope additionally emits a
 * complete span tagged with the thread's current request id, which is
 * how server request ids surface inside the experiment timeline.
 */

#ifndef FACSIM_OBS_PROF_HH
#define FACSIM_OBS_PROF_HH

#include <chrono>
#include <cstdint>

#include "obs/stats.hh"

/** Compile-time master switch for prof scopes (1 = compiled in). */
#ifndef FACSIM_PROF_ON
#define FACSIM_PROF_ON 1
#endif

namespace facsim::obs
{

/** The attributed host phases (extend here; keep names in sync). */
enum class ProfPhase : unsigned
{
    BlockTranslate,  ///< emulator basic-block translation
    Warmup,          ///< functional fast-forward with warming
    DetailedWindow,  ///< detailed pipeline execution (warmup + measured)
    Drain,           ///< in-flight drain between sample windows
    CacheSave,       ///< result-cache serialization to disk
    CacheLoad,       ///< result-cache deserialization from disk
    Encode,          ///< response encoding in the serve daemon
    NumPhases,
};

constexpr unsigned numProfPhases =
    static_cast<unsigned>(ProfPhase::NumPhases);

/** Stable lowercase phase name ("translate", "warmup", ...). */
const char *profPhaseName(ProfPhase p);

/** Whether scopes were compiled in (false under -DFACSIM_PROF=OFF). */
bool profCompiledIn();

/**
 * Snapshot one phase's tally in microseconds per scope, merged across
 * every thread that ever recorded (live threads + retired).
 */
DistData profSnapshot(ProfPhase p);

/** Zero every accumulator (test isolation). */
void profReset();

/**
 * Publish one `prof.<phase>` distribution per phase (sample unit:
 * microseconds per scope) into @p g — conventionally the registry
 * root's "prof" group.
 */
void registerProfStats(Group &g);

/** Scope end hook; also emits a span when a tracer is attached. */
void profScopeEnd(ProfPhase p,
                  std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1);

/** RAII timer; use via FACSIM_PROF_SCOPE, not directly. */
class ProfScope
{
  public:
    explicit ProfScope(ProfPhase p)
    {
#if FACSIM_PROF_ON
        phase_ = p;
        t0_ = std::chrono::steady_clock::now();
#else
        (void)p;
#endif
    }

    ~ProfScope()
    {
#if FACSIM_PROF_ON
        profScopeEnd(phase_, t0_, std::chrono::steady_clock::now());
#endif
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

#if FACSIM_PROF_ON
  private:
    ProfPhase phase_{};
    std::chrono::steady_clock::time_point t0_{};
#endif
};

} // namespace facsim::obs

#define FACSIM_PROF_CAT2(a, b) a##b
#define FACSIM_PROF_CAT(a, b) FACSIM_PROF_CAT2(a, b)

/**
 * Time the enclosing scope into phase @p phase (a bare ProfPhase
 * enumerator name). Compiles to nothing under -DFACSIM_PROF=OFF.
 */
#define FACSIM_PROF_SCOPE(phase)                                            \
    ::facsim::obs::ProfScope FACSIM_PROF_CAT(facsim_prof_scope_,            \
                                             __LINE__)(                     \
        ::facsim::obs::ProfPhase::phase)

#endif // FACSIM_OBS_PROF_HH
