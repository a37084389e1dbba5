/**
 * @file
 * Per-instruction pipeline event tracing.
 *
 * The pipeline reports one `IssueEvent` per issued instruction —
 * fetch/issue/completion cycles, the FAC predict+verify outcome and the
 * hierarchy level that serviced a memory access — to a `TraceSink`,
 * which disassembles it.
 * Two backends render the stream for existing viewers:
 *
 *  - `KonataTraceSink` writes the Kanata log format understood by the
 *    Konata pipeline viewer (https://github.com/shioyadan/Konata):
 *    open the file with File > Open. Stages shown are F (fetch/decode
 *    wait), X (issue/EX) and M (cache access beyond EX).
 *  - `ChromeTraceSink` writes Chrome trace-event JSON: load it at
 *    chrome://tracing or https://ui.perfetto.dev. One complete ("X")
 *    event per pipeline stage, cycles mapped to microseconds, and
 *    instructions spread over 16 rows so overlap is visible.
 *
 * Tracing is zero-cost when disabled: with no observer attached the
 * pipeline makes one test per issued instruction and never builds an
 * event.
 */

#ifndef FACSIM_OBS_TRACE_HH
#define FACSIM_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "isa/inst.hh"

namespace facsim::obs
{

/**
 * One issued instruction, as the pipeline saw it: the one record the
 * issue hook, the trace sinks and the history ring all receive.
 */
struct IssueEvent
{
    uint64_t cycle = 0;        ///< issue (EX-entry) cycle
    ExecRecord rec;            ///< the instruction issued
    bool speculated = false;   ///< speculative cache access (any source)
    bool mispredicted = false; ///< address verify fired
    /** PredSource of the speculation (None when !speculated). */
    uint8_t predSource = 0;
    /** A memoized way was consulted for this load's access. */
    bool wayMemoUsed = false;
    /** The memoized way was stale: late verify forced a replay. */
    bool wayMemoStale = false;
    uint64_t fetchCycle = 0;   ///< cycle the instruction was fetched
    uint64_t doneCycle = 0;    ///< result-available cycle
    uint8_t memLevel = 0;      ///< 0 none, 1 L1, 2 L2, 3 memory/DRAM
    /**
     * Dynamic index in issue order. Numbered only while a trace sink
     * or history ring is attached; otherwise the count reached so far.
     */
    uint64_t seq = 0;

    bool operator==(const IssueEvent &) const = default;
};

/** Human-readable name of an IssueEvent::memLevel value. */
const char *memLevelName(uint8_t level);

/** Consumer of the pipeline's per-instruction lifecycle stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One issued instruction (called in issue == retirement order). */
    virtual void instruction(const IssueEvent &ev) = 0;

    /** Write any trailer and flush. Idempotent; called by the dtor. */
    virtual void finish() = 0;
};

/** Kanata-format backend for the Konata pipeline viewer. */
class KonataTraceSink final : public TraceSink
{
  public:
    explicit KonataTraceSink(std::ostream &out);

    void instruction(const IssueEvent &ev) override;
    void finish() override;

  private:
    std::ostream &out_;
    uint64_t nextId_ = 0;
    bool finished_ = false;
};

/** Chrome trace-event JSON backend (chrome://tracing, Perfetto). */
class ChromeTraceSink final : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &out);
    ~ChromeTraceSink() override { finish(); }

    void instruction(const IssueEvent &ev) override;
    void finish() override;

  private:
    void event(const char *stage, uint64_t ts, uint64_t dur,
               const IssueEvent &ev, const std::string &text);

    std::ostream &out_;
    bool first_ = true;
    bool finished_ = false;
};

/** Which backend renders the stream. */
enum class TraceFormat : uint8_t
{
    Konata,
    Chrome,
};

/** Parse "konata"/"chrome"; false on anything else. */
bool parseTraceFormat(const std::string &s, TraceFormat &out);

/** Construct the sink for @p format writing to @p out. */
std::unique_ptr<TraceSink> makeTraceSink(TraceFormat format,
                                         std::ostream &out);

/** User-facing trace request (CLI flags / TimingRequest). */
struct TraceOptions
{
    std::string path;  ///< empty => tracing disabled
    TraceFormat format = TraceFormat::Konata;
    uint64_t start = 0;             ///< first dynamic inst to record
    uint64_t count = UINT64_MAX;    ///< how many insts to record

    bool enabled() const { return !path.empty(); }
};

/** An open trace file: the stream plus the sink writing into it. */
struct OpenTrace
{
    std::ofstream file;
    std::unique_ptr<TraceSink> sink;

    ~OpenTrace()
    {
        if (sink)
            sink->finish();
    }
};

/**
 * Open @p opts.path and build its sink; fatal() if the file cannot be
 * created. Returns nullptr when @p opts is disabled.
 */
std::unique_ptr<OpenTrace> openTrace(const TraceOptions &opts);

/**
 * Thread-safe request-span recorder in the same Chrome trace-event
 * JSON the pipeline backend writes (load at chrome://tracing or
 * Perfetto). Each recording thread gets its own track: threads are
 * assigned dense tids on first use, with a `thread_name` metadata
 * event carrying the caller-supplied role ("conn", "sched",
 * "worker"). Complete ("X") events carry the request id in args, so a
 * loadgen burst renders as per-request spans fanned across reader /
 * scheduler / worker tracks. Timestamps are microseconds since
 * construction on the monotonic clock.
 */
class SpanTracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanTracer(std::ostream &out);
    ~SpanTracer() { finish(); }

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** Zero-duration marker event on the calling thread's track. */
    void instant(const char *name, uint64_t req_id);

    /** Complete span [t0, t1) on the calling thread's track. */
    void complete(const char *name, uint64_t req_id, Clock::time_point t0,
                  Clock::time_point t1);

    /**
     * Name the calling thread's track @p role (first call wins); safe
     * to call redundantly — per-thread registration is idempotent.
     */
    void nameThisThread(const char *role);

    /** Write the JSON trailer and flush. Idempotent. */
    void finish();

  private:
    uint64_t tidLocked(const char *role);
    double usSince(Clock::time_point t) const;
    void emitLocked(const std::string &json);

    std::ostream &out_;
    Clock::time_point epoch_;
    std::mutex mu_;
    std::map<std::thread::id, uint64_t> tids_;
    bool first_ = true;
    bool finished_ = false;
};

/**
 * Attach @p t as the process-global span tracer consulted by prof
 * scopes (obs/prof.hh); pass nullptr to detach. The tracer must
 * outlive every thread that may still record (the serve daemon
 * detaches only after its drain joins).
 */
void setSpanTracer(SpanTracer *t);

/** The attached span tracer, or nullptr. */
SpanTracer *spanTracer();

/** The calling thread's current request id (0 outside a request). */
uint64_t currentSpanReqId();

/** RAII: tag this thread's nested spans with a request id. */
class SpanReqScope
{
  public:
    explicit SpanReqScope(uint64_t req_id);
    ~SpanReqScope();

    SpanReqScope(const SpanReqScope &) = delete;
    SpanReqScope &operator=(const SpanReqScope &) = delete;

  private:
    uint64_t prev_;
};

} // namespace facsim::obs

#endif // FACSIM_OBS_TRACE_HH
