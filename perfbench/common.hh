/**
 * @file
 * Shared plumbing of the facbench binary: options and seed mapping,
 * the in-memory span recorder behind traced runs, the injected delay
 * of the sensitivity self-test, the result report, and small
 * statistics helpers.
 */

#ifndef FACBENCH_COMMON_HH
#define FACBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"

namespace facbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
since(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /**
     * Sensitivity self-test: stretch every Figure 6 job and every
     * replay Pipeline::run call by this fraction (0.10 = +10%) with a
     * calibrated busy-wait. 0 = off.
     */
    double injectDelay = 0.0;
    /** Host threads the run may keep busy at once: min(4, nproc). */
    unsigned threads = 4;
    /** Scratch directory inside the checkout (libraries, sockets). */
    std::string workDir = ".bench_build/work";
    /** Figure 6 golden table at the 200k budget; may not exist. */
    std::string goldenPath = "tests/golden/fig6_200k.txt";
    /** Chrome trace output of a traced run. */
    std::string tracePath;
    /** This executable, re-spawned as the serve daemon. */
    std::string selfExe;
    /** Source revision recorded in the result identity. */
    std::string rev;
};

/** The seed whose outputs are pinned (goldens and digests). */
constexpr uint64_t kDefaultSeed = 1;

inline bool
isDefaultSeed(const Options &o)
{
    return o.seed == kDefaultSeed;
}

/** Workload data seed: the repository default for the default seed. */
uint64_t buildSeed(const Options &o);

/** Seed of the serve-mixed request schedule. */
uint64_t scheduleSeed(const Options &o);

// ---------------------------------------------------------------------
// Spans

/** One recorded span. */
struct SpanRec
{
    std::string name;
    double t0 = 0.0, t1 = 0.0;  ///< seconds since the tracer epoch
    int64_t parent = -1;        ///< index of the causing span, -1 = root
    uint64_t req = 0;           ///< request id (0 = none)
    unsigned tid = 0;           ///< dense per-thread track id
};

/** Aggregate of one span name: calls, total and self time. */
struct LayerTime
{
    uint64_t calls = 0;
    double totalS = 0.0;
    double selfS = 0.0;
};

/**
 * In-memory span recorder. Disabled it costs one relaxed atomic load
 * per span site; enabled, each span takes two clock reads and one
 * mutex-guarded append. Spans are written out as Chrome trace JSON
 * when the run ends.
 */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Open a span; returns its id, or -1 while disabled. */
    int64_t begin(const char *name, int64_t parent, uint64_t req);
    /** Close span @p id (no-op for -1). */
    void end(int64_t id);

    /**
     * Calls, total and self time per span name, leaving out the span
     * named @p exclude and everything below it.
     */
    std::map<std::string, LayerTime>
    layerTimes(const std::string &exclude) const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

    size_t size() const;

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    std::atomic<bool> on_{false};
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

Tracer &tracer();

/**
 * RAII span. The parent defaults to the innermost open span on this
 * thread; pass an explicit parent for work handed to another thread.
 */
class Span
{
  public:
    static constexpr int64_t kInherit = -2;

    explicit Span(const char *name, int64_t parent = kInherit,
                  uint64_t req = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return id_; }

  private:
    int64_t id_;
    int64_t prev_;
};

// ---------------------------------------------------------------------
// Injected delay

/**
 * After work that began at @p t0, spin until it has taken
 * (1 + @p fraction) times as long. A busy-wait, not a sleep: the delay
 * costs CPU like slower code would, in proportion to the work.
 */
void stretchSince(Clock::time_point t0, double fraction);

/**
 * Pipeline::run as the layer replay calls it: inside a "pipeline.run"
 * span, stretched by @p inject_delay.
 */
facsim::PipeStats runPipeline(facsim::Pipeline &pipe, uint64_t max_insts,
                              double inject_delay);

// ---------------------------------------------------------------------
// Report

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one invocation reports: metrics, operation and
 * output-check counts, and extra record fields (raw JSON values).
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count one attempted operation; @p ok false counts a failure. */
    void op(bool ok, const std::string &what);

    /** An output check: counted like an operation, printed on failure. */
    void check(bool ok, const std::string &what);

    /** Attach a raw JSON value under @p key in the record. */
    void info(const std::string &key, const std::string &json);

    /** The whole record as one JSON object. */
    std::string json() const;

  private:
    mutable std::mutex mu_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
};

// ---------------------------------------------------------------------
// Statistics and formatting

/** Percentile @p p in [0,1] of @p v, linearly interpolated (0 if empty). */
double quantileOf(std::vector<double> v, double p);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * A tail latency of repeated passes: the highest percentile one pass of
 * @p per_pass samples supports with at least ten samples beyond it
 * (choosing-metrics: report a tail only where it is measured), read off
 * @p pool, every pass's samples together. The percentile depends only on
 * the pass, not on how many passes a run fits, and the pool has ten
 * samples beyond it per pass, so the value moves smoothly from run to run.
 */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
    size_t samples = 0;  ///< in the pool
};
Tail tailOf(std::vector<double> pool, size_t per_pass);

/** JSON number with every digit (non-finite values print as 0). */
std::string jnum(double v);
/** JSON array of numbers. */
std::string jarr(const std::vector<double> &v);
/** JSON string literal. */
std::string jstr(const std::string &s);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** FNV-1a over a string. */
uint64_t digest(const std::string &s);

std::string hex64(uint64_t v);

} // namespace facbench

#endif // FACBENCH_COMMON_HH
