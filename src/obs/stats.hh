/**
 * @file
 * Hierarchical statistics registry in the gem5 idiom: named stat nodes
 * (Counter / Scalar / Histogram / Distribution / Formula) registered
 * under dotted component paths ("pipeline.fac.mispredicts",
 * "hier.l1d.mshr.full_stalls", ...) and dumped as aligned text or as a
 * flat, stable-schema JSON object.
 *
 * Hot-path cost model: a stat is a plain member object the owning
 * component increments directly (`++ctr`, `dist.sample(v)`) — no map
 * lookups, no virtual calls, no locks on the fast path. The tree is
 * only walked when dumping. Components that already keep raw counters
 * (PipeStats, HierarchyStats, ProfileResult) are published through
 * *view* nodes that bind the existing fields by pointer, so the legacy
 * structs remain the storage, the simulation loop is untouched, and
 * every figure/table byte stays identical (see sim/obs_views.hh).
 *
 * Naming rules (enforced with panic(), death-tested): a component name
 * is non-empty, contains no '.', and is unique among its siblings —
 * registering the same path twice is a simulator bug.
 */

#ifndef FACSIM_OBS_STATS_HH
#define FACSIM_OBS_STATS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace facsim::obs
{

/** What a stat node is; fixed at registration, drives the JSON shape. */
enum class StatKind : uint8_t
{
    Counter,       ///< monotonically increasing integer
    Scalar,        ///< arbitrary settable double
    Histogram,     ///< linear-bucket value histogram
    Distribution,  ///< running count/mean/stddev/min/max
    Formula,       ///< value computed from other stats at dump time
};

/** Base of every registered node. */
class Stat
{
  public:
    Stat(StatKind kind, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    StatKind kind() const { return kind_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Append this node's JSON value (number or object) to @p out. */
    virtual void jsonValue(std::string &out) const = 0;

    /** One-line text rendering for the aligned dump. */
    virtual std::string textValue() const = 0;

  private:
    StatKind kind_;
    std::string name_;
    std::string desc_;
};

/** Monotonic event counter. Plain increments; safe to copy-from never. */
class Counter final : public Stat
{
  public:
    Counter(std::string name, std::string desc)
        : Stat(StatKind::Counter, std::move(name), std::move(desc))
    {
    }

    Counter &operator++()
    {
        ++v_;
        return *this;
    }
    Counter &operator+=(uint64_t d)
    {
        v_ += d;
        return *this;
    }

    uint64_t value() const { return v_; }

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    uint64_t v_ = 0;
};

/** Settable floating-point value (sizes, rates computed by the owner). */
class Scalar final : public Stat
{
  public:
    Scalar(std::string name, std::string desc)
        : Stat(StatKind::Scalar, std::move(name), std::move(desc))
    {
    }

    void set(double v) { v_ = v; }
    double value() const { return v_; }

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    double v_ = 0.0;
};

/**
 * Linear-bucket histogram over [lo, hi): @p nbuckets equal buckets plus
 * underflow/overflow counters. Bucket boundaries are fixed at
 * registration so the dumped schema is stable.
 */
class Histogram final : public Stat
{
  public:
    Histogram(std::string name, std::string desc, double lo, double hi,
              unsigned nbuckets);

    void sample(double v, uint64_t weight = 1);

    uint64_t count() const { return count_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    uint64_t bucket(unsigned i) const { return buckets_[i]; }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    double bucketWidth() const { return width_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double sum() const { return sum_; }

    /**
     * Estimate the @p p percentile (0.0 .. 1.0, clamped) from the
     * bucket counts, interpolating linearly inside the bucket that
     * crosses the target rank. Mass in the underflow bucket reads as
     * lo, overflow as hi (the estimate saturates at the range edges).
     * Returns 0.0 on an empty histogram.
     */
    double percentile(double p) const;

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    double lo_, hi_, width_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** Running distribution: count, sum, min, max, mean, stddev. */
class Distribution final : public Stat
{
  public:
    Distribution(std::string name, std::string desc)
        : Stat(StatKind::Distribution, std::move(name), std::move(desc))
    {
    }

    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        sumSq_ += v * v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Point-in-time summary of an externally accumulated distribution. */
struct DistData
{
    uint64_t count = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;  ///< 0 when count == 0

    double mean() const { return count ? sum / count : 0.0; }
    double stddev() const;
};

/**
 * Distribution-shaped view over data owned elsewhere (e.g. the
 * process-global phase profiler, obs/prof.hh): the callback is invoked
 * at dump time and the node renders exactly like a Distribution, so
 * the JSON schema cannot tell them apart.
 */
class DistributionView final : public Stat
{
  public:
    DistributionView(std::string name, std::string desc,
                     std::function<DistData()> fn)
        : Stat(StatKind::Distribution, std::move(name), std::move(desc)),
          fn_(std::move(fn))
    {
    }

    DistData value() const { return fn_(); }

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    std::function<DistData()> fn_;
};

/** Value derived from other stats, evaluated lazily at dump time. */
class Formula final : public Stat
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : Stat(StatKind::Formula, std::move(name), std::move(desc)),
          fn_(std::move(fn))
    {
    }

    double value() const { return fn_(); }

    void jsonValue(std::string &out) const override;
    std::string textValue() const override;

  private:
    std::function<double()> fn_;
};

/**
 * One node of the registry tree. Components obtain a subgroup under
 * their parent and register their stats into it; nodes are owned by the
 * group and live until the group is destroyed.
 */
class Group
{
  public:
    Group() : name_() {}

    /** Get-or-create the child group @p name. */
    Group &group(const std::string &name);

    /** @{ @name Node registration (panics on duplicate path). */
    Counter &counter(const std::string &name, const std::string &desc);
    Scalar &scalar(const std::string &name, const std::string &desc);
    Histogram &histogram(const std::string &name, const std::string &desc,
                         double lo, double hi, unsigned nbuckets);
    Distribution &distribution(const std::string &name,
                               const std::string &desc);
    Formula &formula(const std::string &name, const std::string &desc,
                     std::function<double()> fn);
    DistributionView &distributionView(const std::string &name,
                                       const std::string &desc,
                                       std::function<DistData()> fn);
    /**
     * Read-only integer view bound to an externally owned counter (the
     * legacy-struct migration path; @p v must outlive every dump).
     */
    Formula &counterView(const std::string &name, const std::string &desc,
                         const uint64_t *v);
    /** @} */

    /** Node at dotted @p path below this group, or nullptr. */
    const Stat *find(const std::string &path) const;
    /** Child group @p name, or nullptr. */
    const Group *findGroup(const std::string &name) const;

    /**
     * Aligned text dump, one `path  value  # desc` line per node in
     * registration order, prefixed by this group's dotted @p prefix.
     */
    void dumpText(std::ostream &out, const std::string &prefix = "") const;

    /**
     * Flat JSON object body: `"dotted.path":value` pairs in
     * registration order (no surrounding braces so callers can embed).
     */
    void dumpJson(std::string &out, const std::string &prefix = "") const;

    /**
     * Prometheus text-exposition lines for every node under this
     * group (see Registry::promDump for the naming/typing rules).
     */
    void dumpProm(std::string &out, const std::string &prefix = "") const;

  private:
    explicit Group(std::string name) : name_(std::move(name)) {}

    void checkNewName(const std::string &name) const;
    template <typename T, typename... Args>
    T &add(const std::string &name, Args &&...args);

    std::string name_;
    std::vector<std::unique_ptr<Group>> children_;
    std::vector<std::unique_ptr<Stat>> stats_;
};

/**
 * A registry is a root group plus the two canonical dump formats. The
 * JSON form is versioned so downstream diffing tools can detect schema
 * changes: `{"schema_version":1,"stats":{...}}`.
 */
class Registry
{
  public:
    /** Version of the dumped JSON schema. */
    static constexpr unsigned schemaVersion = 1;

    Group &root() { return root_; }
    const Group &root() const { return root_; }

    /** Full JSON document (one object, stable key order). */
    std::string jsonDump() const;

    /** Aligned text dump of every registered node. */
    std::string textDump() const;

    /**
     * Prometheus text exposition of every registered node. Metric
     * names are `facsim_` + the dotted path with every character
     * outside [a-zA-Z0-9_] replaced by '_'; each metric gets a
     * `# HELP` line (the registered description) and a `# TYPE` line.
     * Counters expose as `counter`, scalars/formulas as `gauge`,
     * histograms as a native Prometheus `histogram` (cumulative
     * `_bucket{le="..."}` series plus `_sum`/`_count`), distributions
     * as a `summary` (`_sum`/`_count`) with companion `_min`/`_max`
     * gauges.
     */
    std::string promDump() const;

    /**
     * Write jsonDump() or textDump() to @p path by suffix (".json"),
     * atomically (util/sealed.hh); fatal when the write fails.
     */
    void writeFile(const std::string &path) const;

  private:
    Group root_;
};

/** Format a double as a JSON-safe number (finite, shortest round). */
std::string jsonNumber(double v);

/** Sanitize a dotted stat path into a Prometheus metric name. */
std::string promName(const std::string &path);

} // namespace facsim::obs

#endif // FACSIM_OBS_STATS_HH
