/**
 * @file
 * Hierarchical statistics registry in the gem5 idiom: a tree of named
 * *views* over numbers their components own, registered under dotted
 * paths ("pipeline.fac.mispredicts", "hier.l1d.mshr.full_stalls", ...)
 * and dumped as aligned text, as a flat stable-schema JSON object or as
 * a Prometheus exposition.
 *
 * A node is one record: a name, a description and one of four sources
 * (StatKind) — a counter bound to a uint64_t, a gauge computed by a
 * function, a distribution summary (DistData) computed by a function,
 * or a Histogram bound by pointer. The owner keeps the storage and
 * bumps it directly (`++st.loads`, `dist.sample(v)`): no map lookups,
 * no virtual calls, no locks on the fast path. The tree is only walked
 * when dumping. A struct declared from a field list (util/fields.hh)
 * registers every listed counter with one Group::fields() call.
 *
 * Lifetime rule: a bound source must outlive every dump of the registry
 * it was registered into.
 *
 * Naming rules (enforced with panic(), death-tested): a component name
 * is non-empty, contains no '.', and is unique among its siblings —
 * registering the same path twice is a simulator bug.
 */

#ifndef FACSIM_OBS_STATS_HH
#define FACSIM_OBS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fields.hh"

namespace facsim::obs
{

/** Running summary of a sampled value: count, sum, sum of squares,
 *  min and max (both 0 while empty). */
struct DistData
{
    uint64_t count = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    sample(double v)
    {
        min = count ? std::min(min, v) : v;
        max = count ? std::max(max, v) : v;
        ++count;
        sum += v;
        sumSq += v * v;
    }

    /** Fold another summary in, as if its samples had come here. */
    void
    merge(const DistData &o)
    {
        if (!o.count)
            return;
        min = count ? std::min(min, o.min) : o.min;
        max = count ? std::max(max, o.max) : o.max;
        count += o.count;
        sum += o.sum;
        sumSq += o.sumSq;
    }

    double mean() const { return count ? sum / count : 0.0; }
    double stddev() const;
};

/**
 * Linear-bucket histogram over [lo, hi): @p nbuckets equal buckets plus
 * underflow/overflow counters. Bucket boundaries are fixed at
 * construction so the dumped schema is stable.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned nbuckets);

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

  private:
    double lo_, hi_, width_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** Where a node's value comes from; drives every dump format. */
enum class StatKind : uint8_t
{
    Counter,       ///< exact integer, bound by pointer
    Gauge,         ///< double computed at dump time
    Distribution,  ///< DistData computed at dump time
    Histogram,     ///< Histogram bound by pointer
};

/** One registered node: a name, a description and one source. */
struct Stat
{
    std::string name;
    std::string desc;
    StatKind kind;
    const uint64_t *counter = nullptr;
    std::function<double()> gauge;
    std::function<DistData()> dist;
    const Histogram *hist = nullptr;
};

/**
 * One node of the registry tree. Components obtain a subgroup under
 * their parent and register views of their numbers into it.
 */
class Group
{
  public:
    Group() = default;

    /** Get-or-create the child group @p name. */
    Group &group(const std::string &name);

    /** @{ @name Node registration (panics on duplicate path). */
    void counter(const std::string &name, const std::string &desc,
                 const uint64_t *v);
    void formula(const std::string &name, const std::string &desc,
                 std::function<double()> fn);
    void distribution(const std::string &name, const std::string &desc,
                      std::function<DistData()> fn);
    void histogram(const std::string &name, const std::string &desc,
                   const Histogram *h);

    /**
     * Register every field of @p s that its list gives a key: u64
     * counters as counters, other numbers as formulas, nested lists as
     * subgroups. Formulas over several fields stay with the callers.
     */
    template <::facsim::fields::StatListed S>
    void fields(const S &s);
    /** @} */

    /** Node at dotted @p path below this group, or nullptr. */
    const Stat *find(const std::string &path) const;

    /**
     * Visit every node below this group in dump order — a group's own
     * nodes in registration order, then its subgroups — with its
     * dotted path; @p prefix is this group's own path.
     */
    void forEach(const std::string &prefix,
                 const std::function<void(const std::string &path,
                                          const Stat &)> &fn) const;

    /**
     * Append the flat JSON object body — `"dotted.path":value` pairs,
     * no surrounding braces — to @p out, which must start empty.
     */
    void dumpJson(std::string &out) const;

  private:
    explicit Group(std::string name) : name_(std::move(name)) {}

    void checkNewName(const std::string &name) const;
    void add(Stat s);

    std::string name_;
    std::vector<std::unique_ptr<Group>> children_;
    std::vector<Stat> stats_;
};

template <::facsim::fields::StatListed S>
void
Group::fields(const S &s)
{
    S::statFields([&](auto m, const ::facsim::fields::Meta &meta) {
        if (!*meta.key)
            return;
        Group &dst = *meta.group ? group(meta.group) : *this;
        const auto &v = s.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (::facsim::fields::StatListed<T>)
            dst.group(meta.key).fields(v);
        else if constexpr (std::is_same_v<T, uint64_t>)
            dst.counter(meta.key, meta.desc, &v);
        else if constexpr (std::is_arithmetic_v<T>)
            dst.formula(meta.key, meta.desc,
                        [p = &v] { return static_cast<double>(*p); });
    });
}

/**
 * A registry is a root group plus the dump formats. The JSON form is
 * versioned so downstream diffing tools can detect schema changes:
 * `{"schema_version":1,"stats":{...}}`.
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

    /** Aligned text dump, one `path  value  # desc` line per node. */
    std::string textDump() const;

    /**
     * Prometheus text exposition of every registered node. Metric
     * names are `facsim_` + the dotted path with every character
     * outside [a-zA-Z0-9_] replaced by '_'; each metric gets a
     * `# HELP` line (the registered description) and a `# TYPE` line.
     * Counters expose as `counter`, gauges as `gauge`, histograms as a
     * native Prometheus `histogram` (cumulative `_bucket{le="..."}`
     * series plus `_sum`/`_count`), distributions as a `summary`
     * (`_sum`/`_count`) with companion `_min`/`_max` gauges.
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
