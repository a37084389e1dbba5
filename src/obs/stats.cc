#include "obs/stats.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/sealed.hh"

namespace facsim::obs
{

// ---------------------------------------------------------------------------
// Stat

Stat::Stat(StatKind kind, std::string name, std::string desc)
    : kind_(kind), name_(std::move(name)), desc_(std::move(desc))
{
    FACSIM_ASSERT(!name_.empty(), "stat registered with an empty name");
    FACSIM_ASSERT(name_.find('.') == std::string::npos,
                  "stat name '%s' must not contain '.' (use nested "
                  "groups for hierarchy)",
                  name_.c_str());
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";  // NaN/Inf are not JSON; guarded ratios dump as 0
    // %.9g round-trips every value the simulator produces and keeps the
    // dump byte-stable across runs of the same simulation.
    return strprintf("%.9g", v);
}

void
Counter::jsonValue(std::string &out) const
{
    out += strprintf("%llu", static_cast<unsigned long long>(v_));
}

std::string
Counter::textValue() const
{
    return strprintf("%llu", static_cast<unsigned long long>(v_));
}

void
Scalar::jsonValue(std::string &out) const
{
    out += jsonNumber(v_);
}

std::string
Scalar::textValue() const
{
    return strprintf("%.6f", v_);
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, unsigned nbuckets)
    : Stat(StatKind::Histogram, std::move(name), std::move(desc)),
      lo_(lo), hi_(hi)
{
    FACSIM_ASSERT(nbuckets > 0, "histogram '%s' needs at least 1 bucket",
                  this->name().c_str());
    FACSIM_ASSERT(hi > lo, "histogram '%s' range [%g, %g) is empty",
                  this->name().c_str(), lo, hi);
    width_ = (hi_ - lo_) / nbuckets;
    buckets_.assign(nbuckets, 0);
}

void
Histogram::sample(double v, uint64_t weight)
{
    count_ += weight;
    sum_ += v * weight;
    if (v < lo_) {
        underflow_ += weight;
    } else if (v >= hi_) {
        overflow_ += weight;
    } else {
        auto i = static_cast<size_t>((v - lo_) / width_);
        if (i >= buckets_.size())  // FP edge at hi_ - epsilon
            i = buckets_.size() - 1;
        buckets_[i] += weight;
    }
}

void
Histogram::jsonValue(std::string &out) const
{
    out += strprintf("{\"lo\":%s,\"hi\":%s,\"bucket_width\":%s,"
                     "\"underflow\":%llu,\"overflow\":%llu,\"count\":%llu,"
                     "\"sum\":%s,\"buckets\":[",
                     jsonNumber(lo_).c_str(), jsonNumber(hi_).c_str(),
                     jsonNumber(width_).c_str(),
                     static_cast<unsigned long long>(underflow_),
                     static_cast<unsigned long long>(overflow_),
                     static_cast<unsigned long long>(count_),
                     jsonNumber(sum_).c_str());
    for (size_t i = 0; i < buckets_.size(); ++i)
        out += strprintf("%s%llu", i ? "," : "",
                         static_cast<unsigned long long>(buckets_[i]));
    out += "]}";
}

double
Histogram::percentile(double p) const
{
    if (!count_)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    // Cumulative mass walk: underflow reads as lo, overflow as hi, and
    // the bucket crossing the target rank interpolates linearly.
    double target = p * static_cast<double>(count_);
    double cum = static_cast<double>(underflow_);
    if (target <= cum)
        return lo_;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        double b = static_cast<double>(buckets_[i]);
        if (b > 0.0 && cum + b >= target) {
            double frac = (target - cum) / b;
            return lo_ + width_ * (static_cast<double>(i) + frac);
        }
        cum += b;
    }
    return hi_;
}

std::string
Histogram::textValue() const
{
    return strprintf("count=%llu mean=%.4f (%zu buckets [%g, %g), "
                     "under=%llu over=%llu)",
                     static_cast<unsigned long long>(count_),
                     count_ ? sum_ / count_ : 0.0, buckets_.size(), lo_,
                     hi_, static_cast<unsigned long long>(underflow_),
                     static_cast<unsigned long long>(overflow_));
}

// ---------------------------------------------------------------------------
// Distribution

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    double mean = sum_ / count_;
    double var = sumSq_ / count_ - mean * mean;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::jsonValue(std::string &out) const
{
    out += strprintf("{\"count\":%llu,\"mean\":%s,\"stddev\":%s,"
                     "\"min\":%s,\"max\":%s}",
                     static_cast<unsigned long long>(count_),
                     jsonNumber(mean()).c_str(),
                     jsonNumber(stddev()).c_str(),
                     jsonNumber(min()).c_str(),
                     jsonNumber(max()).c_str());
}

std::string
Distribution::textValue() const
{
    return strprintf("count=%llu mean=%.4f stddev=%.4f min=%.4f max=%.4f",
                     static_cast<unsigned long long>(count_), mean(),
                     stddev(), min(), max());
}

double
DistData::stddev() const
{
    if (count < 2)
        return 0.0;
    double m = sum / count;
    double var = sumSq / count - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
DistributionView::jsonValue(std::string &out) const
{
    DistData d = fn_();
    out += strprintf("{\"count\":%llu,\"mean\":%s,\"stddev\":%s,"
                     "\"min\":%s,\"max\":%s}",
                     static_cast<unsigned long long>(d.count),
                     jsonNumber(d.mean()).c_str(),
                     jsonNumber(d.stddev()).c_str(),
                     jsonNumber(d.min).c_str(),
                     jsonNumber(d.max).c_str());
}

std::string
DistributionView::textValue() const
{
    DistData d = fn_();
    return strprintf("count=%llu mean=%.4f stddev=%.4f min=%.4f max=%.4f",
                     static_cast<unsigned long long>(d.count), d.mean(),
                     d.stddev(), d.min, d.max);
}

void
Formula::jsonValue(std::string &out) const
{
    out += jsonNumber(value());
}

std::string
Formula::textValue() const
{
    return strprintf("%.6f", value());
}

// ---------------------------------------------------------------------------
// Group

void
Group::checkNewName(const std::string &name) const
{
    FACSIM_ASSERT(!name.empty(), "stat/group registered with empty name");
    FACSIM_ASSERT(name.find('.') == std::string::npos,
                  "name '%s' must not contain '.'", name.c_str());
    for (const auto &g : children_) {
        FACSIM_ASSERT(g->name_ != name,
                      "duplicate stats path: group '%s' already "
                      "registered here",
                      name.c_str());
    }
    for (const auto &s : stats_) {
        FACSIM_ASSERT(s->name() != name,
                      "duplicate stats path: stat '%s' already "
                      "registered here",
                      name.c_str());
    }
}

Group &
Group::group(const std::string &name)
{
    for (const auto &g : children_) {
        if (g->name_ == name)
            return *g;
    }
    checkNewName(name);
    children_.emplace_back(new Group(name));
    return *children_.back();
}

template <typename T, typename... Args>
T &
Group::add(const std::string &name, Args &&...args)
{
    checkNewName(name);
    auto node = std::make_unique<T>(name, std::forward<Args>(args)...);
    T &ref = *node;
    stats_.push_back(std::move(node));
    return ref;
}

Counter &
Group::counter(const std::string &name, const std::string &desc)
{
    return add<Counter>(name, desc);
}

Scalar &
Group::scalar(const std::string &name, const std::string &desc)
{
    return add<Scalar>(name, desc);
}

Histogram &
Group::histogram(const std::string &name, const std::string &desc,
                 double lo, double hi, unsigned nbuckets)
{
    return add<Histogram>(name, desc, lo, hi, nbuckets);
}

Distribution &
Group::distribution(const std::string &name, const std::string &desc)
{
    return add<Distribution>(name, desc);
}

Formula &
Group::formula(const std::string &name, const std::string &desc,
               std::function<double()> fn)
{
    return add<Formula>(name, desc, std::move(fn));
}

DistributionView &
Group::distributionView(const std::string &name, const std::string &desc,
                        std::function<DistData()> fn)
{
    return add<DistributionView>(name, desc, std::move(fn));
}

Formula &
Group::counterView(const std::string &name, const std::string &desc,
                   const uint64_t *v)
{
    FACSIM_ASSERT(v != nullptr, "counterView '%s' bound to null",
                  name.c_str());
    // A bound view dumps as an integer; implemented over Formula with an
    // exact conversion (counters stay far below 2^53 in practice).
    return add<Formula>(name, desc,
                        [v] { return static_cast<double>(*v); });
}

const Stat *
Group::find(const std::string &path) const
{
    size_t dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto &s : stats_) {
            if (s->name() == path)
                return s.get();
        }
        return nullptr;
    }
    const Group *g = findGroup(path.substr(0, dot));
    return g ? g->find(path.substr(dot + 1)) : nullptr;
}

const Group *
Group::findGroup(const std::string &name) const
{
    for (const auto &g : children_) {
        if (g->name_ == name)
            return g.get();
    }
    return nullptr;
}

void
Group::dumpText(std::ostream &out, const std::string &prefix) const
{
    std::string base = prefix.empty()
        ? name_
        : (name_.empty() ? prefix : prefix + "." + name_);
    for (const auto &s : stats_) {
        std::string path = base.empty() ? s->name() : base + "." + s->name();
        std::string line = strprintf("%-44s %20s", path.c_str(),
                                     s->textValue().c_str());
        if (!s->desc().empty())
            line += strprintf("  # %s", s->desc().c_str());
        out << line << "\n";
    }
    for (const auto &g : children_)
        g->dumpText(out, base);
}

void
Group::dumpJson(std::string &out, const std::string &prefix) const
{
    std::string base = prefix.empty()
        ? name_
        : (name_.empty() ? prefix : prefix + "." + name_);
    for (const auto &s : stats_) {
        if (out.size() > 1 && out.back() != '{')
            out += ',';
        std::string path = base.empty() ? s->name() : base + "." + s->name();
        out += '"';
        out += path;  // names are dot-free identifiers, no escaping needed
        out += "\":";
        s->jsonValue(out);
    }
    for (const auto &g : children_)
        g->dumpJson(out, base);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

std::string
promName(const std::string &path)
{
    std::string out = "facsim_";
    for (char c : path) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

namespace
{

/** HELP text with the two characters the exposition format escapes. */
std::string
promEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
promHeader(std::string &out, const std::string &name,
           const std::string &desc, const char *type)
{
    out += "# HELP " + name + " " + promEscape(desc.empty() ? name : desc) +
           "\n";
    out += "# TYPE " + name + " ";
    out += type;
    out += "\n";
}

void
promStat(std::string &out, const Stat &s, const std::string &path)
{
    std::string name = promName(path);
    if (const auto *c = dynamic_cast<const Counter *>(&s)) {
        promHeader(out, name, s.desc(), "counter");
        out += strprintf("%s %llu\n", name.c_str(),
                         static_cast<unsigned long long>(c->value()));
        return;
    }
    if (const auto *sc = dynamic_cast<const Scalar *>(&s)) {
        promHeader(out, name, s.desc(), "gauge");
        out += name + " " + jsonNumber(sc->value()) + "\n";
        return;
    }
    if (const auto *f = dynamic_cast<const Formula *>(&s)) {
        promHeader(out, name, s.desc(), "gauge");
        out += name + " " + jsonNumber(f->value()) + "\n";
        return;
    }
    if (const auto *h = dynamic_cast<const Histogram *>(&s)) {
        // Native Prometheus histogram: cumulative buckets. Underflow
        // mass is below every finite boundary, so it seeds the
        // cumulative count; overflow only appears at le="+Inf".
        promHeader(out, name, s.desc(), "histogram");
        unsigned long long cum = h->underflow();
        for (unsigned i = 0; i < h->numBuckets(); ++i) {
            cum += h->bucket(i);
            double le = h->lo() + h->bucketWidth() * (i + 1);
            out += strprintf("%s_bucket{le=\"%s\"} %llu\n", name.c_str(),
                             jsonNumber(le).c_str(), cum);
        }
        out += strprintf("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h->count()));
        out += name + "_sum " + jsonNumber(h->sum()) + "\n";
        out += strprintf("%s_count %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h->count()));
        return;
    }
    // Distribution and DistributionView share the summary rendering.
    DistData d;
    if (const auto *dist = dynamic_cast<const Distribution *>(&s)) {
        d.count = dist->count();
        d.sum = dist->mean() * dist->count();
        d.min = dist->min();
        d.max = dist->max();
    } else if (const auto *v = dynamic_cast<const DistributionView *>(&s)) {
        d = v->value();
    } else {
        return;  // unreachable while StatKind stays closed
    }
    promHeader(out, name, s.desc(), "summary");
    out += name + "_sum " + jsonNumber(d.sum) + "\n";
    out += strprintf("%s_count %llu\n", name.c_str(),
                     static_cast<unsigned long long>(d.count));
    promHeader(out, name + "_min", s.desc() + " (min)", "gauge");
    out += name + "_min " + jsonNumber(d.min) + "\n";
    promHeader(out, name + "_max", s.desc() + " (max)", "gauge");
    out += name + "_max " + jsonNumber(d.max) + "\n";
}

} // namespace

void
Group::dumpProm(std::string &out, const std::string &prefix) const
{
    std::string base = prefix.empty()
        ? name_
        : (name_.empty() ? prefix : prefix + "." + name_);
    for (const auto &s : stats_) {
        std::string path = base.empty() ? s->name() : base + "." + s->name();
        promStat(out, *s, path);
    }
    for (const auto &g : children_)
        g->dumpProm(out, base);
}

// ---------------------------------------------------------------------------
// Registry

std::string
Registry::jsonDump() const
{
    std::string out = strprintf("{\"schema_version\":%u,\"stats\":{",
                                schemaVersion);
    std::string body;
    root_.dumpJson(body);
    out += body;
    out += "}}\n";
    return out;
}

std::string
Registry::textDump() const
{
    std::ostringstream ss;
    root_.dumpText(ss);
    return ss.str();
}

std::string
Registry::promDump() const
{
    std::string out;
    root_.dumpProm(out);
    return out;
}

void
Registry::writeFile(const std::string &path) const
{
    bool json = path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0;
    std::string err;
    if (!ser::writeFileAtomic(path, json ? jsonDump() : textDump(), &err))
        fatal("cannot write stats dump: %s", err.c_str());
}

} // namespace facsim::obs
