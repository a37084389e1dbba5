#include "obs/stats.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/sealed.hh"

namespace facsim::obs
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";  // NaN/Inf are not JSON; guarded ratios dump as 0
    // %.9g round-trips every value the simulator produces and keeps the
    // dump byte-stable across runs of the same simulation.
    return strprintf("%.9g", v);
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

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(double lo, double hi, unsigned nbuckets)
    : lo_(lo), hi_(hi)
{
    FACSIM_ASSERT(nbuckets > 0, "histogram needs at least 1 bucket");
    FACSIM_ASSERT(hi > lo, "histogram range [%g, %g) is empty", lo, hi);
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
    for (const Stat &s : stats_) {
        FACSIM_ASSERT(s.name != name,
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

void
Group::add(Stat s)
{
    checkNewName(s.name);
    FACSIM_ASSERT((s.kind != StatKind::Counter || s.counter) &&
                      (s.kind != StatKind::Histogram || s.hist),
                  "stat '%s' bound to null", s.name.c_str());
    stats_.push_back(std::move(s));
}

void
Group::counter(const std::string &name, const std::string &desc,
               const uint64_t *v)
{
    add({name, desc, StatKind::Counter, v});
}

void
Group::formula(const std::string &name, const std::string &desc,
               std::function<double()> fn)
{
    add({name, desc, StatKind::Gauge, nullptr, std::move(fn)});
}

void
Group::distribution(const std::string &name, const std::string &desc,
                    std::function<DistData()> fn)
{
    add({name, desc, StatKind::Distribution, nullptr, {}, std::move(fn)});
}

void
Group::histogram(const std::string &name, const std::string &desc,
                 const Histogram *h)
{
    add({name, desc, StatKind::Histogram, nullptr, {}, {}, h});
}

const Stat *
Group::find(const std::string &path) const
{
    size_t dot = path.find('.');
    if (dot == std::string::npos) {
        for (const Stat &s : stats_) {
            if (s.name == path)
                return &s;
        }
        return nullptr;
    }
    for (const auto &g : children_) {
        if (g->name_ == path.substr(0, dot))
            return g->find(path.substr(dot + 1));
    }
    return nullptr;
}

void
Group::forEach(const std::string &prefix,
               const std::function<void(const std::string &,
                                        const Stat &)> &fn) const
{
    auto path = [&](const std::string &name) {
        return prefix.empty() ? name : prefix + "." + name;
    };
    for (const Stat &s : stats_)
        fn(path(s.name), s);
    for (const auto &g : children_)
        g->forEach(path(g->name_), fn);
}

// ---------------------------------------------------------------------------
// Rendering: one switch per format

namespace
{

using ull = unsigned long long;

std::string
textValue(const Stat &s)
{
    switch (s.kind) {
      case StatKind::Counter:
        return strprintf("%llu", static_cast<ull>(*s.counter));
      case StatKind::Gauge:
        return strprintf("%.6f", s.gauge());
      case StatKind::Distribution: {
        DistData d = s.dist();
        return strprintf("count=%llu mean=%.4f stddev=%.4f min=%.4f "
                         "max=%.4f",
                         static_cast<ull>(d.count), d.mean(), d.stddev(),
                         d.min, d.max);
      }
      case StatKind::Histogram: {
        const Histogram &h = *s.hist;
        return strprintf("count=%llu mean=%.4f (%u buckets [%g, %g), "
                         "under=%llu over=%llu)",
                         static_cast<ull>(h.count()),
                         h.count() ? h.sum() / h.count() : 0.0,
                         h.numBuckets(), h.lo(), h.hi(),
                         static_cast<ull>(h.underflow()),
                         static_cast<ull>(h.overflow()));
      }
    }
    return {};
}

void
jsonValue(std::string &out, const Stat &s)
{
    switch (s.kind) {
      case StatKind::Counter:
        out += strprintf("%llu", static_cast<ull>(*s.counter));
        return;
      case StatKind::Gauge:
        out += jsonNumber(s.gauge());
        return;
      case StatKind::Distribution: {
        DistData d = s.dist();
        out += strprintf("{\"count\":%llu,\"mean\":%s,\"stddev\":%s,"
                         "\"min\":%s,\"max\":%s}",
                         static_cast<ull>(d.count),
                         jsonNumber(d.mean()).c_str(),
                         jsonNumber(d.stddev()).c_str(),
                         jsonNumber(d.min).c_str(),
                         jsonNumber(d.max).c_str());
        return;
      }
      case StatKind::Histogram: {
        const Histogram &h = *s.hist;
        out += strprintf("{\"lo\":%s,\"hi\":%s,\"bucket_width\":%s,"
                         "\"underflow\":%llu,\"overflow\":%llu,"
                         "\"count\":%llu,\"sum\":%s,\"buckets\":[",
                         jsonNumber(h.lo()).c_str(),
                         jsonNumber(h.hi()).c_str(),
                         jsonNumber(h.bucketWidth()).c_str(),
                         static_cast<ull>(h.underflow()),
                         static_cast<ull>(h.overflow()),
                         static_cast<ull>(h.count()),
                         jsonNumber(h.sum()).c_str());
        for (unsigned i = 0; i < h.numBuckets(); ++i)
            out += strprintf("%s%llu", i ? "," : "",
                             static_cast<ull>(h.bucket(i)));
        out += "]}";
        return;
      }
    }
}

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
promStat(std::string &out, const std::string &path, const Stat &s)
{
    std::string name = promName(path);
    switch (s.kind) {
      case StatKind::Counter:
        promHeader(out, name, s.desc, "counter");
        out += strprintf("%s %llu\n", name.c_str(),
                         static_cast<ull>(*s.counter));
        return;
      case StatKind::Gauge:
        promHeader(out, name, s.desc, "gauge");
        out += name + " " + jsonNumber(s.gauge()) + "\n";
        return;
      case StatKind::Distribution: {
        DistData d = s.dist();
        promHeader(out, name, s.desc, "summary");
        out += name + "_sum " + jsonNumber(d.sum) + "\n";
        out += strprintf("%s_count %llu\n", name.c_str(),
                         static_cast<ull>(d.count));
        promHeader(out, name + "_min", s.desc + " (min)", "gauge");
        out += name + "_min " + jsonNumber(d.min) + "\n";
        promHeader(out, name + "_max", s.desc + " (max)", "gauge");
        out += name + "_max " + jsonNumber(d.max) + "\n";
        return;
      }
      case StatKind::Histogram: {
        // Native Prometheus histogram: cumulative buckets. Underflow
        // mass is below every finite boundary, so it seeds the
        // cumulative count; overflow only appears at le="+Inf".
        const Histogram &h = *s.hist;
        promHeader(out, name, s.desc, "histogram");
        ull cum = h.underflow();
        for (unsigned i = 0; i < h.numBuckets(); ++i) {
            cum += h.bucket(i);
            double le = h.lo() + h.bucketWidth() * (i + 1);
            out += strprintf("%s_bucket{le=\"%s\"} %llu\n", name.c_str(),
                             jsonNumber(le).c_str(), cum);
        }
        out += strprintf("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                         static_cast<ull>(h.count()));
        out += name + "_sum " + jsonNumber(h.sum()) + "\n";
        out += strprintf("%s_count %llu\n", name.c_str(),
                         static_cast<ull>(h.count()));
        return;
      }
    }
}

} // namespace

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

void
Group::dumpJson(std::string &out) const
{
    forEach("", [&](const std::string &path, const Stat &s) {
        if (!out.empty())
            out += ',';
        out += '"';
        out += path;  // names are dot-free identifiers, no escaping needed
        out += "\":";
        jsonValue(out, s);
    });
}

// ---------------------------------------------------------------------------
// Registry

std::string
Registry::jsonDump() const
{
    std::string body;
    root_.dumpJson(body);
    return strprintf("{\"schema_version\":%u,\"stats\":{", schemaVersion) +
           body + "}}\n";
}

std::string
Registry::textDump() const
{
    std::string out;
    root_.forEach("", [&](const std::string &path, const Stat &s) {
        out += strprintf("%-44s %20s", path.c_str(), textValue(s).c_str());
        if (!s.desc.empty())
            out += strprintf("  # %s", s.desc.c_str());
        out += "\n";
    });
    return out;
}

std::string
Registry::promDump() const
{
    std::string out;
    root_.forEach("", [&](const std::string &path, const Stat &s) {
        promStat(out, path, s);
    });
    return out;
}

void
Registry::writeFile(const std::string &path) const
{
    bool json = path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0;
    std::string err;
    if (!ser::writeFileAtomic(path, {json ? jsonDump() : textDump()}, &err))
        fatal("cannot write stats dump: %s", err.c_str());
}

} // namespace facsim::obs
