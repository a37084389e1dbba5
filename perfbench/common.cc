#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

#include "util/percentile.hh"
#include "util/serialize.hh"
#include "verify/fuzz.hh"

namespace facbench
{

uint64_t
buildSeed(const Options &o)
{
    // The default seed reproduces the repository's default workload
    // data (BuildOptions::seed), so the pinned goldens apply to it.
    return isDefaultSeed(o) ? 0x5eed
                            : facsim::verify::splitmix64(o.seed, 0x5eed);
}

uint64_t
scheduleSeed(const Options &o)
{
    return facsim::verify::splitmix64(o.seed, 0x5c4ed);
}

// ---------------------------------------------------------------------
// Spans

namespace
{

thread_local int64_t tlCurrent = -1;
thread_local uint64_t tlReq = 0;
thread_local unsigned tlTid = 0;
std::atomic<unsigned> nextTid{1};

unsigned
threadTrack()
{
    if (!tlTid)
        tlTid = nextTid.fetch_add(1, std::memory_order_relaxed);
    return tlTid;
}

} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int64_t
Tracer::begin(const char *name, int64_t parent, uint64_t req)
{
    if (!enabled())
        return -1;
    SpanRec s;
    s.name = name;
    s.t0 = now();
    s.t1 = s.t0;
    s.parent = parent;
    s.req = req;
    s.tid = threadTrack();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
}

void
Tracer::end(int64_t id)
{
    if (id < 0)
        return;
    double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].t1 = t;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, LayerTime>
Tracer::layerTimes(const std::string &exclude) const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Self time = duration minus the union of the children's intervals
    // clipped to the parent: children on other threads may overlap
    // each other (a sweep span over its parallel jobs).
    std::vector<std::vector<size_t>> kids(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        int64_t p = spans_[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans_.size())
            kids[static_cast<size_t>(p)].push_back(i);
    }
    // Spans under an excluded root (the layer replay) are not part of
    // the workload's own time.
    std::vector<char> skip(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
        int64_t p = spans_[i].parent;
        skip[i] = spans_[i].name == exclude ||
            (p >= 0 && static_cast<size_t>(p) < i &&
             skip[static_cast<size_t>(p)]);
    }
    std::map<std::string, LayerTime> out;
    std::vector<std::pair<double, double>> iv;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (skip[i])
            continue;
        const SpanRec &s = spans_[i];
        double dur = s.t1 - s.t0;
        iv.clear();
        for (size_t k : kids[i]) {
            double a = std::max(spans_[k].t0, s.t0);
            double b = std::min(spans_[k].t1, s.t1);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        LayerTime &lt = out[s.name];
        ++lt.calls;
        lt.totalS += dur;
        lt.selfS += std::max(0.0, dur - covered);
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                      "\"req\":%llu},\"name\":",
                      s.tid, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.req));
        out << buf << jstr(s.name) << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *name, int64_t parent, uint64_t req)
    : id_(-1), prev_(tlCurrent)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    if (parent == kInherit)
        parent = tlCurrent;
    if (!req)
        req = tlReq;
    id_ = t.begin(name, parent, req);
    tlCurrent = id_;
}

Span::~Span()
{
    if (id_ < 0)
        return;
    tracer().end(id_);
    tlCurrent = prev_;
}

// ---------------------------------------------------------------------
// Injected delay

void
stretchSince(Clock::time_point t0, double fraction)
{
    if (fraction <= 0.0)
        return;
    double until = since(t0) * (1.0 + fraction);
    while (since(t0) < until) {
    }
}

facsim::PipeStats
runPipeline(facsim::Pipeline &pipe, uint64_t max_insts, double inject_delay)
{
    Span span("pipeline.run");
    Clock::time_point t0 = Clock::now();
    facsim::PipeStats st = pipe.run(max_insts);
    stretchSince(t0, inject_delay);
    return st;
}

// ---------------------------------------------------------------------
// Report

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    std::lock_guard<std::mutex> lk(mu_);
    metrics_[name] = Metric{value, unit};
}

void
Report::op(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 64)
            failures_.push_back(what);
    }
}

void
Report::check(bool ok, const std::string &what)
{
    op(ok, "check: " + what);
    if (!ok)
        std::fprintf(stderr, "facbench: check failed: %s\n", what.c_str());
}

void
Report::info(const std::string &key, const std::string &json)
{
    std::lock_guard<std::mutex> lk(mu_);
    info_.emplace_back(key, json);
}

std::string
Report::json() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string s = "{\"correct\":";
    s += failed_ == 0 ? "true" : "false";
    s += ",\"attempted\":" + std::to_string(attempted_);
    s += ",\"failed\":" + std::to_string(failed_);
    s += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        s += first ? "" : ",";
        first = false;
        s += jstr(name) + ":{\"value\":" + jnum(m.value) +
             ",\"unit\":" + jstr(m.unit) + "}";
    }
    s += "},\"failures\":[";
    for (size_t i = 0; i < failures_.size(); ++i)
        s += (i ? "," : "") + jstr(failures_[i]);
    s += "]";
    for (const auto &[k, v] : info_)
        s += "," + jstr(k) + ":" + v;
    s += "}";
    return s;
}

// ---------------------------------------------------------------------
// Statistics and formatting

double
quantileOf(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return facsim::percentile(v, p);
}

double
median(std::vector<double> v)
{
    return quantileOf(std::move(v), 0.5);
}

Tail
tailOf(std::vector<double> pool, size_t per_pass)
{
    Tail t;
    t.samples = pool.size();
    // At p = (n - 10) / n a pass of n samples has ten beyond it; below
    // 20 samples a pass supports no more than the median.
    double n = static_cast<double>(per_pass);
    double p = per_pass >= 20 ? (n - 10.0) / n : 0.5;
    t.pct = 100.0 * p;
    if (pool.empty())
        return t;
    std::sort(pool.begin(), pool.end());
    t.value = facsim::percentile(pool, p);
    return t;
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jarr(const std::vector<double> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + jnum(v[i]);
    return s + "]";
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

uint64_t
digest(const std::string &s)
{
    return facsim::ser::fnv1a(s.data(), s.size());
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace facbench
