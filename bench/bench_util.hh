/**
 * @file
 * Shared plumbing for the bench harnesses: command-line options, the
 * per-workload run loop, and the paper's run-time-weighted Int/FP
 * averaging. Every harness takes the flags parseArgs() lists plus its
 * own; `<bench> --help` prints them.
 */

#ifndef FACSIM_BENCH_BENCH_UTIL_HH
#define FACSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/obs_views.hh"
#include "sim/runner.hh"
#include "sim/stats.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace facsim::bench
{

/** Parsed common options. */
struct Options
{
    bool csv = false;
    std::string workloadFilter;
    uint64_t scale = 1;
    uint64_t maxInsts = 0;
    uint64_t seed = 0x5eed;
    /** Host threads for runAll (0 = all hardware threads). */
    unsigned jobs = 0;
    /** When non-empty, emit() appends JSON results to this file. */
    std::string jsonPath;
    /** Host-time accounting merged across every runAll() batch. */
    RunnerReport report;
    /**
     * Stats-registry accumulation across every runAll() batch; emitted
     * under the "stats" key of each --json line.
     */
    StatsAccum statsAccum;
};

/**
 * Parse the flags every bench takes, plus the bench's own @p extra
 * rows (util/flags.hh). An unknown flag or a malformed value exits
 * with a usage error; --help lists the whole table.
 */
inline Options
parseArgs(int argc, char **argv, std::vector<flags::Flag> extra = {})
{
    Options o;
    std::vector<flags::Flag> table = {
        flags::boolean("--csv", &o.csv,
                       "emit CSV instead of the aligned table"),
        flags::text("--workload=NAME", &o.workloadFilter,
                    "restrict to one workload"),
        flags::u64("--scale=N", &o.scale,
                   "workload size multiplier (default 1)", flags::Positive),
        flags::u64("--max-insts=N", &o.maxInsts,
                   "cap simulated instructions per run (0 = full run)"),
        flags::u64("--seed=N", &o.seed, "workload data seed"),
        flags::u32("--jobs=N", &o.jobs,
                   "host threads for the experiment sweep (0 = all; "
                   "results are bitwise-identical for any N)"),
        flags::text("--json=FILE", &o.jsonPath,
                    "append one JSON object per emitted table to FILE "
                    "(rows plus host-time metadata)"),
    };
    table.insert(table.end(), extra.begin(), extra.end());
    const char *slash = std::strrchr(argv[0], '/');
    flags::parseCommandLine(slash ? slash + 1 : argv[0], "", table, argc,
                            argv, 1);
    return o;
}

/** Workloads selected by the filter, in paper order. */
inline std::vector<const WorkloadInfo *>
selectedWorkloads(const Options &o)
{
    std::vector<const WorkloadInfo *> out;
    for (const WorkloadInfo &w : allWorkloads()) {
        if (o.workloadFilter.empty() || o.workloadFilter == w.name)
            out.push_back(&w);
    }
    if (out.empty())
        fatal("no workload matches '%s'", o.workloadFilter.c_str());
    return out;
}

inline BuildOptions
buildOptions(const Options &o, const CodeGenPolicy &pol)
{
    BuildOptions b;
    b.policy = pol;
    b.scale = o.scale;
    b.seed = o.seed;
    return b;
}

/**
 * Run-time-weighted group average, as the paper's Int-Avg / FP-Avg bars:
 * weights are baseline cycle counts.
 */
inline double
groupAverage(const std::vector<double> &values,
             const std::vector<double> &weights,
             const std::vector<bool> &is_fp, bool want_fp)
{
    std::vector<double> v, w;
    for (size_t i = 0; i < values.size(); ++i) {
        if (is_fp[i] == want_fp) {
            v.push_back(values[i]);
            w.push_back(weights[i]);
        }
    }
    return weightedMean(v, w);
}

/**
 * Fan a batch of timing requests across o.jobs host threads (see
 * sim/runner.hh for the determinism guarantee). Results come back in
 * request order; host-time accounting accumulates into o.report and a
 * one-line summary goes to stderr.
 */
inline std::vector<TimingResult>
runAll(Options &o, const std::vector<TimingRequest> &reqs,
       const char *tag = "bench")
{
    Runner runner(o.jobs);
    RunnerReport rep;
    std::vector<TimingResult> out = runner.runTimings(reqs, &rep);
    std::fprintf(stderr,
                 "%s: %zu timing runs on %u threads in %.2fs "
                 "(%.2fM sim-insts/s)\n",
                 tag, reqs.size(), rep.jobs, rep.wallSeconds,
                 rep.simInstsPerHostSecond() / 1e6);
    o.report.merge(rep);
    for (const TimingResult &r : out)
        o.statsAccum.add(r);
    return out;
}

/** Profile-run counterpart of runAll(Options&, TimingRequest...). */
inline std::vector<ProfileResult>
runAll(Options &o, const std::vector<ProfileRequest> &reqs,
       const char *tag = "bench")
{
    Runner runner(o.jobs);
    RunnerReport rep;
    std::vector<ProfileResult> out = runner.runProfiles(reqs, &rep);
    std::fprintf(stderr,
                 "%s: %zu profile runs on %u threads in %.2fs "
                 "(%.2fM sim-insts/s)\n",
                 tag, reqs.size(), rep.jobs, rep.wallSeconds,
                 rep.simInstsPerHostSecond() / 1e6);
    o.report.merge(rep);
    for (const ProfileResult &r : out)
        o.statsAccum.add(r);
    return out;
}

/** Escape a string for embedding in a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/**
 * Version of the JSON-lines schema emitJson() writes. v1 (implicit,
 * no schema_version key): caption/header/rows/meta. v2: adds
 * schema_version itself and the merged stats-registry dump under
 * "stats".
 */
constexpr unsigned benchJsonSchemaVersion = 2;

/**
 * Append one JSON object for @p t to @p o.jsonPath: schema version,
 * caption, header, rows (arrays of strings), the accumulated stats
 * registry and host-time metadata from o.report (jobs, wall seconds,
 * simulated instructions per host second). One object per line
 * (JSON-lines), truncating the file on the first emit of the process so
 * reruns do not accumulate.
 */
inline void
emitJson(const Options &o, const std::string &caption, const Table &t)
{
    static bool truncated = false;
    std::ofstream out(o.jsonPath, truncated ? std::ios::app
                                            : std::ios::trunc);
    truncated = true;
    if (!out)
        fatal("cannot write '%s'", o.jsonPath.c_str());

    out << "{\"schema_version\":" << benchJsonSchemaVersion << ",";
    out << "\"caption\":\"" << jsonEscape(caption) << "\",";
    out << "\"header\":[";
    const auto &hdr = t.headerCells();
    for (size_t i = 0; i < hdr.size(); ++i)
        out << (i ? "," : "") << '"' << jsonEscape(hdr[i]) << '"';
    out << "],\"rows\":[";
    const auto &rows = t.dataRows();
    for (size_t r = 0; r < rows.size(); ++r) {
        out << (r ? "," : "") << '[';
        for (size_t c = 0; c < rows[r].size(); ++c)
            out << (c ? "," : "") << '"' << jsonEscape(rows[r][c]) << '"';
        out << ']';
    }
    out << "],\"meta\":{";
    out << strprintf("\"jobs\":%u,\"runs\":%zu,\"wallSeconds\":%.6f,"
                     "\"simInsts\":%llu,\"simInstsPerHostSecond\":%.0f",
                     o.report.jobs, o.report.numJobs,
                     o.report.wallSeconds,
                     static_cast<unsigned long long>(o.report.simInsts),
                     o.report.simInstsPerHostSecond());
    out << "},\"stats\":" << o.statsAccum.statsJsonObject();
    out << "}\n";
}

/** Print the table in the requested format, with a caption. */
inline void
emit(const Options &o, const std::string &caption, const Table &t)
{
    if (!o.jsonPath.empty())
        emitJson(o, caption, t);
    if (o.csv) {
        t.printCsv(std::cout);
    } else {
        std::cout << caption << "\n\n";
        t.print(std::cout);
        std::cout << "\n";
    }
}

} // namespace facsim::bench

#endif // FACSIM_BENCH_BENCH_UTIL_HH
