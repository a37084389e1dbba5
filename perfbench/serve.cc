/**
 * @file
 * serve phase: a closed-loop client driving the experiment daemon
 * (facsim::serve, spawned as a child process of this binary) with a
 * seeded mix of profile and timing requests. The client sends its next
 * request only after the reply arrives. Half the requests repeat one
 * answered before — in this pass or by the daemon whose cache file this
 * one booted from — and mostly hit; the rest are fresh misses whose
 * inserts overflow the small cache budget and force evictions.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/sampler.hh"
#include "phases.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"
#include "util/parse.hh"
#include "verify/fuzz.hh"

extern char **environ;

namespace facbench
{

using namespace facsim;
using namespace facsim::serve;

namespace
{

/*
 * The mix is the repository's serving recipe, loadgen's default
 * schedule (serve/loadgen.hh): half the requests repeat an earlier one,
 * half the distinct requests are timing runs, the programs are the
 * registry's first four at scale 1, and a timing request is bounded at
 * 20000 instructions plus its index (so every distinct request is a
 * distinct cache key). Loadgen's default concurrency is one client too:
 * the daemon runs each miss batch to completion before it takes the
 * next, so two clients' misses pair up or queue depending on arrival
 * jitter and pass throughput turns bimodal. The boot cache file, the
 * predictor-zoo machine, the request count, the cache budget and the
 * profile bound are this benchmark's own choices; no recorded traffic
 * backs any share.
 *
 * A profile request runs five times the instructions, so a miss of
 * either kind costs about the same (about 25 against 130 host ns per
 * instruction). With loadgen's equal bounds the misses fall into two
 * latency modes of nearly equal size, their median sits in the gap and
 * follows the extremes of both, and ten seeds spread it up to 0.27.
 */
constexpr size_t kSlots = 400;
constexpr unsigned kRepeatPct = 50;
constexpr size_t kWorkloadPool = 4;
constexpr uint64_t kTimingInsts = 20000;
constexpr uint64_t kProfileInsts = 5 * kTimingInsts;
/** Requests the boot cache file holds. */
constexpr size_t kPreload = 24;
/** Result-cache byte budget: small enough that a pass evicts. */
constexpr uint64_t kCacheBytes = 64 * 1024;

/** Digest of one pass's responses at the default seed. */
constexpr uint64_t kPinnedResponseDigest = 0xd596e0e1a906756cull;

struct Request
{
    bool timing = false;
    std::string body;
    ProfileRequest profile;
    TimingRequest timingReq;
};

/**
 * The idx-th distinct request. Where loadgen draws kind, program and
 * machine from the seed, here they cycle with the index, so every seed
 * gets the same miss mix and the miss latencies measure the daemon,
 * not the luck of the draw: even indices are timing runs on loadgen's
 * four machines (baseline or FAC, 16- or 32-byte blocks) and, as a
 * fifth, fac+stride+waymemo on the modern preset, so misses load the
 * hierarchy and the predictor zoo; odd ones profile with one FAC
 * configuration, TLB on or off. The seed rotates the program cycle and
 * sets the workload data.
 */
Request
makeRequest(const Options &o, uint64_t idx)
{
    const std::vector<WorkloadInfo> &wls = allWorkloads();
    uint64_t k = idx / 2;
    size_t pool = std::min(kWorkloadPool, wls.size());
    const char *wl = wls[(k + scheduleSeed(o)) % pool].name;
    Request q;
    q.timing = idx % 2 == 0;
    BuildOptions b;
    b.scale = 1;
    b.seed = buildSeed(o);
    ser::Writer w;
    if (q.timing) {
        TimingRequest &t = q.timingReq;
        t.workload = wl;
        t.build = b;
        switch (k % 5) {
          case 0: t.pipe = baselineConfig(16); break;
          case 1: t.pipe = baselineConfig(32); break;
          case 2: t.pipe = facPipelineConfig(16); break;
          case 3: t.pipe = facPipelineConfig(32); break;
          default:
            t.pipe = predictorPipelineConfig("fac+stride+waymemo", 32);
            t.pipe.hierarchy = modernHierarchy();
        }
        t.maxInsts = kTimingInsts + idx;
        encodeTimingRequest(w, t);
    } else {
        ProfileRequest &p = q.profile;
        p.workload = wl;
        p.build = b;
        uint32_t block = k % 2 ? 16 : 32;
        p.facConfigs = {facConfigFor(CacheConfig{16 * 1024, block, 1, 6})};
        p.withTlb = (k / 2) % 2;
        p.maxInsts = kProfileInsts + idx;
        encodeProfileRequest(w, p);
    }
    q.body = w.data();
    return q;
}

/** One slot's outcome. */
struct Outcome
{
    bool ok = false;
    bool cached = false;
    double us = 0.0;
    uint64_t bodyHash = 0;
    std::string body;
};

/** A spawned daemon child. */
class Daemon
{
  public:
    Daemon(const Options &o, const std::string &socket,
           const std::string &cache_file, unsigned jobs)
        : socket_(socket)
    {
        std::vector<std::string> args = {
            o.selfExe, "daemon", "--socket=" + socket,
            "--cache-file=" + cache_file,
            "--cache-bytes=" + std::to_string(kCacheBytes),
            "--jobs=" + std::to_string(jobs)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        std::string log = o.workDir + "/daemon.log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        int rc = posix_spawn(&pid_, o.selfExe.c_str(), &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            pid_ = -1;
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Poll until a ping succeeds; false after ~20 s or a dead child. */
    bool
    waitReady()
    {
        for (int i = 0; pid_ > 0 && i < 20000; ++i) {
            std::string err;
            int fd = connectUnix(socket_, &err);
            if (fd >= 0) {
                ServeClient c(fd);
                if (c.ping(&err))
                    return true;
            }
            int st;
            if (waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            usleep(1000);
        }
        return false;
    }

    /** Ask for a drain and reap the child; false on an unclean exit. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return exitOk_;
        // The daemon's own high-water mark, read while it is alive: a
        // spawned child's rusage also counts the parent image it was
        // cloned from.
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.compare(0, 6, "VmHWM:") == 0)
                peakRssMb_ = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
        std::string err;
        int fd = connectUnix(socket_, &err);
        if (fd >= 0) {
            ServeClient c(fd);
            c.shutdown(&err);
        } else {
            kill(pid_, SIGTERM);
        }
        int st = 0;
        pid_t got = -1;
        for (int i = 0; i < 30000; ++i) {
            got = waitpid(pid_, &st, WNOHANG);
            if (got == pid_)
                break;
            usleep(1000);
        }
        if (got != pid_) {
            kill(pid_, SIGKILL);
            got = waitpid(pid_, &st, 0);
        }
        pid_ = -1;
        exitOk_ = got > 0 && WIFEXITED(st) && WEXITSTATUS(st) == 0;
        return exitOk_;
    }

    double peakRssMb() const { return peakRssMb_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    bool exitOk_ = false;
    double peakRssMb_ = 0.0;
};

class ServePhase final : public Phase
{
  public:
    explicit ServePhase(const Options &o) : opt_(o)
    {
        // The daemon gets the thread budget the client leaves.
        jobs_ = o.threads > 1 ? o.threads - 1 : 1;
        socket_ = o.workDir + "/serve.sock";
        seedCache_ = o.workDir + "/seed.rc";
        passCache_ = o.workDir + "/pass.rc";

        uint64_t next = 0;
        for (size_t i = 0; i < kPreload; ++i)
            preload_.push_back(addRequest(next++));
        // A repeat names a request answered before it, by this pass or
        // by the daemon that wrote the boot cache file. Which slots
        // repeat, and which request each names, is the same for every
        // seed, so every seed evicts alike and gets the same hit count,
        // which sets the tail percentile; the seed sets the programs'
        // order and data.
        std::vector<size_t> answered = preload_;
        for (size_t i = 0; i < kSlots; ++i) {
            uint64_t r = verify::splitmix64(0x51075, i);
            size_t req;
            if (r % 100 < kRepeatPct) {
                req = answered[(r >> 8) % answered.size()];
            } else {
                req = addRequest(next++);
                answered.push_back(req);
            }
            slots_.push_back(req);
        }
    }

    ~ServePhase() override
    {
        std::remove(seedCache_.c_str());
        std::remove(passCache_.c_str());
    }

    const char *name() const override { return "serve"; }

    double
    setup() override
    {
        if (!primed_)
            prime();
        Span span("setup.daemon");
        std::filesystem::copy_file(
            seedCache_, passCache_,
            std::filesystem::copy_options::overwrite_existing);
        Clock::time_point t0 = Clock::now();
        Daemon d(opt_, socket_, passCache_, jobs_);
        bool ok = d.waitReady();
        double s = since(t0);
        setupOk_ = setupOk_ && ok && d.stop();
        return s;
    }

    double
    rep() override
    {
        Span span("serve.pass");
        std::filesystem::copy_file(
            seedCache_, passCache_,
            std::filesystem::copy_options::overwrite_existing);
        Daemon d(opt_, socket_, passCache_, jobs_);
        bool up;
        {
            Span b("serve.boot");
            up = d.waitReady();
        }
        std::vector<Outcome> out(kSlots);
        bool keep = exchanges_.empty();
        Clock::time_point t0 = Clock::now();
        if (up)
            drive(out, keep, span.id());
        double wall = since(t0);

        obs::StatsSnapshot snap;
        if (up) {
            std::string err, json, prom;
            int fd = connectUnix(socket_, &err);
            if (fd >= 0) {
                ServeClient c(fd);
                if (c.stats(&json, &prom, &err))
                    obs::parseStatsJson(json, &snap, &err);
            }
        }
        bool clean;
        {
            Span s("serve.drain");
            clean = d.stop();
        }
        daemonRss_.push_back(d.peakRssMb());
        passOk_.push_back(up && clean);

        std::string dig;
        size_t completed = 0, hits = 0;
        for (size_t i = 0; i < kSlots; ++i) {
            const Outcome &o = out[i];
            completed += o.ok;
            hits += o.cached;
            (o.cached ? hitUs_ : missUs_).push_back(o.us);
            if (!o.cached)
                missByKind_[requests_[slots_[i]].timing].push_back(o.us);
            ser::Writer w;
            w.u64(i);
            w.b(o.ok);
            w.u64(o.bodyHash);
            dig += w.data();
        }
        okCounts_.push_back(completed);
        digests_.push_back(digest(dig));
        passHits_ = hits;
        passQps_.push_back(static_cast<double>(completed) / wall);
        completed_ += completed;
        driveSeconds_ += wall;

        double h = snap["cache.hits"], m = snap["cache.misses"];
        hitRatio_.push_back(h + m > 0 ? h / (h + m) : 0);
        evictions_.push_back(snap["cache.evictions"]);
        serverP50_.push_back(snap["serve.latency_p50_us"]);
        serverHitUs_.push_back(snap["serve.hit_latency_us.mean"]);

        if (keep)
            capture(out);
        return wall;
    }

    size_t reps() const override { return passQps_.size(); }

    void
    clearSamples() override
    {
        for (auto *v : {&passQps_, &hitUs_, &missUs_, &missByKind_[0],
                        &missByKind_[1], &hitRatio_, &evictions_, &serverP50_,
                        &serverHitUs_})
            v->clear();
        completed_ = 0;
        driveSeconds_ = 0.0;
    }

    /**
     * Latencies and throughput pool every measured pass. Each pass is a
     * fresh daemon process, and whole passes land fast or slow together
     * (which vCPU, which moment); pooled figures move smoothly with the
     * share of slow passes. A tail takes the percentile one pass
     * supports (tailOf) off the pool.
     */
    void
    finish(Report &r) override
    {
        Tail ht = tailOf(hitUs_, passHits_);
        Tail mt = tailOf(missUs_, kSlots - passHits_);
        double hit_p50 = median(hitUs_);
        r.metric("serve_qps", completed_ / driveSeconds_, "1/s");
        r.metric("hit_p50_us", hit_p50, "us");
        r.metric("hit_tail_us", ht.value, "us");
        r.metric("miss_p50_ms", median(missUs_) / 1e3, "ms");
        r.metric("miss_tail_ms", mt.value / 1e3, "ms");
        r.metric("result_cache.hit_ratio", median(hitRatio_), "ratio");
        r.metric("result_cache.evictions", median(evictions_), "count");
        r.metric("serve.server_p50_us", median(serverP50_), "us");
        r.metric("serve.wire_us", hit_p50 - median(serverHitUs_), "us");

        r.info("serve",
               "{\"passes\":" + std::to_string(passQps_.size()) +
                   ",\"clients\":1" +
                   ",\"daemon_jobs\":" + std::to_string(jobs_) +
                   ",\"requests_per_pass\":" + std::to_string(kSlots) +
                   ",\"cache_bytes\":" + std::to_string(kCacheBytes) +
                   ",\"hit_tail_pct\":" + jnum(ht.pct) +
                   ",\"hit_samples_per_pass\":" + std::to_string(passHits_) +
                   ",\"hit_samples\":" + std::to_string(ht.samples) +
                   ",\"miss_tail_pct\":" + jnum(mt.pct) +
                   ",\"miss_samples_per_pass\":" +
                   std::to_string(kSlots - passHits_) +
                   ",\"miss_samples\":" + std::to_string(mt.samples) +
                   ",\"miss_p50_ms_profile\":" +
                   jnum(median(missByKind_[0]) / 1e3) +
                   ",\"miss_p50_ms_timing\":" +
                   jnum(median(missByKind_[1]) / 1e3) +
                   ",\"daemon_peak_rss_mb\":" + jnum(median(daemonRss_)) +
                   ",\"pass_qps\":" + jarr(passQps_) +
                   ",\"response_digest\":" + jstr(hex64(digests_.front())) +
                   "}");

        r.check(primeOk_, "serve: priming the boot cache file failed");
        r.check(setupOk_, "serve: a set-up boot did not drain cleanly");
        for (size_t p = 0; p < passOk_.size(); ++p) {
            r.check(passOk_[p], "serve: pass " + std::to_string(p) +
                                    " daemon did not boot or drain "
                                    "cleanly");
            for (size_t i = 0; i < kSlots; ++i)
                r.op(i < okCounts_[p], "serve: request failed");
            if (p) {
                r.check(digests_[p] == digests_[0],
                        "serve: pass " + std::to_string(p) +
                            " response digest differs from pass 0");
            }
        }
        inProcessCheck(r);
        if (isDefaultSeed(opt_)) {
            r.check(digests_[0] == kPinnedResponseDigest,
                    "serve: response digest " + hex64(digests_[0]) +
                        " differs from the pinned " +
                        hex64(kPinnedResponseDigest));
        }
    }

    double
    childPeakRssMb() const override
    {
        return daemonRss_.empty() ? 0.0 : median(daemonRss_);
    }

    const std::vector<Exchange> &exchanges() const { return exchanges_; }

  private:
    size_t
    addRequest(uint64_t idx)
    {
        requests_.push_back(makeRequest(opt_, idx));
        return requests_.size() - 1;
    }

    /** Write the boot cache file: a daemon answers the preload set. */
    void
    prime()
    {
        primed_ = true;
        Span span("setup.prime");
        std::remove(seedCache_.c_str());
        Daemon d(opt_, socket_, seedCache_, jobs_);
        bool ok = d.waitReady();
        std::string err;
        int fd = ok ? connectUnix(socket_, &err) : -1;
        if (fd >= 0) {
            ServeClient c(fd);
            for (size_t id : preload_) {
                const Request &q = requests_[id];
                ResponseEnvelope resp;
                ok = ok &&
                    c.exchange(q.timing ? WireKind::Timing
                                        : WireKind::Profile,
                               q.body, &resp, &err) &&
                    resp.status == WireStatus::Ok;
            }
        }
        primeOk_ = ok && fd >= 0 && d.stop() &&
            std::filesystem::exists(seedCache_);
    }

    /** The closed loop: each request goes out after the last reply. */
    void
    drive(std::vector<Outcome> &out, bool keep_bodies, int64_t parent)
    {
        std::string err;
        int fd = connectUnix(socket_, &err);
        if (fd < 0)
            return;
        ServeClient client(fd);
        for (size_t i = 0; i < kSlots; ++i) {
            const Request &q = requests_[slots_[i]];
            ResponseEnvelope resp;
            Span s("serve.request", parent, i + 1);
            Clock::time_point t0 = Clock::now();
            bool ok = client.exchange(q.timing ? WireKind::Timing
                                               : WireKind::Profile,
                                      q.body, &resp, &err);
            Outcome &o = out[i];
            o.us = since(t0) * 1e6;
            if (!ok)
                return;  // transport broken: the rest count failed
            o.ok = resp.status == WireStatus::Ok;
            o.cached = resp.cached;
            o.bodyHash = digest(resp.body);
            if (keep_bodies)
                o.body = std::move(resp.body);
        }
    }

    /** Keep each distinct request of the first pass with its reply. */
    void
    capture(const std::vector<Outcome> &out)
    {
        std::vector<bool> seen(requests_.size(), false);
        for (size_t i = 0; i < kSlots; ++i) {
            size_t id = slots_[i];
            if (seen[id] || !out[i].ok)
                continue;
            seen[id] = true;
            exchanges_.push_back(
                {requests_[id].timing, requests_[id].body, out[i].body});
            sampleSlots_.push_back(i);
        }
    }

    /** A sample of replies must equal in-process runTiming/runProfile. */
    void
    inProcessCheck(Report &r)
    {
        Span span("serve.check");
        r.check(!exchanges_.empty(), "serve: no reply captured");
        size_t n = exchanges_.size();
        for (size_t k : {size_t{0}, n / 3, (2 * n) / 3, n - 1}) {
            if (k >= n)
                continue;
            const Request &q = requests_[slots_[sampleSlots_[k]]];
            ser::Writer w;
            if (q.timing)
                encodeTimingResult(w, runTiming(q.timingReq));
            else
                encodeProfileResult(w, runProfile(q.profile));
            r.check(w.data() == exchanges_[k].response,
                    "serve: reply " + std::to_string(k) +
                        " differs from the in-process result");
        }
    }

    const Options &opt_;
    unsigned jobs_ = 1;
    std::string socket_, seedCache_, passCache_;
    std::vector<Request> requests_;
    std::vector<size_t> preload_, slots_;
    bool primed_ = false, primeOk_ = false, setupOk_ = true;
    std::vector<bool> passOk_;
    std::vector<size_t> okCounts_;
    std::vector<uint64_t> digests_;
    /** Pooled over the measured passes; misses also by kind (timing?). */
    std::vector<double> hitUs_, missUs_, missByKind_[2];
    size_t completed_ = 0;
    double driveSeconds_ = 0.0;
    /** Hits in one pass (the schedule fixes it; sets the tail level). */
    size_t passHits_ = 0;
    /** One entry per measured pass. */
    std::vector<double> passQps_;
    std::vector<double> hitRatio_, evictions_, serverP50_, serverHitUs_;
    std::vector<double> daemonRss_;
    std::vector<Exchange> exchanges_;
    std::vector<size_t> sampleSlots_;
};

} // namespace

std::unique_ptr<Phase>
makeServePhase(const Options &o)
{
    return std::make_unique<ServePhase>(o);
}

const std::vector<Exchange> &
serveExchanges(const Phase &serve)
{
    return static_cast<const ServePhase &>(serve).exchanges();
}

int
daemonMain(int argc, char **argv)
{
    ServerOptions so;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *p) -> const char * {
            size_t n = std::strlen(p);
            return a.compare(0, n, p) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--socket=")) {
            so.socketPath = v;
        } else if (const char *v = val("--cache-file=")) {
            so.cacheFile = v;
        } else if (const char *v = val("--cache-bytes=")) {
            so.cacheBytes = parse::u64Flag("--cache-bytes", v);
        } else if (const char *v = val("--jobs=")) {
            so.jobs = static_cast<unsigned>(parse::u64Flag("--jobs", v));
        } else {
            std::fprintf(stderr, "facbench daemon: unknown option '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    // A benchmark that dies must not leave its daemon behind: SIGTERM
    // on parent exit is the daemon's graceful drain.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() == 1)
        return 1;
    return serveMain(so);
}

} // namespace facbench
