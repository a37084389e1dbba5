#include "serve/server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/prof.hh"
#include "obs/trace.hh"
#include "serve/cache.hh"
#include "serve/wire.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/request_codec.hh"
#include "sim/runner.hh"
#include "util/logging.hh"
#include "util/sealed.hh"
#include "workloads/registry.hh"

namespace facsim::serve
{

namespace
{

/**
 * Set by the SIGINT/SIGTERM handler. Every wait in the daemon is a
 * bounded poll that re-checks this flag, so a plain lock-free atomic
 * store is all the handler needs — no self-pipe required.
 */
std::atomic<bool> g_signalDrain{false};

void
drainSignalHandler(int)
{
    g_signalDrain.store(true, std::memory_order_relaxed);
}

bool
workloadExists(const std::string &name)
{
    for (const WorkloadInfo &w : allWorkloads()) {
        if (name == w.name)
            return true;
    }
    return false;
}

/** One client connection. Writes are serialized by wmu: the reader
 *  thread answers hits/errors inline while the scheduler thread posts
 *  miss results. */
struct Connection
{
    int rfd = -1;
    int wfd = -1;
    bool ownsFd = false;
    std::mutex wmu;

    ~Connection()
    {
        if (ownsFd && rfd >= 0)
            ::close(rfd);
    }
};

using ConnPtr = std::shared_ptr<Connection>;
using Clock = std::chrono::steady_clock;

/**
 * The daemon's counters (list: see util/fields.hh), registered under
 * "serve". Stats only: the list is never on the wire.
 */
#define FACSIM_SERVE_STATS(X)                                               \
    X(uint64_t, requests, Sum, "", "requests", "request frames handled")    \
    X(uint64_t, pings, Sum, "", "pings", "ping requests")                   \
    X(uint64_t, profileRequests, Sum, "", "profile_requests",               \
      "profile requests")                                                   \
    X(uint64_t, timingRequests, Sum, "", "timing_requests",                 \
      "timing requests")                                                    \
    X(uint64_t, statsRequests, Sum, "", "stats_requests",                   \
      "live stats snapshot requests")                                       \
    X(uint64_t, shutdowns, Sum, "", "shutdowns", "shutdown requests")       \
    X(uint64_t, protocolErrors, Sum, "", "protocol_errors",                 \
      "malformed frames rejected")                                          \
    X(uint64_t, requestErrors, Sum, "", "request_errors",                   \
      "well-framed requests answered with an error")                        \
    X(uint64_t, connections, Sum, "", "connections", "connections accepted")

struct ServeStats
{
    FACSIM_STATS_FIELDS(ServeStats, FACSIM_SERVE_STATS)
};

/** A decoded cache miss waiting for the Runner. */
struct PendingJob
{
    ConnPtr conn;
    uint64_t reqId = 0;
    WireKind kind = WireKind::Ping;
    ProfileRequest preq;
    TimingRequest treq;
    CacheKey key;
    Clock::time_point received;
};

class Server
{
  public:
    explicit Server(const ServerOptions &opts)
        : opts_(opts), cache_(opts.cacheBytes)
    {
        obs::Group &sg = registry_.root().group("serve");
        sg.fields(stats_);
        sg.distribution("queue_depth", "miss-queue depth at each enqueue",
                        [this] { return queueDepth_; });
        sg.distribution("latency_us",
                        "request latency, receipt to response written",
                        [this] { return latencyUs_; });
        sg.distribution("hit_latency_us", "latency of cache hits",
                        [this] { return hitLatencyUs_; });
        sg.distribution("miss_latency_us", "latency of executed requests",
                        [this] { return missLatencyUs_; });
        sg.histogram("latency_log2_us", "log2(request latency in us)",
                     &latencyLog2_);
        // Server-side latency percentiles, estimated from the log2
        // histogram so no client cooperation is needed (the estimate
        // interpolates in log space, hence exp2 back to microseconds).
        sg.formula("latency_p50_us",
                   "p50 request latency (log2-histogram estimate)",
                   [this] {
                       return latencyLog2_.count()
                           ? std::exp2(latencyLog2_.percentile(0.5))
                           : 0.0;
                   });
        sg.formula("latency_p99_us",
                   "p99 request latency (log2-histogram estimate)",
                   [this] {
                       return latencyLog2_.count()
                           ? std::exp2(latencyLog2_.percentile(0.99))
                           : 0.0;
                   });
        // Instantaneous miss-queue depth; the dump path takes statsMu_
        // then queueMu_, so no enqueue path may nest them the other
        // way around.
        sg.formula("queue_now", "miss-queue depth right now", [this] {
            std::lock_guard<std::mutex> lk(queueMu_);
            return static_cast<double>(queue_.size());
        });
        cache_.registerStats(registry_.root().group("cache"));
        obs::registerProfStats(registry_.root().group("prof"));
    }

    int run();

  private:
    bool draining() const
    {
        return drain_.load(std::memory_order_relaxed) ||
               g_signalDrain.load(std::memory_order_relaxed);
    }

    void
    requestDrain()
    {
        drain_.store(true, std::memory_order_relaxed);
        queueCv_.notify_all();
    }

    /** Bump one daemon counter under statsMu_. */
    void
    count(uint64_t ServeStats::*c)
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        ++(stats_.*c);
    }

    void reply(Connection &conn, const ResponseEnvelope &env);
    void recordLatency(Clock::time_point received, bool hit);
    void connectionLoop(const ConnPtr &conn);
    /** False when the connection must close (protocol error). */
    bool handleFrame(const ConnPtr &conn, const std::string &payload);
    void schedulerLoop();
    void runBatch(std::vector<PendingJob> &batch);
    int listenUnix(const std::string &path);
    void statsFlushLoop();
    void writeStatsSnapshot();
    /** Close out one request's trace span (received -> replied). */
    void endRequestSpan(uint64_t req_id, Clock::time_point received);

    ServerOptions opts_;
    ResultCache cache_;
    std::atomic<bool> drain_{false};

    std::mutex queueMu_;
    std::condition_variable queueCv_;
    std::deque<PendingJob> queue_;
    bool readersDone_ = false;

    /** Every stat below is read and written under statsMu_. */
    std::mutex statsMu_;
    ServeStats stats_;
    obs::DistData queueDepth_, latencyUs_, hitLatencyUs_, missLatencyUs_;
    obs::Histogram latencyLog2_{0.0, 30.0, 30};
    obs::Registry registry_;
};

void
Server::reply(Connection &conn, const ResponseEnvelope &env)
{
    std::string payload = encodeResponse(env);
    std::lock_guard<std::mutex> lk(conn.wmu);
    // A failed write means the client went away; its request already
    // ran (and was cached), so there is nothing else to unwind.
    writeFrame(conn.wfd, payload);
}

void
Server::endRequestSpan(uint64_t req_id, Clock::time_point received)
{
    if (obs::SpanTracer *tr = obs::spanTracer()) {
        tr->instant("replied", req_id);
        tr->complete("request", req_id, received, Clock::now());
    }
}

void
Server::recordLatency(Clock::time_point received, bool hit)
{
    double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                          received)
                    .count();
    std::lock_guard<std::mutex> lk(statsMu_);
    latencyUs_.sample(us);
    (hit ? hitLatencyUs_ : missLatencyUs_).sample(us);
    latencyLog2_.sample(us > 1.0 ? std::log2(us) : 0.0);
}

bool
Server::handleFrame(const ConnPtr &conn, const std::string &payload)
{
    Clock::time_point received = Clock::now();
    RequestEnvelope env;
    std::string err;
    if (!decodeRequest(payload, &env, &err)) {
        count(&ServeStats::protocolErrors);
        reply(*conn, {WireStatus::Error, false, env.reqId,
                      "protocol error: " + err});
        return false;  // framing is unreliable now; drop the connection
    }

    count(&ServeStats::requests);

    // Tag every span this thread emits while handling the frame
    // (including prof-scope spans fired inside inline work) with the
    // request id.
    obs::SpanReqScope reqSpan(env.reqId);
    obs::SpanTracer *tr = obs::spanTracer();
    if (tr) {
        tr->nameThisThread("conn");
        tr->instant("received", env.reqId);
    }

    auto replyError = [&](const std::string &msg) {
        count(&ServeStats::requestErrors);
        reply(*conn, {WireStatus::Error, false, env.reqId, msg});
        endRequestSpan(env.reqId, received);
    };

    switch (env.kind) {
      case static_cast<uint8_t>(WireKind::Ping): {
        count(&ServeStats::pings);
        reply(*conn, {WireStatus::Ok, false, env.reqId, ""});
        endRequestSpan(env.reqId, received);
        return true;
      }
      case static_cast<uint8_t>(WireKind::Shutdown): {
        count(&ServeStats::shutdowns);
        reply(*conn, {WireStatus::Ok, false, env.reqId, ""});
        endRequestSpan(env.reqId, received);
        requestDrain();
        return true;
      }
      case static_cast<uint8_t>(WireKind::Stats): {
        if (!env.body.empty()) {
            replyError("stats request body must be empty");
            return true;
        }
        // Snapshot under statsMu_ so the counters the reader threads
        // bump mid-dump cannot tear; the cache/prof formulas take
        // their own (leaf) locks.
        ser::Writer w;
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            ++stats_.statsRequests;
            w.str(registry_.jsonDump());
            w.str(registry_.promDump());
        }
        reply(*conn, {WireStatus::Ok, false, env.reqId, w.data()});
        endRequestSpan(env.reqId, received);
        return true;
      }
      case static_cast<uint8_t>(WireKind::Profile):
      case static_cast<uint8_t>(WireKind::Timing):
        break;
      default:
        replyError("unknown request kind " + std::to_string(env.kind));
        return true;  // the frame itself was well-formed; keep going
    }

    PendingJob job;
    job.conn = conn;
    job.reqId = env.reqId;
    job.kind = static_cast<WireKind>(env.kind);
    job.received = received;
    job.key.kind = env.kind;
    job.key.requestFp = ser::fnv1a(env.body.data(), env.body.size());

    std::string workload_name;
    if (job.kind == WireKind::Profile) {
        count(&ServeStats::profileRequests);
        ser::TryReader r(env.body.data(), env.body.size());
        if (!decodeProfileRequest(r, &job.preq) || !r.atEnd()) {
            replyError("malformed profile request: " +
                       (r.ok() ? std::string("trailing bytes")
                               : r.error()));
            return true;
        }
        workload_name = job.preq.workload;
        job.key.workloadFp =
            workloadFingerprint(job.preq.workload, job.preq.build);
        if (std::string bad = job.preq.check(); !bad.empty()) {
            replyError("invalid profile request: " + bad);
            return true;
        }
    } else {
        count(&ServeStats::timingRequests);
        ser::TryReader r(env.body.data(), env.body.size());
        if (!decodeTimingRequest(r, &job.treq) || !r.atEnd()) {
            replyError("malformed timing request: " +
                       (r.ok() ? std::string("trailing bytes")
                               : r.error()));
            return true;
        }
        workload_name = job.treq.workload;
        job.key.workloadFp =
            workloadFingerprint(job.treq.workload, job.treq.build);
        job.key.configFp = configFingerprint(job.treq.pipe);
        if (std::string bad = job.treq.sampling.check(); !bad.empty()) {
            replyError("incoherent sampling parameters: " + bad);
            return true;
        }
        if (std::string bad = job.treq.pipe.check(); !bad.empty()) {
            replyError("invalid pipeline configuration: " + bad);
            return true;
        }
    }
    if (!workloadExists(workload_name)) {
        replyError("unknown workload '" + workload_name + "'");
        return true;
    }
    if ((job.kind == WireKind::Profile ? job.preq.build.scale
                                       : job.treq.build.scale) == 0) {
        replyError("workload scale must be >= 1");
        return true;
    }

    std::string cached;
    if (cache_.lookup(job.key, &cached)) {
        if (tr)
            tr->instant("cache_hit", env.reqId);
        reply(*conn, {WireStatus::Ok, true, env.reqId, cached});
        recordLatency(received, true);
        endRequestSpan(env.reqId, received);
        return true;
    }
    if (tr)
        tr->instant("cache_miss", env.reqId);

    size_t depth;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        queue_.push_back(std::move(job));
        depth = queue_.size();
    }
    // Sampled outside queueMu_: the stats dump path nests statsMu_ ->
    // queueMu_ (the queue_now formula), so nesting them the other way
    // here would deadlock a stats request against an enqueue.
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        queueDepth_.sample(static_cast<double>(depth));
    }
    if (tr)
        tr->instant("enqueued", env.reqId);
    queueCv_.notify_one();
    return true;
}

void
Server::connectionLoop(const ConnPtr &conn)
{
    count(&ServeStats::connections);
    for (;;) {
        std::string payload, err;
        FrameRead fr = readFrame(conn->rfd, &payload, &err, &drain_);
        if (fr == FrameRead::Stop || draining())
            return;
        if (fr == FrameRead::Eof)
            return;
        if (fr == FrameRead::Error) {
            count(&ServeStats::protocolErrors);
            reply(*conn,
                  {WireStatus::Error, false, 0, "protocol error: " + err});
            return;
        }
        if (!handleFrame(conn, payload))
            return;
    }
}

void
Server::runBatch(std::vector<PendingJob> &batch)
{
    std::vector<std::string> payloads(batch.size());
    Runner runner(opts_.jobs);
    try {
        runner.forEachIndex(batch.size(), [&](size_t i) -> uint64_t {
            PendingJob &j = batch[i];
            // The request id rides into the experiment through this
            // thread-local scope: prof scopes fired inside
            // runProfile/runTiming (translate, warmup, detail, drain)
            // emit spans tagged with it on this worker's track.
            obs::SpanTracer *tr = obs::spanTracer();
            if (tr)
                tr->nameThisThread("worker");
            obs::SpanReqScope reqSpan(j.reqId);
            Clock::time_point t0 = Clock::now();
            ser::Writer w;
            uint64_t insts;
            if (j.kind == WireKind::Profile) {
                ProfileResult res = runProfile(j.preq);
                FACSIM_PROF_SCOPE(Encode);
                encodeProfileResult(w, res);
                insts = res.insts;
            } else {
                TimingResult res = runTiming(j.treq);
                FACSIM_PROF_SCOPE(Encode);
                encodeTimingResult(w, res);
                insts = res.sample.enabled ? res.sample.totalInsts
                                           : res.stats.insts;
            }
            payloads[i] = w.data();
            if (tr) {
                tr->complete("run", j.reqId, t0, Clock::now());
                tr->instant("encoded", j.reqId);
            }
            return insts;
        });
    } catch (const std::exception &e) {
        warn("experiment batch failed: %s", e.what());
    }

    for (size_t i = 0; i < batch.size(); ++i) {
        PendingJob &j = batch[i];
        if (payloads[i].empty()) {
            count(&ServeStats::requestErrors);
            reply(*j.conn, {WireStatus::Error, false, j.reqId,
                            "experiment failed to run"});
            endRequestSpan(j.reqId, j.received);
            continue;
        }
        cache_.insert(j.key, payloads[i]);
        reply(*j.conn, {WireStatus::Ok, false, j.reqId, payloads[i]});
        recordLatency(j.received, false);
        endRequestSpan(j.reqId, j.received);
    }
}

void
Server::schedulerLoop()
{
    for (;;) {
        std::vector<PendingJob> batch;
        {
            std::unique_lock<std::mutex> lk(queueMu_);
            queueCv_.wait_for(lk, std::chrono::milliseconds(100), [&] {
                return !queue_.empty() || readersDone_;
            });
            if (queue_.empty()) {
                if (readersDone_)
                    return;
                continue;
            }
            batch.assign(std::make_move_iterator(queue_.begin()),
                         std::make_move_iterator(queue_.end()));
            queue_.clear();
        }
        if (obs::SpanTracer *tr = obs::spanTracer()) {
            tr->nameThisThread("sched");
            for (const PendingJob &j : batch)
                tr->instant("scheduled", j.reqId);
        }
        runBatch(batch);
    }
}

void
Server::writeStatsSnapshot()
{
    // Snapshot first (under statsMu_, same as a Stats request), then
    // write it atomically so a concurrent reader of --stats-out never
    // sees a torn dump.
    bool json = opts_.statsOut.size() >= 5 &&
        opts_.statsOut.compare(opts_.statsOut.size() - 5, 5, ".json") == 0;
    std::string text;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        text = json ? registry_.jsonDump() : registry_.textDump();
    }
    std::string err;
    if (!ser::writeFileAtomic(opts_.statsOut, text, &err))
        warn("cannot write stats snapshot: %s", err.c_str());
}

void
Server::statsFlushLoop()
{
    // 100 ms polls so a drain is noticed promptly even with a long
    // interval; the final authoritative dump happens after drain.
    auto interval = std::chrono::seconds(opts_.statsInterval);
    Clock::time_point next = Clock::now() + interval;
    while (!draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (Clock::now() < next)
            continue;
        writeStatsSnapshot();
        next = Clock::now() + interval;
    }
}

int
Server::listenUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("socket: %s", std::strerror(errno));
        return -1;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        warn("socket path '%s' is too long", path.c_str());
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());  // a stale socket from a dead daemon
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        warn("cannot listen on '%s': %s", path.c_str(),
             std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int
Server::run()
{
    if (!opts_.cacheFile.empty() && cache_.load(opts_.cacheFile)) {
        inform("result cache: %llu entries (%llu bytes) restored from "
               "'%s'",
               static_cast<unsigned long long>(cache_.entries()),
               static_cast<unsigned long long>(cache_.bytes()),
               opts_.cacheFile.c_str());
    }

    // Span tracing: a single process-wide tracer shared by every
    // daemon thread; detached (and only then finished) after all of
    // them have joined.
    std::ofstream trace_out;
    std::unique_ptr<obs::SpanTracer> tracer;
    if (!opts_.tracePath.empty()) {
        trace_out.open(opts_.tracePath,
                       std::ios::binary | std::ios::trunc);
        if (!trace_out) {
            warn("cannot write trace '%s'", opts_.tracePath.c_str());
        } else {
            tracer = std::make_unique<obs::SpanTracer>(trace_out);
            obs::setSpanTracer(tracer.get());
        }
    }

    std::thread scheduler([this] { schedulerLoop(); });
    std::thread flusher;
    if (opts_.statsInterval > 0 && !opts_.statsOut.empty())
        flusher = std::thread([this] { statsFlushLoop(); });
    // Relay a signal-initiated drain onto drain_, which is what the
    // reader poll loops actually watch; exits as soon as any drain
    // source fires.
    std::thread sig_relay([this] {
        while (!drain_.load(std::memory_order_relaxed)) {
            if (g_signalDrain.load(std::memory_order_relaxed)) {
                requestDrain();
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::vector<std::thread> readers;
    std::vector<ConnPtr> conns;

    if (opts_.stdio) {
        auto conn = std::make_shared<Connection>();
        conn->rfd = STDIN_FILENO;
        conn->wfd = STDOUT_FILENO;
        conn->ownsFd = false;
        conns.push_back(conn);
        connectionLoop(conn);
        requestDrain();
    } else {
        int listen_fd = listenUnix(opts_.socketPath);
        if (listen_fd < 0) {
            requestDrain();
            {
                std::lock_guard<std::mutex> lk(queueMu_);
                readersDone_ = true;
            }
            queueCv_.notify_all();
            scheduler.join();
            sig_relay.join();
            if (flusher.joinable())
                flusher.join();
            if (tracer) {
                obs::setSpanTracer(nullptr);
                tracer->finish();
            }
            return 1;
        }
        inform("serving on '%s' (%u jobs, %llu MB cache)",
               opts_.socketPath.c_str(), resolveJobs(opts_.jobs),
               static_cast<unsigned long long>(opts_.cacheBytes >> 20));
        while (!draining()) {
            struct pollfd p = {listen_fd, POLLIN, 0};
            int pr = ::poll(&p, 1, 100);
            if (pr < 0 && errno != EINTR) {
                warn("poll: %s", std::strerror(errno));
                break;
            }
            if (pr <= 0)
                continue;
            int cfd = ::accept(listen_fd, nullptr, nullptr);
            if (cfd < 0)
                continue;
            auto conn = std::make_shared<Connection>();
            conn->rfd = conn->wfd = cfd;
            conn->ownsFd = true;
            conns.push_back(conn);
            readers.emplace_back(
                [this, conn] { connectionLoop(conn); });
        }
        ::close(listen_fd);
        ::unlink(opts_.socketPath.c_str());
        requestDrain();
    }

    // Drain: readers notice the flag within one poll round; queued and
    // in-flight jobs finish and their responses flush (jobs keep their
    // Connection alive through the shared_ptr) before the scheduler is
    // allowed to exit.
    for (std::thread &t : readers)
        t.join();
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        readersDone_ = true;
    }
    queueCv_.notify_all();
    scheduler.join();
    sig_relay.join();
    if (flusher.joinable())
        flusher.join();
    conns.clear();

    if (!opts_.cacheFile.empty())
        cache_.save(opts_.cacheFile);
    if (tracer) {
        // Every span-emitting thread has joined; detach before finish
        // so no late emitter can race the closing bracket.
        obs::setSpanTracer(nullptr);
        tracer->finish();
    }
    if (!opts_.statsOut.empty())
        writeStatsSnapshot();
    inform("drained: %llu requests, %llu cache hits",
           static_cast<unsigned long long>(stats_.requests),
           static_cast<unsigned long long>(cache_.hits()));
    return 0;
}

} // namespace

int
serveMain(const ServerOptions &opts)
{
    FACSIM_ASSERT(opts.stdio || !opts.socketPath.empty(),
                  "serve needs --socket=PATH or --stdio");

    g_signalDrain.store(false, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = drainSignalHandler;
    struct sigaction old_int, old_term;
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);

    int rc = Server(opts).run();

    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    return rc;
}

} // namespace facsim::serve
