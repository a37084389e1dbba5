#include "serve/server.hh"

#include <algorithm>
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
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <variant>
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

/**
 * One client connection, shared by its reader thread and every job
 * queued from it. Writes are serialized by wmu: the reader answers
 * hits/errors inline while workers post miss results. The socket
 * closes when the last holder lets go — the reader at EOF or error,
 * or else the last of its queued jobs once it has replied.
 */
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

/** An admitted cache miss waiting for a worker. */
struct PendingJob
{
    ConnPtr conn;
    uint64_t reqId = 0;
    std::variant<ProfileRequest, TimingRequest> req;
    CacheKey key;
    Clock::time_point received;
};

/** A connection's reader thread; done is set as its loop returns. */
struct Reader
{
    std::thread th;
    std::atomic<bool> done{false};
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

    void requestDrain() { drain_.store(true, std::memory_order_relaxed); }

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
    /**
     * Decode, check and key one experiment body into @p job; the error
     * reply text, or empty when the job may run.
     */
    template <class Req>
    std::string admit(const std::string &body, PendingJob &job);
    void workerLoop();
    void runJob(PendingJob &job);
    int listenUnix(const std::string &path);
    void statsFlushLoop();
    void writeStatsSnapshot();
    /** Close out one request's trace span (received -> replied). */
    void endRequestSpan(uint64_t req_id, Clock::time_point received);

    ServerOptions opts_;
    ResultCache cache_;
    std::atomic<bool> drain_{false};

    std::mutex queueMu_;
    /**
     * Idle workers' wake-up signals, the most recently idle last. A new
     * job wakes that one: on a closed-loop client the same warm thread
     * takes every miss, while a round robin over the pool measured
     * ~20% slower misses on facbench serve-mixed.
     */
    std::vector<std::condition_variable *> idle_;
    std::deque<PendingJob> queue_;
    /** Set once every reader has returned: no job can be queued. */
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

template <class Req>
std::string
Server::admit(const std::string &body, PendingJob &job)
{
    constexpr bool timing = std::is_same_v<Req, TimingRequest>;
    count(timing ? &ServeStats::timingRequests
                 : &ServeStats::profileRequests);
    // The body is the request codec's layout: the struct's field list.
    Req &req = job.req.emplace<Req>();
    ser::TryReader r(body.data(), body.size());
    ser::get(r, req);
    if (!r.ok() || !r.atEnd())
        return std::string(timing ? "malformed timing request: "
                                  : "malformed profile request: ") +
               (r.ok() ? std::string("trailing bytes") : r.error());
    if (std::string bad = req.check(); !bad.empty())
        return timing ? bad : "invalid profile request: " + bad;
    if (!workloadExists(req.workload))
        return "unknown workload '" + req.workload + "'";
    if (req.build.scale == 0)
        return "workload scale must be >= 1";

    job.key.kind = static_cast<uint8_t>(timing ? WireKind::Timing
                                               : WireKind::Profile);
    job.key.workloadFp = workloadFingerprint(req.workload, req.build);
    if constexpr (timing)
        job.key.configFp = configFingerprint(req.pipe);
    job.key.requestFp = ser::fnv1a(body.data(), body.size());
    return {};
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

    PendingJob job{conn, env.reqId, {}, {}, received};
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
            err = "stats request body must be empty";
            break;
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
        err = admit<ProfileRequest>(env.body, job);
        break;
      case static_cast<uint8_t>(WireKind::Timing):
        err = admit<TimingRequest>(env.body, job);
        break;
      default:
        // The frame itself was well-formed; keep the connection.
        err = "unknown request kind " + std::to_string(env.kind);
    }
    if (!err.empty()) {
        count(&ServeStats::requestErrors);
        reply(*conn, {WireStatus::Error, false, env.reqId, err});
        endRequestSpan(env.reqId, received);
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
    if (tr) {
        tr->instant("cache_miss", env.reqId);
        tr->instant("enqueued", env.reqId);
    }

    size_t depth;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        queue_.push_back(std::move(job));
        depth = queue_.size();
        if (!idle_.empty()) {
            idle_.back()->notify_one();
            idle_.pop_back();
        }
    }
    // Sampled outside queueMu_: the stats dump path nests statsMu_ ->
    // queueMu_ (the queue_now formula), so nesting them the other way
    // here would deadlock a stats request against an enqueue.
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        queueDepth_.sample(static_cast<double>(depth));
    }
    return true;
}

void
Server::connectionLoop(const ConnPtr &conn)
{
    count(&ServeStats::connections);
    for (;;) {
        std::string payload, err;
        FrameRead fr = readFrame(conn->rfd, &payload, &err, &drain_);
        if (fr == FrameRead::Stop || fr == FrameRead::Eof || draining())
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
Server::runJob(PendingJob &job)
{
    // The request id rides into the experiment through this
    // thread-local scope: prof scopes fired inside the run (translate,
    // warmup, detail, drain) emit spans tagged with it on this
    // worker's track.
    obs::SpanReqScope reqSpan(job.reqId);
    obs::SpanTracer *tr = obs::spanTracer();
    if (tr)
        tr->instant("scheduled", job.reqId);
    Clock::time_point t0 = Clock::now();
    ResponseEnvelope resp{WireStatus::Ok, false, job.reqId, ""};
    try {
        resp.body = std::visit(
            [](const auto &req) {
                auto res = runExperiment(req);
                FACSIM_PROF_SCOPE(Encode);
                ser::Writer w;
                ser::put(w, res);
                return w.data();
            },
            job.req);
        if (tr) {
            tr->complete("run", job.reqId, t0, Clock::now());
            tr->instant("encoded", job.reqId);
        }
        cache_.insert(job.key, resp.body);
    } catch (const std::exception &e) {
        warn("experiment failed: %s", e.what());
        count(&ServeStats::requestErrors);
        resp = {WireStatus::Error, false, job.reqId,
                "experiment failed to run"};
    }
    reply(*job.conn, resp);
    if (resp.status == WireStatus::Ok)
        recordLatency(job.received, false);
    endRequestSpan(job.reqId, job.received);
}

void
Server::workerLoop()
{
    if (obs::SpanTracer *tr = obs::spanTracer())
        tr->nameThisThread("worker");
    std::condition_variable wake;
    for (;;) {
        std::unique_lock<std::mutex> lk(queueMu_);
        while (queue_.empty() && !readersDone_) {
            idle_.push_back(&wake);
            wake.wait(lk);
            // Whoever woke us took us off the list; a spurious wake-up
            // did not.
            std::erase(idle_, &wake);
        }
        if (queue_.empty())
            return;  // drained, and no reader is left to queue more
        PendingJob job = std::move(queue_.front());
        queue_.pop_front();
        lk.unlock();
        runJob(job);
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
    if (!ser::writeFileAtomic(opts_.statsOut, {text}, &err))
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
    int listen_fd = -1;
    if (!opts_.stdio && (listen_fd = listenUnix(opts_.socketPath)) < 0)
        return 1;
    if (!opts_.cacheFile.empty() && cache_.load(opts_.cacheFile)) {
        ResultCacheStats cs = cache_.stats();
        inform("result cache: %llu entries (%llu bytes) restored from "
               "'%s'",
               static_cast<unsigned long long>(cs.entries),
               static_cast<unsigned long long>(cs.bytes),
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

    // The workers live as long as the daemon; --jobs=0 means one per
    // hardware thread.
    unsigned jobs = opts_.jobs
        ? opts_.jobs : std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < jobs; ++i)
        workers.emplace_back([this] { workerLoop(); });
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

    // Join the readers whose connection has ended (all of them when
    // draining), giving back their stacks.
    std::list<Reader> readers;
    auto reap = [&readers](bool all) {
        for (auto it = readers.begin(); it != readers.end();) {
            if (!all && !it->done.load(std::memory_order_acquire)) {
                ++it;
                continue;
            }
            it->th.join();
            it = readers.erase(it);
        }
    };

    if (opts_.stdio) {
        auto conn = std::make_shared<Connection>();
        conn->rfd = STDIN_FILENO;
        conn->wfd = STDOUT_FILENO;
        connectionLoop(conn);
    } else {
        inform("serving on '%s' (%u jobs, %llu MB cache)",
               opts_.socketPath.c_str(), jobs,
               static_cast<unsigned long long>(opts_.cacheBytes >> 20));
        while (!draining()) {
            reap(false);
            struct pollfd p = {listen_fd, POLLIN, 0};
            int pr = ::poll(&p, 1, 100);
            if (pr < 0 && errno != EINTR) {
                warn("poll: %s", std::strerror(errno));
                break;
            }
            if (pr <= 0)
                continue;
            int cfd = ::accept(listen_fd, nullptr, nullptr);
            if (cfd < 0) {
                // Out of descriptors, the listener stays readable: wait
                // a poll round for a reader to give one back, not spin.
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                continue;
            }
            auto conn = std::make_shared<Connection>();
            conn->rfd = conn->wfd = cfd;
            conn->ownsFd = true;
            Reader &r = readers.emplace_back();
            r.th = std::thread([this, &r, conn]() mutable {
                connectionLoop(conn);
                conn.reset();  // the socket closes unless a job holds it
                r.done.store(true, std::memory_order_release);
            });
        }
        ::close(listen_fd);
        ::unlink(opts_.socketPath.c_str());
    }
    requestDrain();

    // Drain: the live readers notice the flag within one poll round;
    // then the workers empty the queue (a job keeps its Connection
    // alive until it has replied) and return.
    reap(true);
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        readersDone_ = true;
        for (std::condition_variable *w : idle_)
            w->notify_one();
        idle_.clear();
    }
    for (std::thread &t : workers)
        t.join();
    sig_relay.join();
    if (flusher.joinable())
        flusher.join();

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
           static_cast<unsigned long long>(cache_.stats().hits));
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
