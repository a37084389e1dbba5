/**
 * @file
 * The experiment-serving daemon: a long-running process that owns
 * prebuilt workload images, accepts experiment requests over the
 * framed wire protocol (serve/wire.hh), runs cache misses on a pool of
 * `--jobs` worker threads and answers repeats from a persistent result
 * cache (serve/cache.hh).
 *
 * Front ends: a unix-domain listening socket (`--socket`) and a stdio
 * mode (`--stdio`, frames on fd 0/1) for tests, CI and ssh-style
 * tunnelling. Both speak the identical protocol.
 *
 * Request path: each connection gets a reader thread, which lives as
 * long as the connection: at EOF or an error it drops the connection
 * and is joined by the accept loop, and the socket closes once no
 * queued job still holds it. Ping, Shutdown, protocol errors and
 * *cache hits* are answered inline on the reader — a hit costs one
 * cache probe plus one frame write, microseconds, which is what makes
 * warm repeats orders of magnitude faster than cold runs. Profile and
 * Timing requests share one admission path (decode, check, key,
 * probe); a miss is queued and wakes the most recently idle worker,
 * which pops it, runs it, encodes the result once, inserts it into the
 * cache and replies.
 * The workers start once with the daemon; after start-up the only
 * threads it creates are the readers.
 *
 * Graceful drain: SIGINT/SIGTERM (a lock-free flag every bounded wait
 * in the daemon re-checks) or a Shutdown request stops the accept loop
 * and new frame reads, waits for the readers still alive, lets the
 * workers empty the queue and flush the responses, persists the cache
 * (`--cache-file`), dumps the stats registry (`--stats-out`) and
 * exits 0.
 *
 * Live telemetry (docs/INTERNALS.md "Live telemetry"): a
 * WireKind::Stats request snapshots the registry mid-run (flat JSON +
 * Prometheus exposition) without touching the experiment queue;
 * `--stats-interval` flushes `--stats-out` periodically via
 * write-to-temp + rename; `--trace` records per-request span events
 * into Chrome trace-event JSON with one track per daemon thread.
 */

#ifndef FACSIM_SERVE_SERVER_HH
#define FACSIM_SERVE_SERVER_HH

#include <cstdint>
#include <string>

namespace facsim::serve
{

/** Daemon configuration (the `facsim_cli serve` flag set). */
struct ServerOptions
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath;
    /** Serve one connection on stdin/stdout instead of a socket. */
    bool stdio = false;
    /** Worker threads for cache misses (0 = all hardware threads). */
    unsigned jobs = 1;
    /** Result-cache byte budget (0 = unbounded). */
    uint64_t cacheBytes = 256ull << 20;
    /** Cache persistence file; empty = in-memory only. */
    std::string cacheFile;
    /** Stats-registry dump on exit; JSON iff the path ends ".json". */
    std::string statsOut;
    /**
     * Flush --stats-out every N seconds while serving (0 = only on
     * drain). Each flush writes to a temp file and rename()s it into
     * place, so a scraper never reads a torn dump.
     */
    unsigned statsInterval = 0;
    /**
     * Per-request span trace (Chrome trace-event JSON): received /
     * enqueued / scheduled / run / replied events per request, on
     * per-thread tracks. Empty = disabled.
     */
    std::string tracePath;
};

/**
 * Run the daemon until drain; returns the process exit code (0 on a
 * graceful drain). Installs SIGINT/SIGTERM handlers for its lifetime.
 */
int serveMain(const ServerOptions &opts);

} // namespace facsim::serve

#endif // FACSIM_SERVE_SERVER_HH
