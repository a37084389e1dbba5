/**
 * @file
 * Synchronous client for the experiment service: one connection, one
 * outstanding request at a time. The load generator and the tests use
 * it; sweep scripts can too (one client per thread — a ServeClient is
 * not thread-safe).
 */

#ifndef FACSIM_SERVE_CLIENT_HH
#define FACSIM_SERVE_CLIENT_HH

#include <string>

#include "serve/wire.hh"
#include "sim/experiment.hh"

namespace facsim::serve
{

/** Connect to a daemon's unix socket; -1 with *err on failure. */
int connectUnix(const std::string &path, std::string *err);

class ServeClient
{
  public:
    /** Wrap a connected socket (closed by the destructor). */
    explicit ServeClient(int fd) : rfd_(fd), wfd_(fd), owns_(true) {}
    /** Wrap a pipe pair (e.g. a --stdio daemon's stdin/stdout). */
    ServeClient(int rfd, int wfd) : rfd_(rfd), wfd_(wfd), owns_(false) {}
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Send one request and wait for its response envelope. False with
     * *err on transport or protocol failure; a WireStatus::Error
     * response is a *successful* exchange (inspect resp->status).
     */
    bool exchange(WireKind kind, const std::string &body,
                  ResponseEnvelope *resp, std::string *err);

    /** @{ @name Typed wrappers (false with *err on any failure) */
    bool ping(std::string *err);
    bool shutdown(std::string *err);
    /** Live stats snapshot: flat JSON dump + Prometheus exposition. */
    bool stats(std::string *json, std::string *prom, std::string *err);
    bool profile(const ProfileRequest &req, ProfileResult *res,
                 bool *cached, std::string *err);
    bool timing(const TimingRequest &req, TimingResult *res, bool *cached,
                std::string *err);
    /** @} */

  private:
    /** exchange(), with an Error response turned into false + *err. */
    bool call(WireKind kind, const std::string &body,
              ResponseEnvelope *resp, std::string *err);
    /** The one typed exchange behind profile() and timing(). */
    template <class Req, class Res>
    bool experiment(WireKind kind, const Req &req, Res *res, bool *cached,
                    std::string *err);

    int rfd_, wfd_;
    bool owns_;
    uint64_t nextId_ = 1;
};

} // namespace facsim::serve

#endif // FACSIM_SERVE_CLIENT_HH
