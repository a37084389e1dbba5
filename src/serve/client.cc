#include "serve/client.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/request_codec.hh"

namespace facsim::serve
{

int
connectUnix(const std::string &path, std::string *err)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        *err = "socket path too long";
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        *err = "cannot connect to '" + path +
               "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

ServeClient::~ServeClient()
{
    if (owns_ && rfd_ >= 0)
        ::close(rfd_);
}

bool
ServeClient::exchange(WireKind kind, const std::string &body,
                      ResponseEnvelope *resp, std::string *err)
{
    uint64_t id = nextId_++;
    if (!writeFrame(wfd_, encodeRequest(kind, id, body))) {
        *err = "write failed (daemon gone?)";
        return false;
    }
    std::string payload;
    FrameRead fr = readFrame(rfd_, &payload, err);
    if (fr == FrameRead::Eof) {
        *err = "daemon closed the connection";
        return false;
    }
    if (fr != FrameRead::Frame)
        return false;
    if (!decodeResponse(payload, resp, err))
        return false;
    if (resp->reqId != id) {
        *err = "response id mismatch";
        return false;
    }
    return true;
}

bool
ServeClient::call(WireKind kind, const std::string &body,
                  ResponseEnvelope *resp, std::string *err)
{
    if (!exchange(kind, body, resp, err))
        return false;
    if (resp->status != WireStatus::Ok) {
        *err = resp->body;
        return false;
    }
    return true;
}

bool
ServeClient::ping(std::string *err)
{
    ResponseEnvelope resp;
    return call(WireKind::Ping, "", &resp, err);
}

bool
ServeClient::shutdown(std::string *err)
{
    ResponseEnvelope resp;
    return call(WireKind::Shutdown, "", &resp, err);
}

bool
ServeClient::stats(std::string *json, std::string *prom, std::string *err)
{
    ResponseEnvelope resp;
    if (!call(WireKind::Stats, "", &resp, err))
        return false;
    ser::TryReader r(resp.body.data(), resp.body.size());
    std::string j = r.str();
    std::string p = r.str();
    if (!r.ok() || !r.atEnd()) {
        *err = "malformed stats response";
        return false;
    }
    if (json)
        *json = std::move(j);
    if (prom)
        *prom = std::move(p);
    return true;
}

template <class Req, class Res>
bool
ServeClient::experiment(WireKind kind, const Req &req, Res *res,
                        bool *cached, std::string *err)
{
    // Bodies are the request codec's layouts: each struct's field list.
    ser::Writer w;
    ser::put(w, req);
    ResponseEnvelope resp;
    if (!call(kind, w.data(), &resp, err))
        return false;
    ser::TryReader r(resp.body.data(), resp.body.size());
    ser::get(r, *res);
    if (!r.ok() || !r.atEnd()) {
        *err = kind == WireKind::Timing ? "malformed timing result"
                                        : "malformed profile result";
        return false;
    }
    if (cached)
        *cached = resp.cached;
    return true;
}

bool
ServeClient::profile(const ProfileRequest &req, ProfileResult *res,
                     bool *cached, std::string *err)
{
    return experiment(WireKind::Profile, req, res, cached, err);
}

bool
ServeClient::timing(const TimingRequest &req, TimingResult *res,
                    bool *cached, std::string *err)
{
    return experiment(WireKind::Timing, req, res, cached, err);
}

} // namespace facsim::serve
