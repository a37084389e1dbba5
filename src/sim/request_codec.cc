#include "sim/request_codec.hh"

namespace facsim
{

// Every layout is the struct's field list (fields() next to each
// struct); put()/get() walk it, range-check enums and cap vectors.

void
encodeProfileRequest(ser::Writer &w, const ProfileRequest &req)
{
    ser::put(w, req);
}

void
encodeTimingRequest(ser::Writer &w, const TimingRequest &req)
{
    ser::put(w, req);
}

bool
decodeProfileRequest(ser::TryReader &r, ProfileRequest *req)
{
    ser::get(r, *req);
    return r.ok();
}

bool
decodeTimingRequest(ser::TryReader &r, TimingRequest *req)
{
    ser::get(r, *req);
    return r.ok();
}

void
encodeProfileResult(ser::Writer &w, const ProfileResult &res)
{
    ser::put(w, res);
}

void
encodeTimingResult(ser::Writer &w, const TimingResult &res)
{
    ser::put(w, res);
}

bool
decodeProfileResult(ser::TryReader &r, ProfileResult *res)
{
    ser::get(r, *res);
    return r.ok();
}

bool
decodeTimingResult(ser::TryReader &r, TimingResult *res)
{
    ser::get(r, *res);
    return r.ok();
}

uint64_t
workloadFingerprint(const std::string &workload, const BuildOptions &build)
{
    ser::Writer w;
    w.str(workload);
    ser::put(w, build);
    return ser::fnv1a(w.data().data(), w.data().size());
}

} // namespace facsim
