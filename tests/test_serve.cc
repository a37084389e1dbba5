/**
 * @file
 * Experiment-service tests: the request/result codec round-trips
 * canonically, malformed wire input (truncated frames, hostile length
 * prefixes, bad magic/version, unknown kinds) surfaces as clean
 * protocol errors rather than aborts, the result cache obeys
 * hit/miss/LRU/persistence semantics and never serves across a
 * fingerprint mismatch, and the daemon end-to-end (unix socket and
 * --stdio subprocess) answers warm repeats byte-identically to the
 * cold run. The load generator's response digest is invariant under
 * --concurrency.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/sampler.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/request_codec.hh"
#include "util/sealed.hh"
#include "util/serialize.hh"

using namespace facsim;
namespace sv = facsim::serve;

namespace
{

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

ProfileRequest
smallProfileRequest()
{
    ProfileRequest req;
    req.workload = "espresso";
    req.facConfigs = {facConfigFor(CacheConfig{16 * 1024, 32, 1, 6}),
                      facConfigFor(CacheConfig{16 * 1024, 16, 1, 6})};
    req.ltbConfigs = {{256, LtbPolicy::Stride}};
    req.withTlb = true;
    req.maxInsts = 20000;
    return req;
}

TimingRequest
smallTimingRequest()
{
    TimingRequest req;
    req.workload = "espresso";
    req.pipe = facPipelineConfig(32);
    req.maxInsts = 20000;
    return req;
}

std::string
encodeProfileBody(const ProfileRequest &req)
{
    ser::Writer w;
    encodeProfileRequest(w, req);
    return w.data();
}

std::string
encodeTimingBody(const TimingRequest &req)
{
    ser::Writer w;
    encodeTimingRequest(w, req);
    return w.data();
}

/** Spin until a daemon accepts connections on @p path. */
int
connectWithRetry(const std::string &path)
{
    std::string err;
    for (int i = 0; i < 200; ++i) {
        int fd = sv::connectUnix(path, &err);
        if (fd >= 0)
            return fd;
        usleep(20 * 1000);
    }
    ADD_FAILURE() << "cannot connect to " << path << ": " << err;
    return -1;
}

/** Start serveMain on a thread; join() returns its exit code. */
class DaemonFixture
{
  public:
    explicit DaemonFixture(const sv::ServerOptions &opts)
        : th_([this, opts] { rc_ = sv::serveMain(opts); })
    {
    }

    int
    join()
    {
        th_.join();
        return rc_;
    }

  private:
    int rc_ = -1;
    std::thread th_;
};

} // namespace

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

TEST(ServeCodec, ProfileRequestRoundTripIsCanonical)
{
    ProfileRequest req = smallProfileRequest();
    std::string bytes = encodeProfileBody(req);

    ser::TryReader r(bytes.data(), bytes.size());
    ProfileRequest back;
    ASSERT_TRUE(decodeProfileRequest(r, &back));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(back.workload, req.workload);
    EXPECT_EQ(back.facConfigs.size(), 2u);
    EXPECT_EQ(back.facConfigs[1].blockBits, req.facConfigs[1].blockBits);
    EXPECT_EQ(back.ltbConfigs.size(), 1u);
    EXPECT_EQ(back.ltbConfigs[0].policy, LtbPolicy::Stride);
    EXPECT_TRUE(back.withTlb);
    EXPECT_EQ(back.maxInsts, 20000u);

    // Canonical: decode-then-encode reproduces the bytes exactly.
    EXPECT_EQ(encodeProfileBody(back), bytes);
}

TEST(ServeCodec, TimingRequestRoundTripIsCanonical)
{
    TimingRequest req = smallTimingRequest();
    req.sampling.period = 50000;
    req.sampling.detail = 1000;
    req.sampling.warmup = 2000;
    std::string bytes = encodeTimingBody(req);

    ser::TryReader r(bytes.data(), bytes.size());
    TimingRequest back;
    ASSERT_TRUE(decodeTimingRequest(r, &back));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(back.workload, req.workload);
    EXPECT_EQ(back.pipe.fac.blockBits, req.pipe.fac.blockBits);
    EXPECT_EQ(back.sampling.period, 50000u);
    EXPECT_EQ(configFingerprint(back.pipe), configFingerprint(req.pipe));
    EXPECT_EQ(encodeTimingBody(back), bytes);
}

TEST(ServeCodec, TraceAndRingAreNotPartOfTheEncoding)
{
    TimingRequest a = smallTimingRequest();
    TimingRequest b = smallTimingRequest();
    b.trace.path = "/tmp/somewhere.konata";
    b.historyRing = 64;
    // Host-side observability must not split cache entries.
    EXPECT_EQ(encodeTimingBody(a), encodeTimingBody(b));
}

TEST(ServeCodec, ResultsRoundTripThroughTheCodec)
{
    ProfileResult pr = runProfile(smallProfileRequest());
    ser::Writer w;
    encodeProfileResult(w, pr);
    ser::TryReader r(w.data().data(), w.data().size());
    ProfileResult back;
    ASSERT_TRUE(decodeProfileResult(r, &back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.insts, pr.insts);
    EXPECT_EQ(back.loads, pr.loads);
    ASSERT_EQ(back.fac.size(), pr.fac.size());
    EXPECT_EQ(back.fac[0].loadFailures, pr.fac[0].loadFailures);
    EXPECT_EQ(back.fac[0].causeCounts, pr.fac[0].causeCounts);
    EXPECT_EQ(back.tlbMisses, pr.tlbMisses);

    ser::Writer w2;
    encodeProfileResult(w2, back);
    EXPECT_EQ(w2.data(), w.data());

    TimingResult tr = runTiming(smallTimingRequest());
    ser::Writer tw;
    encodeTimingResult(tw, tr);
    ser::TryReader tr2(tw.data().data(), tw.data().size());
    TimingResult tback;
    ASSERT_TRUE(decodeTimingResult(tr2, &tback));
    EXPECT_TRUE(tr2.atEnd());
    EXPECT_EQ(tback.stats.cycles, tr.stats.cycles);
    EXPECT_EQ(tback.stats.insts, tr.stats.insts);
    ASSERT_EQ(tback.hier.levels.size(), tr.hier.levels.size());
    EXPECT_EQ(tback.hier.levels[0].misses, tr.hier.levels[0].misses);

    ser::Writer tw2;
    encodeTimingResult(tw2, tback);
    EXPECT_EQ(tw2.data(), tw.data());
}

TEST(ServeCodec, TruncatedBodyFailsCleanly)
{
    std::string bytes = encodeProfileBody(smallProfileRequest());
    for (size_t cut : {size_t(0), size_t(1), bytes.size() / 2,
                       bytes.size() - 1}) {
        ser::TryReader r(bytes.data(), cut);
        ProfileRequest back;
        EXPECT_FALSE(decodeProfileRequest(r, &back)) << "cut=" << cut;
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error().empty());
    }
}

TEST(ServeCodec, HostileVectorLengthIsRejected)
{
    // workload="x", then a facConfigs count of 2^32-1: the decoder must
    // reject the count instead of attempting a 4-billion-element loop.
    ser::Writer w;
    w.str("x");
    w.u64(0);  // build: policy... — actually policy comes first; build
    // the simplest hostile stream: valid workload, then garbage counts.
    std::string bytes = w.data();
    bytes.resize(bytes.size() + 64, '\xff');
    ser::TryReader r(bytes.data(), bytes.size());
    ProfileRequest back;
    EXPECT_FALSE(decodeProfileRequest(r, &back));
    EXPECT_FALSE(r.ok());
}

TEST(ServeCodec, WorkloadFingerprintSeparatesIdentities)
{
    BuildOptions base;
    uint64_t a = workloadFingerprint("espresso", base);
    EXPECT_EQ(a, workloadFingerprint("espresso", base));
    EXPECT_NE(a, workloadFingerprint("eqntott", base));

    BuildOptions scaled = base;
    scaled.scale = 2;
    EXPECT_NE(a, workloadFingerprint("espresso", scaled));

    BuildOptions support = base;
    support.policy = CodeGenPolicy::withSupport();
    EXPECT_NE(a, workloadFingerprint("espresso", support));
}

TEST(ServeCodec, ConfigFingerprintSeparatesTimingConfigs)
{
    uint64_t base = configFingerprint(baselineConfig(32));
    EXPECT_EQ(base, configFingerprint(baselineConfig(32)));
    EXPECT_NE(base, configFingerprint(baselineConfig(16)));
    EXPECT_NE(base, configFingerprint(facPipelineConfig(32)));
    EXPECT_NE(base, configFingerprint(agiConfig(32)));

    PipelineConfig tweaked = baselineConfig(32);
    tweaked.fpDivLat += 1;
    EXPECT_NE(base, configFingerprint(tweaked));
}

// ---------------------------------------------------------------------
// Wire envelopes and framing
// ---------------------------------------------------------------------

TEST(ServeWire, RequestEnvelopeRoundTrip)
{
    std::string payload =
        sv::encodeRequest(sv::WireKind::Profile, 42, "body-bytes");
    sv::RequestEnvelope env;
    std::string err;
    ASSERT_TRUE(sv::decodeRequest(payload, &env, &err)) << err;
    EXPECT_EQ(env.kind, static_cast<uint8_t>(sv::WireKind::Profile));
    EXPECT_EQ(env.reqId, 42u);
    EXPECT_EQ(env.body, "body-bytes");
}

TEST(ServeWire, ResponseEnvelopeRoundTrip)
{
    sv::ResponseEnvelope in{sv::WireStatus::Error, true, 7, "oops"};
    std::string payload = sv::encodeResponse(in);
    sv::ResponseEnvelope out;
    std::string err;
    ASSERT_TRUE(sv::decodeResponse(payload, &out, &err)) << err;
    EXPECT_EQ(out.status, sv::WireStatus::Error);
    EXPECT_TRUE(out.cached);
    EXPECT_EQ(out.reqId, 7u);
    EXPECT_EQ(out.body, "oops");
}

TEST(ServeWire, BadMagicVersionAndTruncationAreErrors)
{
    std::string good = sv::encodeRequest(sv::WireKind::Ping, 1, "");
    sv::RequestEnvelope env;
    std::string err;

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_FALSE(sv::decodeRequest(bad_magic, &env, &err));
    EXPECT_NE(err.find("magic"), std::string::npos);

    std::string bad_version = good;
    bad_version[4] = 99;
    EXPECT_FALSE(sv::decodeRequest(bad_version, &env, &err));
    EXPECT_NE(err.find("version"), std::string::npos);

    for (size_t cut = 0; cut < good.size(); ++cut) {
        EXPECT_FALSE(
            sv::decodeRequest(good.substr(0, cut), &env, &err))
            << "cut=" << cut;
    }
}

TEST(ServeWire, FramesRoundTripOverAPipe)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_TRUE(sv::writeFrame(fds[1], "hello"));
    ASSERT_TRUE(sv::writeFrame(fds[1], ""));
    close(fds[1]);

    std::string payload, err;
    EXPECT_EQ(sv::readFrame(fds[0], &payload, &err), sv::FrameRead::Frame);
    EXPECT_EQ(payload, "hello");
    EXPECT_EQ(sv::readFrame(fds[0], &payload, &err), sv::FrameRead::Frame);
    EXPECT_EQ(payload, "");
    // Orderly close on a frame boundary.
    EXPECT_EQ(sv::readFrame(fds[0], &payload, &err), sv::FrameRead::Eof);
    close(fds[0]);
}

TEST(ServeWire, OversizedLengthPrefixIsRejectedBeforeAllocation)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    uint32_t huge = sv::maxFrameBytes + 1;
    ASSERT_EQ(write(fds[1], &huge, 4), 4);
    close(fds[1]);

    std::string payload, err;
    EXPECT_EQ(sv::readFrame(fds[0], &payload, &err),
              sv::FrameRead::Error);
    EXPECT_NE(err.find("frame"), std::string::npos);
    close(fds[0]);
}

TEST(ServeWire, EofMidFrameIsAnError)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    uint32_t len = 100;
    ASSERT_EQ(write(fds[1], &len, 4), 4);
    ASSERT_EQ(write(fds[1], "abc", 3), 3);  // 97 bytes short
    close(fds[1]);

    std::string payload, err;
    EXPECT_EQ(sv::readFrame(fds[0], &payload, &err),
              sv::FrameRead::Error);
    close(fds[0]);
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

TEST(ServeCache, HitAfterMissReturnsTheExactPayload)
{
    sv::ResultCache cache(1 << 20);
    sv::CacheKey key{1, 0, 111, 222};
    std::string out;
    EXPECT_FALSE(cache.lookup(key, &out));
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.insert(key, "payload-bytes");
    EXPECT_TRUE(cache.lookup(key, &out));
    EXPECT_EQ(out, "payload-bytes");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().bytes, 13u);
}

TEST(ServeCache, FingerprintMismatchIsNeverServed)
{
    sv::ResultCache cache(1 << 20);
    sv::CacheKey key{2, 1000, 2000, 3000};
    cache.insert(key, "result");

    std::string out;
    sv::CacheKey other = key;
    other.configFp = 1001;  // different timing configuration
    EXPECT_FALSE(cache.lookup(other, &out));
    other = key;
    other.workloadFp = 2001;  // different workload identity
    EXPECT_FALSE(cache.lookup(other, &out));
    other = key;
    other.requestFp = 3001;  // different request body
    EXPECT_FALSE(cache.lookup(other, &out));
    other = key;
    other.kind = 1;  // profile vs timing
    EXPECT_FALSE(cache.lookup(other, &out));
    EXPECT_TRUE(cache.lookup(key, &out));
}

TEST(ServeCache, LruEvictionUnderByteBudget)
{
    sv::ResultCache cache(30);
    std::string ten(10, 'x');
    cache.insert({1, 0, 0, 1}, ten);
    cache.insert({1, 0, 0, 2}, ten);
    cache.insert({1, 0, 0, 3}, ten);
    EXPECT_EQ(cache.stats().entries, 3u);

    // Touch key 1 so key 2 is the LRU victim.
    std::string out;
    EXPECT_TRUE(cache.lookup({1, 0, 0, 1}, &out));
    cache.insert({1, 0, 0, 4}, ten);

    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookup({1, 0, 0, 1}, &out));
    EXPECT_FALSE(cache.lookup({1, 0, 0, 2}, &out));
    EXPECT_TRUE(cache.lookup({1, 0, 0, 3}, &out));
    EXPECT_TRUE(cache.lookup({1, 0, 0, 4}, &out));

    // A payload larger than the whole budget is not cached at all.
    cache.insert({1, 0, 0, 5}, std::string(31, 'y'));
    EXPECT_FALSE(cache.lookup({1, 0, 0, 5}, &out));
    EXPECT_LE(cache.stats().bytes, 30u);
}

TEST(ServeCache, PersistsAcrossSaveAndLoad)
{
    const std::string path = tmpPath("cache.facsimrc");
    sv::ResultCache a(1 << 20);
    a.insert({1, 0, 10, 11}, "profile-result");
    a.insert({2, 99, 20, 21}, "timing-result");
    ASSERT_TRUE(a.save(path));

    sv::ResultCache b(1 << 20);
    ASSERT_TRUE(b.load(path));
    EXPECT_EQ(b.stats().entries, 2u);
    std::string out;
    EXPECT_TRUE(b.lookup({1, 0, 10, 11}, &out));
    EXPECT_EQ(out, "profile-result");
    EXPECT_TRUE(b.lookup({2, 99, 20, 21}, &out));
    EXPECT_EQ(out, "timing-result");
}

TEST(ServeCache, CorruptOrMissingFilesStartCold)
{
    sv::ResultCache c(1 << 20);
    EXPECT_FALSE(c.load(tmpPath("does-not-exist.facsimrc")));
    EXPECT_EQ(c.stats().entries, 0u);

    const std::string path = tmpPath("corrupt.facsimrc");
    sv::ResultCache a(1 << 20);
    a.insert({1, 0, 1, 2}, "data");
    ASSERT_TRUE(a.save(path));

    // Flip a byte in the middle: the checksum no longer matches.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24, SEEK_SET);
    int old = std::fgetc(f);
    std::fseek(f, 24, SEEK_SET);
    std::fputc(old ^ 0xff, f);
    std::fclose(f);

    sv::ResultCache b(1 << 20);
    EXPECT_FALSE(b.load(path));
    EXPECT_EQ(b.stats().entries, 0u);

    // Garbage that is not even a container.
    const std::string junk = tmpPath("junk.facsimrc");
    f = std::fopen(junk.c_str(), "wb");
    std::fputs("not a cache", f);
    std::fclose(f);
    sv::ResultCache d(1 << 20);
    EXPECT_FALSE(d.load(junk));
    EXPECT_EQ(d.stats().entries, 0u);
}

namespace
{

bool
exists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

std::string
slurpFile(const std::string &path)
{
    std::string data;
    EXPECT_TRUE(ser::readFile(path, &data)) << path;
    return data;
}

} // namespace

TEST(ServeCache, SaveIsAtomicAndFailedSavesKeepTheOldFile)
{
    const std::string path = tmpPath("atomic.facsimrc");
    std::remove(path.c_str());
    sv::ResultCache a(1 << 20);
    a.insert({1, 0, 10, 11}, "first");
    ASSERT_TRUE(a.save(path));
    EXPECT_FALSE(exists(path + ".tmp"));
    const std::string good = slurpFile(path);

    // Into a directory that does not exist: reported, not ignored.
    sv::ResultCache b(1 << 20);
    b.insert({2, 0, 20, 21}, "second");
    EXPECT_FALSE(b.save(tmpPath("no-such-dir/atomic.facsimrc")));

    // A write that cannot start (the temp name is taken by a
    // directory) fails without touching the previous good file.
    ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0700), 0);
    EXPECT_FALSE(b.save(path));
    ASSERT_EQ(::rmdir((path + ".tmp").c_str()), 0);
    EXPECT_EQ(slurpFile(path), good);

    sv::ResultCache c(1 << 20);
    ASSERT_TRUE(c.load(path));
    std::string out;
    EXPECT_TRUE(c.lookup({1, 0, 10, 11}, &out));
    EXPECT_EQ(out, "first");
    EXPECT_FALSE(c.lookup({2, 0, 20, 21}, &out));

    // A successful save replaces the file and leaves no temp behind.
    ASSERT_TRUE(b.save(path));
    EXPECT_FALSE(exists(path + ".tmp"));
    sv::ResultCache d(1 << 20);
    ASSERT_TRUE(d.load(path));
    EXPECT_TRUE(d.lookup({2, 0, 20, 21}, &out));
    EXPECT_EQ(out, "second");
}

// ---------------------------------------------------------------------
// End-to-end daemon (unix socket, in-process)
// ---------------------------------------------------------------------

TEST(ServeDaemon, WarmRepeatIsByteIdenticalAndCached)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("e2e.sock");
    opts.jobs = 2;
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;
    ASSERT_TRUE(client.ping(&err)) << err;

    std::string body = encodeProfileBody(smallProfileRequest());
    sv::ResponseEnvelope cold, warm;
    ASSERT_TRUE(client.exchange(sv::WireKind::Profile, body, &cold, &err))
        << err;
    ASSERT_EQ(cold.status, sv::WireStatus::Ok) << cold.body;
    EXPECT_FALSE(cold.cached);

    ASSERT_TRUE(client.exchange(sv::WireKind::Profile, body, &warm, &err))
        << err;
    ASSERT_EQ(warm.status, sv::WireStatus::Ok) << warm.body;
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.body, cold.body);  // byte-for-byte replay

    // The cached response decodes to the same result the direct runner
    // produces.
    ser::TryReader r(warm.body.data(), warm.body.size());
    ProfileResult res;
    ASSERT_TRUE(decodeProfileResult(r, &res));
    ProfileResult direct = runProfile(smallProfileRequest());
    EXPECT_EQ(res.insts, direct.insts);
    EXPECT_EQ(res.loads, direct.loads);
    EXPECT_EQ(res.fac[0].loadFailures, direct.fac[0].loadFailures);

    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, TimingRequestsKeyOnTheConfigFingerprint)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("timing.sock");
    opts.jobs = 2;
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;

    TimingRequest req = smallTimingRequest();
    TimingResult res;
    bool cached = true;
    ASSERT_TRUE(client.timing(req, &res, &cached, &err)) << err;
    EXPECT_FALSE(cached);
    TimingResult direct = runTiming(req);
    EXPECT_EQ(res.stats.cycles, direct.stats.cycles);
    EXPECT_EQ(res.stats.insts, direct.stats.insts);

    // Same workload, different pipeline config: must not be served from
    // the first entry.
    TimingRequest other = req;
    other.pipe = baselineConfig(32);
    ASSERT_TRUE(client.timing(other, &res, &cached, &err)) << err;
    EXPECT_FALSE(cached);

    // The original again: now warm.
    ASSERT_TRUE(client.timing(req, &res, &cached, &err)) << err;
    EXPECT_TRUE(cached);
    EXPECT_EQ(res.stats.cycles, direct.stats.cycles);

    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, MalformedRequestsGetErrorsNotAborts)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("malformed.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;

    // Unknown request kind: per-request error, connection survives.
    sv::ResponseEnvelope resp;
    ASSERT_TRUE(client.exchange(static_cast<sv::WireKind>(9), "x",
                                &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("unknown request kind"), std::string::npos);
    ASSERT_TRUE(client.ping(&err)) << err;

    // Truncated profile body: per-request error, connection survives.
    std::string body = encodeProfileBody(smallProfileRequest());
    ASSERT_TRUE(client.exchange(sv::WireKind::Profile,
                                body.substr(0, body.size() / 2), &resp,
                                &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("malformed profile request"),
              std::string::npos);

    // Trailing junk after a valid body: rejected (canonical keys only).
    ASSERT_TRUE(client.exchange(sv::WireKind::Profile, body + "junk",
                                &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("trailing"), std::string::npos);

    // Unknown workload: clean error.
    ProfileRequest ghost = smallProfileRequest();
    ghost.workload = "no-such-workload";
    ASSERT_TRUE(client.exchange(sv::WireKind::Profile,
                                encodeProfileBody(ghost), &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("unknown workload"), std::string::npos);
    ASSERT_TRUE(client.ping(&err)) << err;

    // A frame whose payload is not a request envelope at all: protocol
    // error, and the daemon drops this connection.
    ASSERT_TRUE(sv::writeFrame(fd, "garbage"));
    std::string payload;
    ASSERT_EQ(sv::readFrame(fd, &payload, &err), sv::FrameRead::Frame);
    sv::ResponseEnvelope perr;
    ASSERT_TRUE(sv::decodeResponse(payload, &perr, &err)) << err;
    EXPECT_EQ(perr.status, sv::WireStatus::Error);
    EXPECT_NE(perr.body.find("protocol error"), std::string::npos);

    // A fresh connection still works: the daemon survived all of it.
    int fd2 = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd2, 0);
    sv::ServeClient client2(fd2);
    ASSERT_TRUE(client2.ping(&err)) << err;
    ASSERT_TRUE(client2.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, InvalidPipelineConfigsGetErrorsNotAborts)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("badpipe.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;
    sv::ResponseEnvelope resp;

    // An empty fetch buffer decodes cleanly but can never issue: run,
    // it would trip the deadlock watchdog and abort the daemon.
    TimingRequest empty_fetch = smallTimingRequest();
    empty_fetch.pipe.fetchBufferSize = 0;
    ASSERT_TRUE(client.exchange(sv::WireKind::Timing,
                                encodeTimingBody(empty_fetch), &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("fetchBufferSize"), std::string::npos)
        << resp.body;

    // A cache that is not a power of two would fail Cache's assertion.
    TimingRequest bad_cache = smallTimingRequest();
    bad_cache.pipe.dcache.sizeBytes = 1000;
    ASSERT_TRUE(client.exchange(sv::WireKind::Timing,
                                encodeTimingBody(bad_cache), &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("powers of two"), std::string::npos)
        << resp.body;

    // Machines whose L1 does not fit under the L2, and MSHR files
    // nobody could allocate: each would kill the daemon on construction.
    TimingRequest wide_l1 = smallTimingRequest();
    wide_l1.pipe = baselineConfig(128);
    wide_l1.pipe.hierarchy = modernHierarchy();
    TimingRequest big_l1 = smallTimingRequest();
    big_l1.pipe = baselineConfig(32);
    big_l1.pipe.dcache.sizeBytes = 512 * 1024;
    big_l1.pipe.hierarchy = modernHierarchy();
    TimingRequest huge_mshr = smallTimingRequest();
    huge_mshr.pipe.hierarchy = modernHierarchy();
    huge_mshr.pipe.hierarchy.l1Mshr.entries = 4000000000u;
    // A DRAM slower than the deadlock watchdog (it would panic the
    // worker mid-run), and an L2 whose tag array would exhaust memory.
    TimingRequest slow_dram = smallTimingRequest();
    slow_dram.pipe.hierarchy = modernHierarchy();
    slow_dram.pipe.hierarchy.dram.latency = 200000;
    TimingRequest huge_l2 = smallTimingRequest();
    huge_l2.pipe.hierarchy = modernHierarchy();
    huge_l2.pipe.hierarchy.l2.sizeBytes = 1u << 31;
    const std::pair<const TimingRequest *, const char *> machines[] = {
        {&wide_l1, "L2 block (64B) must be at least the L1 block (128B)"},
        {&big_l1, "must be at least as large as L1"},
        {&huge_mshr, "L1 MSHR entries must be at most 256"},
        {&slow_dram, "DRAM latency must be at most 4096 cycles"},
        {&huge_l2, "line limit"},
    };
    for (const auto &[req, msg] : machines) {
        ASSERT_TRUE(client.exchange(sv::WireKind::Timing,
                                    encodeTimingBody(*req), &resp, &err))
            << err;
        EXPECT_EQ(resp.status, sv::WireStatus::Error);
        EXPECT_NE(resp.body.find(msg), std::string::npos) << resp.body;
    }

    // The same connection keeps serving real work.
    TimingResult res;
    bool cached = true;
    ASSERT_TRUE(client.timing(smallTimingRequest(), &res, &cached, &err))
        << err;
    EXPECT_TRUE(res.stats == runTiming(smallTimingRequest()).stats);
    ASSERT_TRUE(client.ping(&err)) << err;
    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, WrappingSamplingGetsAnErrorAndTheConnectionServes)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("badsample.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;
    sv::ResponseEnvelope resp;

    // warmup + detail wraps around 2^64 to 1, inside the period.
    TimingRequest wrap = smallTimingRequest();
    wrap.sampling.period = 1000;
    wrap.sampling.detail = 2;
    wrap.sampling.warmup = UINT64_MAX;
    ASSERT_TRUE(client.exchange(sv::WireKind::Timing,
                                encodeTimingBody(wrap), &resp, &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("fit in the period"), std::string::npos)
        << resp.body;

    // The same connection keeps serving real work.
    TimingResult res;
    bool cached = true;
    ASSERT_TRUE(client.timing(smallTimingRequest(), &res, &cached, &err))
        << err;
    EXPECT_TRUE(res.stats == runTiming(smallTimingRequest()).stats);
    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, InvalidProfileConfigsGetErrorsNotAborts)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("badprofile.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;
    sv::ResponseEnvelope resp;

    // A FAC circuit with no block-offset field, and an LTB whose size
    // is not a power of two: both would trip a constructor assertion
    // inside the daemon.
    ProfileRequest bad_fac = smallProfileRequest();
    bad_fac.facConfigs = {{0, 14, true, true}};
    ProfileRequest bad_ltb = smallProfileRequest();
    bad_ltb.ltbConfigs = {{10, LtbPolicy::Stride}};
    const std::pair<ProfileRequest, const char *> cases[] = {
        {bad_fac, "1 <= B < S < 32"},
        {bad_ltb, "power of two"},
    };
    for (const auto &[req, why] : cases) {
        ASSERT_TRUE(client.exchange(sv::WireKind::Profile,
                                    encodeProfileBody(req), &resp, &err))
            << err;
        EXPECT_EQ(resp.status, sv::WireStatus::Error);
        EXPECT_NE(resp.body.find("invalid profile request: "),
                  std::string::npos)
            << resp.body;
        EXPECT_NE(resp.body.find(why), std::string::npos) << resp.body;
    }

    // The same connection keeps serving real work.
    ProfileResult res;
    bool cached = true;
    ASSERT_TRUE(client.profile(smallProfileRequest(), &res, &cached, &err))
        << err;
    ser::Writer got, want;
    encodeProfileResult(got, res);
    encodeProfileResult(want, runProfile(smallProfileRequest()));
    EXPECT_EQ(got.data(), want.data());
    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, IdleWorkerTakesAQueuedMiss)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("idle.sock");
    opts.jobs = 2;
    DaemonFixture daemon(opts);
    std::string err;

    // A: a timing miss that keeps one worker busy for about 1.7 s
    // (espresso at scale 80, 25M instructions, on a 4-core Xeon host).
    TimingRequest slow = smallTimingRequest();
    slow.build.scale = 80;
    slow.maxInsts = 25000000;
    int fd_a = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd_a, 0);
    sv::ServeClient a(fd_a);
    ASSERT_TRUE(sv::writeFrame(
        fd_a, sv::encodeRequest(sv::WireKind::Timing, 1,
                                encodeTimingBody(slow))));
    usleep(100 * 1000);

    // B: a profile miss of 1,000 instructions. The idle worker runs it
    // at once, so its reply comes while A is still running.
    ProfileRequest quick = smallProfileRequest();
    quick.maxInsts = 1000;
    int fd_b = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd_b, 0);
    sv::ServeClient b(fd_b);
    ProfileResult res;
    bool cached = true;
    ASSERT_TRUE(b.profile(quick, &res, &cached, &err)) << err;
    EXPECT_FALSE(cached);
    struct pollfd p = {fd_a, POLLIN, 0};
    EXPECT_EQ(::poll(&p, 1, 0), 0)
        << "the quick miss waited for the slow one";

    std::string payload;
    ASSERT_EQ(sv::readFrame(fd_a, &payload, &err), sv::FrameRead::Frame)
        << err;
    sv::ResponseEnvelope resp;
    ASSERT_TRUE(sv::decodeResponse(payload, &resp, &err)) << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Ok) << resp.body;
    EXPECT_EQ(resp.reqId, 1u);
    ASSERT_TRUE(b.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, ClosedConnectionsReleaseTheirDescriptors)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("fds.sock");
    DaemonFixture daemon(opts);
    std::string err;

    // The daemon runs in this process, so its sockets are ours to count.
    auto open_fds = [] {
        auto it = std::filesystem::directory_iterator("/proc/self/fd");
        return std::distance(it, std::filesystem::directory_iterator());
    };
    auto ping_and_close = [&] {
        int fd = connectWithRetry(opts.socketPath);
        ASSERT_GE(fd, 0);
        sv::ServeClient c(fd);
        ASSERT_TRUE(c.ping(&err)) << err;
    };
    ping_and_close();  // the daemon is listening
    const auto base = open_fds();
    for (int i = 0; i < 64; ++i)
        ping_and_close();
    auto now = open_fds();
    for (int i = 0; i < 100 && now > base + 2; ++i) {
        usleep(20 * 1000);
        now = open_fds();
    }
    EXPECT_LE(now, base + 2) << "closed connections kept their sockets";

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient c(fd);
    ASSERT_TRUE(c.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeDaemon, CachePersistsAcrossRestart)
{
    const std::string sock = tmpPath("restart.sock");
    const std::string cache_file = tmpPath("restart.facsimrc");
    std::remove(cache_file.c_str());

    sv::ServerOptions opts;
    opts.socketPath = sock;
    opts.cacheFile = cache_file;
    std::string body = encodeProfileBody(smallProfileRequest());
    std::string cold_body;

    {
        DaemonFixture daemon(opts);
        int fd = connectWithRetry(sock);
        ASSERT_GE(fd, 0);
        sv::ServeClient client(fd);
        std::string err;
        sv::ResponseEnvelope resp;
        ASSERT_TRUE(
            client.exchange(sv::WireKind::Profile, body, &resp, &err))
            << err;
        ASSERT_EQ(resp.status, sv::WireStatus::Ok) << resp.body;
        EXPECT_FALSE(resp.cached);
        cold_body = resp.body;
        ASSERT_TRUE(client.shutdown(&err)) << err;
        EXPECT_EQ(daemon.join(), 0);
    }

    // Second daemon, same cache file: the very first request is warm
    // and byte-identical to the previous process's cold response.
    {
        DaemonFixture daemon(opts);
        int fd = connectWithRetry(sock);
        ASSERT_GE(fd, 0);
        sv::ServeClient client(fd);
        std::string err;
        sv::ResponseEnvelope resp;
        ASSERT_TRUE(
            client.exchange(sv::WireKind::Profile, body, &resp, &err))
            << err;
        ASSERT_EQ(resp.status, sv::WireStatus::Ok) << resp.body;
        EXPECT_TRUE(resp.cached);
        EXPECT_EQ(resp.body, cold_body);
        ASSERT_TRUE(client.shutdown(&err)) << err;
        EXPECT_EQ(daemon.join(), 0);
    }
}

// ---------------------------------------------------------------------
// End-to-end daemon (--stdio subprocess)
// ---------------------------------------------------------------------

TEST(ServeDaemon, StdioSubprocessSpeaksTheProtocol)
{
    int to_child[2], from_child[2];
    ASSERT_EQ(pipe(to_child), 0);
    ASSERT_EQ(pipe(from_child), 0);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        execl(FACSIM_CLI_BIN, FACSIM_CLI_BIN, "serve", "--stdio",
              static_cast<char *>(nullptr));
        _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);

    {
        sv::ServeClient client(from_child[0], to_child[1]);
        std::string err;
        ASSERT_TRUE(client.ping(&err)) << err;

        ProfileRequest req = smallProfileRequest();
        ProfileResult res;
        bool cached = true;
        ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;
        EXPECT_FALSE(cached);
        EXPECT_GT(res.insts, 0u);

        ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;
        EXPECT_TRUE(cached);

        ASSERT_TRUE(client.shutdown(&err)) << err;
    }
    close(to_child[1]);
    close(from_child[0]);

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------

TEST(ServeLoadgen, DigestIsConcurrencyInvariant)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("loadgen.sock");
    opts.jobs = 2;
    DaemonFixture daemon(opts);
    {
        int fd = connectWithRetry(opts.socketPath);
        ASSERT_GE(fd, 0);
        sv::ServeClient probe(fd);
        std::string err;
        ASSERT_TRUE(probe.ping(&err)) << err;
    }

    sv::LoadgenOptions lg;
    lg.socketPath = opts.socketPath;
    lg.requests = 12;
    lg.repeatPct = 50;
    lg.seed = 7;
    lg.maxInsts = 8000;
    lg.workloadPool = 2;

    sv::LoadgenReport serial, parallel, rerun;
    std::string err;
    lg.concurrency = 1;
    ASSERT_TRUE(sv::runLoadgen(lg, &serial, &err)) << err;
    EXPECT_EQ(serial.sent, 12u);
    EXPECT_EQ(serial.errors, 0u);
    // Serial order guarantees every repeat hits the cache.
    EXPECT_EQ(serial.uncachedResponses, serial.uniqueRequests);
    EXPECT_GT(serial.cachedResponses, 0u);

    lg.concurrency = 4;
    ASSERT_TRUE(sv::runLoadgen(lg, &parallel, &err)) << err;
    EXPECT_EQ(parallel.errors, 0u);
    EXPECT_EQ(parallel.responseDigest, serial.responseDigest);

    // A later identical run is fully warm — and still the same digest,
    // because cache hits replay the cold bytes verbatim.
    lg.concurrency = 1;
    ASSERT_TRUE(sv::runLoadgen(lg, &rerun, &err)) << err;
    EXPECT_EQ(rerun.uncachedResponses, 0u);
    EXPECT_EQ(rerun.cachedResponses, rerun.ok);
    EXPECT_EQ(rerun.responseDigest, serial.responseDigest);

    {
        int fd = connectWithRetry(opts.socketPath);
        ASSERT_GE(fd, 0);
        sv::ServeClient fin(fd);
        std::string serr;
        ASSERT_TRUE(fin.shutdown(&serr)) << serr;
    }
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeLoadgen, ReportRendersJson)
{
    sv::LoadgenReport rep;
    rep.sent = 10;
    rep.ok = 10;
    rep.qps = 123.5;
    rep.responseDigest = 0xdeadbeefull;
    std::string js = rep.json();
    EXPECT_NE(js.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(js.find("\"qps\":"), std::string::npos);
    EXPECT_NE(js.find("00000000deadbeef"), std::string::npos);
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.back(), '}');
}

// ---------------------------------------------------------------------
// Live telemetry (WireKind::Stats, trace spans, periodic flush)
// ---------------------------------------------------------------------

TEST(ServeTelemetry, StatsSnapshotReflectsServedRequests)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("stats.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;

    ProfileRequest req = smallProfileRequest();
    ProfileResult res;
    bool cached = true;
    ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;
    ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;
    EXPECT_TRUE(cached);

    std::string json, prom;
    ASSERT_TRUE(client.stats(&json, &prom, &err)) << err;

    // The JSON side parses with the client-side flattener and shows the
    // work done so far.
    obs::StatsSnapshot snap;
    ASSERT_TRUE(obs::parseStatsJson(json, &snap, &err)) << err;
    EXPECT_GE(snap["serve.requests"], 3.0);
    EXPECT_EQ(snap["serve.profile_requests"], 2.0);
    EXPECT_EQ(snap["cache.hits"], 1.0);
    EXPECT_EQ(snap["cache.misses"], 1.0);
    EXPECT_GE(snap["serve.stats_requests"], 1.0);
    // Formulas evaluate at snapshot time.
    ASSERT_TRUE(snap.count("serve.latency_p50_us"));
    EXPECT_GT(snap["serve.latency_p50_us"], 0.0);

    // The Prometheus side carries typed, sanitized series.
    EXPECT_NE(prom.find("# TYPE facsim_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE facsim_cache_hits gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("facsim_serve_latency_log2_us_bucket"),
              std::string::npos);

    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeTelemetry, StatsWithBodyIsRejectedAndConnectionSurvives)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("statsbody.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;

    sv::ResponseEnvelope resp;
    ASSERT_TRUE(client.exchange(sv::WireKind::Stats, "payload", &resp,
                                &err))
        << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("body must be empty"), std::string::npos);

    // Same connection keeps working, and an empty-body Stats succeeds.
    ASSERT_TRUE(client.ping(&err)) << err;
    std::string json, prom;
    ASSERT_TRUE(client.stats(&json, &prom, &err)) << err;
    EXPECT_FALSE(json.empty());
    EXPECT_FALSE(prom.empty());

    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeTelemetry, OldVersionClientGetsCleanVersionError)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("oldver.sock");
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);

    // Hand-build a v1 Ping frame (the protocol before WireKind::Stats).
    ser::Writer w;
    w.u32(sv::wireMagic);
    w.u32(1);  // stale protocol version
    w.u8(0);   // Ping
    w.u8(0);
    w.u64(42);
    ASSERT_TRUE(sv::writeFrame(fd, w.data()));

    // The daemon answers promptly with a version error — no hang, no
    // dropped frame.
    std::string payload, err;
    ASSERT_EQ(sv::readFrame(fd, &payload, &err), sv::FrameRead::Frame)
        << err;
    sv::ResponseEnvelope resp;
    ASSERT_TRUE(sv::decodeResponse(payload, &resp, &err)) << err;
    EXPECT_EQ(resp.status, sv::WireStatus::Error);
    EXPECT_NE(resp.body.find("unsupported protocol version 1"),
              std::string::npos);
    ::close(fd);

    // The daemon itself is unharmed.
    int fd2 = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd2, 0);
    sv::ServeClient client(fd2);
    ASSERT_TRUE(client.ping(&err)) << err;
    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}

TEST(ServeTelemetry, TraceFileHasOneRequestSpanPerRequest)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("trace.sock");
    opts.tracePath = tmpPath("spans.json");
    opts.jobs = 2;
    std::remove(opts.tracePath.c_str());
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;

    ProfileRequest req = smallProfileRequest();
    ProfileResult res;
    bool cached = false;
    ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;  // cold
    ASSERT_TRUE(client.profile(req, &res, &cached, &err)) << err;  // warm
    ASSERT_TRUE(client.ping(&err)) << err;
    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);

    std::ifstream in(opts.tracePath, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string trace = ss.str();

    // Structurally a Chrome trace-event file...
    EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
    ASSERT_GE(trace.size(), 3u);
    EXPECT_EQ(trace.substr(trace.size() - 3), "]}\n");

    // ...with one closing "request" span per request frame (2 profile +
    // 1 ping + 1 shutdown), the per-request breadcrumbs and named
    // thread tracks.
    auto count = [&](const char *needle) {
        size_t n = 0;
        for (size_t at = trace.find(needle); at != std::string::npos;
             at = trace.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"name\":\"request\""), 4u);
    EXPECT_EQ(count("\"name\":\"received\""), 4u);
    EXPECT_EQ(count("\"name\":\"replied\""), 4u);
    EXPECT_EQ(count("\"name\":\"cache_miss\""), 1u);
    EXPECT_EQ(count("\"name\":\"cache_hit\""), 1u);
    EXPECT_EQ(count("\"name\":\"enqueued\""), 1u);
    EXPECT_EQ(count("\"name\":\"scheduled\""), 1u);
    EXPECT_EQ(count("\"name\":\"run\""), 1u);
    EXPECT_GE(count("\"name\":\"thread_name\""), 2u);  // conn + sched
    EXPECT_NE(trace.find("\"conn-"), std::string::npos);
}

TEST(ServeTelemetry, StatsIntervalFlushesWhileServing)
{
    sv::ServerOptions opts;
    opts.socketPath = tmpPath("flush.sock");
    opts.statsOut = tmpPath("flush-stats.json");
    opts.statsInterval = 1;
    std::remove(opts.statsOut.c_str());
    DaemonFixture daemon(opts);

    int fd = connectWithRetry(opts.socketPath);
    ASSERT_GE(fd, 0);
    sv::ServeClient client(fd);
    std::string err;
    ASSERT_TRUE(client.ping(&err)) << err;

    // The snapshot must appear while the daemon is still serving (the
    // interval is 1 s; allow generous slack for loaded CI hosts).
    bool appeared = false;
    for (int i = 0; i < 300 && !appeared; ++i) {
        std::ifstream in(opts.statsOut);
        appeared = in.is_open();
        if (!appeared)
            usleep(20 * 1000);
    }
    ASSERT_TRUE(appeared) << "no periodic flush within 6 s";

    // Still serving — the flush did not require a drain.
    ASSERT_TRUE(client.ping(&err)) << err;

    std::ifstream in(opts.statsOut);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"serve.requests\""), std::string::npos);
    // No torn temp file left behind after the rename.
    std::ifstream tmp(opts.statsOut + ".tmp");
    EXPECT_FALSE(tmp.is_open());

    ASSERT_TRUE(client.shutdown(&err)) << err;
    EXPECT_EQ(daemon.join(), 0);
}
