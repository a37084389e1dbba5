/**
 * @file
 * Parallel experiment runner tests: the determinism guarantee (a batch
 * run on 4 threads is bitwise-identical to the same batch on 1), the
 * submission-order exception propagation, and the host-time accounting
 * the bench harnesses report.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/config.hh"
#include "sim/runner.hh"
#include "tests/field_diff.hh"

namespace facsim
{
namespace
{

constexpr uint64_t kMaxInsts = 150'000;

std::vector<TimingRequest>
timingSweep()
{
    std::vector<TimingRequest> reqs;
    for (const char *name : {"grep", "compress", "xlisp"}) {
        for (bool fac_on : {false, true}) {
            TimingRequest req;
            req.workload = name;
            req.build.policy = fac_on ? CodeGenPolicy::withSupport()
                                      : CodeGenPolicy::baseline();
            req.pipe = fac_on ? facPipelineConfig() : baselineConfig();
            req.maxInsts = kMaxInsts;
            reqs.push_back(req);
        }
    }
    return reqs;
}

std::vector<ProfileRequest>
profileSweep()
{
    std::vector<ProfileRequest> reqs;
    for (const char *name : {"grep", "espresso"}) {
        ProfileRequest req;
        req.workload = name;
        req.build.policy = CodeGenPolicy::withSupport();
        req.facConfigs = {FacConfig{.blockBits = 5, .setBits = 14},
                          FacConfig{.blockBits = 4, .setBits = 14}};
        req.ltbConfigs = {{1024, LtbPolicy::LastAddress},
                          {1024, LtbPolicy::Stride}};
        req.withTlb = true;
        req.maxInsts = kMaxInsts;
        reqs.push_back(req);
    }
    return reqs;
}

void
expectSameProfile(const ProfileResult &a, const ProfileResult &b)
{
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.fracGlobal, b.fracGlobal);
    EXPECT_EQ(a.fracStack, b.fracStack);
    EXPECT_EQ(a.fracGeneral, b.fracGeneral);
    for (size_t c = 0; c < a.offsets.size(); ++c) {
        EXPECT_EQ(a.offsets[c].total, b.offsets[c].total);
        EXPECT_EQ(a.offsets[c].buckets, b.offsets[c].buckets);
    }
    ASSERT_EQ(a.fac.size(), b.fac.size());
    for (size_t f = 0; f < a.fac.size(); ++f)
        EXPECT_EQ(test::fieldDiff(a.fac[f], b.fac[f]), "");
    ASSERT_EQ(a.ltb.size(), b.ltb.size());
    for (size_t l = 0; l < a.ltb.size(); ++l) {
        EXPECT_EQ(a.ltb[l].attempts, b.ltb[l].attempts);
        EXPECT_EQ(a.ltb[l].correct, b.ltb[l].correct);
    }
    EXPECT_EQ(a.tlbMissRatio, b.tlbMissRatio);
    EXPECT_EQ(a.memUsageBytes, b.memUsageBytes);
}

TEST(Runner, TimingDeterminism)
{
    std::vector<TimingRequest> reqs = timingSweep();
    RunnerReport serial_rep, parallel_rep;
    std::vector<TimingResult> serial =
        Runner(1).runTimings(reqs, &serial_rep);
    std::vector<TimingResult> parallel =
        Runner(4).runTimings(reqs, &parallel_rep);

    ASSERT_EQ(serial.size(), reqs.size());
    ASSERT_EQ(parallel.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].workload + (i % 2 ? " fac" : " base"));
        EXPECT_TRUE(serial[i].stats == parallel[i].stats)
            << test::fieldDiff(serial[i].stats, parallel[i].stats);
        EXPECT_EQ(test::fieldDiff(serial[i].hier, parallel[i].hier), "");
        EXPECT_EQ(serial[i].memUsageBytes, parallel[i].memUsageBytes);
    }
    EXPECT_EQ(serial_rep.jobs, 1u);
    EXPECT_EQ(parallel_rep.jobs, 4u);
    EXPECT_EQ(serial_rep.simInsts, parallel_rep.simInsts);
}

TEST(Runner, ProfileDeterminism)
{
    std::vector<ProfileRequest> reqs = profileSweep();
    std::vector<ProfileResult> serial = Runner(1).runProfiles(reqs);
    std::vector<ProfileResult> parallel = Runner(4).runProfiles(reqs);

    ASSERT_EQ(serial.size(), reqs.size());
    ASSERT_EQ(parallel.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].workload);
        expectSameProfile(serial[i], parallel[i]);
    }
}

TEST(Runner, ExceptionPropagatesEarliestInSubmissionOrder)
{
    Runner r(4);
    try {
        r.forEachIndex(8, [](size_t i) -> uint64_t {
            if (i == 3)
                throw std::runtime_error("job 3");
            if (i == 5)
                throw std::runtime_error("job 5");
            return i;
        });
        FAIL() << "expected forEachIndex to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3");
    }
}

TEST(Runner, ExceptionDoesNotLoseOtherJobs)
{
    // The pool must finish every job even when one throws.
    Runner r(2);
    std::vector<uint64_t> done(6, 0);
    EXPECT_THROW(r.forEachIndex(done.size(),
                                [&](size_t i) -> uint64_t {
                                    if (i == 0)
                                        throw std::runtime_error("boom");
                                    done[i] = i + 1;
                                    return 0;
                                }),
                 std::runtime_error);
    for (size_t i = 1; i < done.size(); ++i)
        EXPECT_EQ(done[i], i + 1);
}

TEST(Runner, ReportAccountsForAllJobs)
{
    Runner r(3);
    RunnerReport rep = r.forEachIndex(
        5, [](size_t i) -> uint64_t { return 10 * (i + 1); });
    EXPECT_EQ(rep.numJobs, 5u);
    EXPECT_EQ(rep.jobs, 3u);
    EXPECT_EQ(rep.simInsts, 10u + 20 + 30 + 40 + 50);
    ASSERT_EQ(rep.perJob.size(), 5u);
    for (size_t i = 0; i < rep.perJob.size(); ++i)
        EXPECT_EQ(rep.perJob[i].simInsts, 10 * (i + 1));
    EXPECT_GE(rep.wallSeconds, 0.0);
    EXPECT_GE(rep.simInstsPerHostSecond(), 0.0);

    RunnerReport other = rep;
    other.jobs = 4;
    rep.merge(other);
    EXPECT_EQ(rep.jobs, 4u);
    EXPECT_EQ(rep.numJobs, 10u);
    EXPECT_EQ(rep.simInsts, 2u * 150);
    EXPECT_EQ(rep.perJob.size(), 10u);
}

TEST(Runner, ResolveJobsZeroMeansHardware)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
    // More workers than jobs degrades gracefully to one per job.
    RunnerReport rep =
        Runner(16).forEachIndex(2, [](size_t) -> uint64_t { return 1; });
    EXPECT_EQ(rep.jobs, 2u);
}

} // anonymous namespace
} // namespace facsim
