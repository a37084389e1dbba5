/**
 * @file
 * Statistical-equivalence tests for the sampled-simulation subsystem
 * (sim/sampling.hh): estimator unit tests, CI-containment of the
 * sampled IPC/speedup against full-detail runs across every workload,
 * and the 1/sqrt(n) confidence-interval shrink.
 *
 * Everything here is deterministic — workload data, the instruction
 * stream and the window placement are all seeded — so the statistical
 * assertions either always hold or always fail; there is no flake
 * budget.
 */

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"

using namespace facsim;

namespace
{

// Reduced config shared by the equivalence tests: enough instructions
// for ~20 windows per program while keeping the suite fast.
constexpr uint64_t kMaxInsts = 120000;

SamplingConfig
testSampling()
{
    SamplingConfig s;
    s.period = 6000;
    s.detail = 600;
    s.warmup = 600;
    return s;
}

TimingRequest
timingRequest(const char *wl, const PipelineConfig &pipe,
              const SamplingConfig &s)
{
    TimingRequest req;
    req.workload = wl;
    req.build.policy = CodeGenPolicy::withSupport();
    req.pipe = pipe;
    req.maxInsts = kMaxInsts;
    req.sampling = s;
    return req;
}

} // namespace

TEST(SamplingConfigTest, ValidateRejectsIncoherentParameters)
{
    SamplingConfig ok;
    ok.period = 1000;
    ok.detail = 100;
    ok.warmup = 100;
    EXPECT_EQ(ok.check(), "");
    EXPECT_EQ((SamplingConfig{1000, 600, 400}.check()), "");  // exact fit

    SamplingConfig off;
    off.period = 0;
    off.detail = 0;
    EXPECT_EQ(off.check(), "");  // disabled: anything goes

    SamplingConfig zero_detail{1000, 0, 100};
    EXPECT_NE(zero_detail.check().find("at least 1"), std::string::npos);

    SamplingConfig overfull{1000, 600, 600};
    EXPECT_NE(overfull.check().find("fit in the period"), std::string::npos);
    SamplingConfig long_detail{100, 200, 0};
    EXPECT_NE(long_detail.check().find("fit in the period"),
              std::string::npos);

    // warmup + detail wraps around 2^64 to 1; the check must not.
    SamplingConfig wrap{1000, 2, UINT64_MAX};
    EXPECT_NE(wrap.check().find("fit in the period"), std::string::npos);
}

TEST(EstimatorTest, MeanAndStudentTInterval)
{
    MetricEstimate e = estimateMean({2.0, 4.0, 6.0});
    EXPECT_DOUBLE_EQ(e.mean, 4.0);
    EXPECT_EQ(e.n, 3u);
    // s = 2, sem = 2/sqrt(3), t(2 dof) = 4.303.
    EXPECT_NEAR(e.halfWidth, 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
    EXPECT_TRUE(e.covers(4.0));
    EXPECT_TRUE(e.covers(4.0 + e.halfWidth));
    EXPECT_FALSE(e.covers(4.0 + 1.01 * e.halfWidth));
}

TEST(EstimatorTest, DegenerateInputs)
{
    EXPECT_EQ(estimateMean({}).n, 0u);
    EXPECT_TRUE(estimateMean({}).insufficient);
    MetricEstimate one = estimateMean({7.0});
    EXPECT_DOUBLE_EQ(one.mean, 7.0);
    EXPECT_DOUBLE_EQ(one.halfWidth, 0.0);
    EXPECT_TRUE(one.insufficient);

    MetricEstimate constant = estimateMean({3.0, 3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(constant.mean, 3.0);
    EXPECT_DOUBLE_EQ(constant.halfWidth, 0.0);
    EXPECT_FALSE(constant.insufficient);

    // The ratio estimator flags the same degrees-of-freedom hole: one
    // window has a point estimate but no interval, and an all-zero
    // denominator has neither.
    MetricEstimate ratio1 = ratioEstimate({120.0}, {100.0});
    EXPECT_DOUBLE_EQ(ratio1.mean, 1.2);
    EXPECT_DOUBLE_EQ(ratio1.halfWidth, 0.0);
    EXPECT_TRUE(ratio1.insufficient);
    EXPECT_TRUE(ratioEstimate({1.0, 2.0}, {0.0, 0.0}).insufficient);
}

TEST(EstimatorTest, LargeNUsesNormalApproximation)
{
    std::vector<double> s;
    for (int i = 0; i < 100; ++i)
        s.push_back(i % 2 ? 1.0 : -1.0);
    MetricEstimate e = estimateMean(s);
    EXPECT_DOUBLE_EQ(e.mean, 0.0);
    double sem = std::sqrt((100.0 / 99.0) / 100.0);
    EXPECT_NEAR(e.halfWidth, 1.96 * sem, 1e-9);
}

TEST(EstimatorTest, RatioEstimateMatchesAggregateRatio)
{
    // Windows with varying sizes: the estimate must be the aggregate
    // ratio, not the mean of per-window ratios.
    std::vector<double> cycles{100.0, 210.0, 330.0};
    std::vector<double> insts{100.0, 200.0, 300.0};
    MetricEstimate e = ratioEstimate(cycles, insts);
    EXPECT_DOUBLE_EQ(e.mean, 640.0 / 600.0);
    EXPECT_GT(e.halfWidth, 0.0);

    // Exact-ratio windows: zero residual, zero half-width.
    MetricEstimate exact =
        ratioEstimate({2.0, 4.0, 8.0}, {1.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(exact.mean, 2.0);
    EXPECT_DOUBLE_EQ(exact.halfWidth, 0.0);
}

TEST(SampledRunTest, AccountsForEveryInstruction)
{
    TimingRequest req =
        timingRequest("espresso", facPipelineConfig(32), testSampling());
    TimingResult res = runTiming(req);

    ASSERT_TRUE(res.sample.enabled);
    EXPECT_GT(res.sample.windows, 10u);
    // measured + warmup + drain = detailed instructions (the pipeline's
    // stats), and detailed + fast-forwarded = every retired instruction.
    EXPECT_EQ(res.sample.measuredInsts + res.sample.warmupInsts +
                  res.sample.drainInsts,
              res.stats.insts);
    EXPECT_EQ(res.stats.insts + res.sample.fastForwardInsts,
              res.sample.totalInsts);
    EXPECT_LE(res.sample.totalInsts, kMaxInsts);
    // The detail fraction should be near (warmup+detail)/period.
    EXPECT_LT(res.sample.detailFraction(), 0.35);
}

/**
 * Regression: a period/limit combo that completes exactly one measured
 * window used to feed n=1 into the Student-t machinery (0 degrees of
 * freedom). The run must report the point estimate with an explicit
 * insufficient-windows CI, not a fabricated zero-width interval.
 */
TEST(SampledRunTest, SingleWindowReportsInsufficientCi)
{
    SamplingConfig s;
    s.period = 50000;
    s.detail = 600;
    s.warmup = 600;
    TimingRequest req = timingRequest("espresso", facPipelineConfig(32), s);
    req.maxInsts = s.period;  // exactly one period => one window
    TimingResult res = runTiming(req);

    ASSERT_TRUE(res.sample.enabled);
    ASSERT_EQ(res.sample.windows, 1u);
    EXPECT_EQ(res.sample.cpi.n, 1u);
    EXPECT_TRUE(res.sample.cpi.insufficient);
    EXPECT_TRUE(res.sample.ipc.insufficient);
    EXPECT_GT(res.sample.cpi.mean, 0.0);
    EXPECT_DOUBLE_EQ(res.sample.cpi.halfWidth, 0.0);
    // A two-window run over the same slice does produce an interval.
    SamplingConfig two = s;
    two.period = 25000;
    TimingRequest req2 =
        timingRequest("espresso", facPipelineConfig(32), two);
    req2.maxInsts = 2 * two.period;
    TimingResult res2 = runTiming(req2);
    ASSERT_EQ(res2.sample.windows, 2u);
    EXPECT_FALSE(res2.sample.cpi.insufficient);
}

TEST(SampledRunTest, RequiresFreshPipeline)
{
    Machine m(workload("espresso"), BuildOptions{});
    Pipeline pipe(baselineConfig(32), m.emulator());
    pipe.run(1000);
    SamplingConfig s = testSampling();
    EXPECT_DEATH(runSampled(pipe, s, 0), "freshly constructed");
}

/**
 * The headline statistical-equivalence claim, on every workload: the
 * sampled IPC estimate's 95% CI covers the full-detail IPC, and the
 * sampled speedup matches the full-detail speedup to within the CIs'
 * combined relative width.
 */
TEST(SampledRunTest, AllWorkloadsIpcAndSpeedupWithinCi)
{
    std::vector<const WorkloadInfo *> wls;
    for (const WorkloadInfo &w : allWorkloads())
        wls.push_back(&w);
    ASSERT_EQ(wls.size(), 19u);

    // Per workload: full FAC, full baseline, sampled FAC, sampled
    // baseline.
    std::vector<TimingRequest> reqs;
    for (const WorkloadInfo *w : wls) {
        reqs.push_back(timingRequest(w->name, facPipelineConfig(32),
                                     SamplingConfig{}));
        reqs.push_back(timingRequest(w->name, baselineConfig(32),
                                     SamplingConfig{}));
        reqs.push_back(timingRequest(w->name, facPipelineConfig(32),
                                     testSampling()));
        reqs.push_back(timingRequest(w->name, baselineConfig(32),
                                     testSampling()));
    }
    std::vector<TimingResult> res = Runner(0).runTimings(reqs);

    for (size_t i = 0; i < wls.size(); ++i) {
        SCOPED_TRACE(wls[i]->name);
        const TimingResult &fullFac = res[4 * i];
        const TimingResult &fullBase = res[4 * i + 1];
        const TimingResult &sampFac = res[4 * i + 2];
        const TimingResult &sampBase = res[4 * i + 3];

        ASSERT_FALSE(fullFac.sample.enabled);
        ASSERT_TRUE(sampFac.sample.enabled);
        EXPECT_GE(sampFac.sample.windows, 15u);

        // IPC containment: the reported interval covers the truth.
        double trueIpc = fullFac.stats.ipc();
        EXPECT_TRUE(sampFac.sample.ipc.covers(trueIpc))
            << "sampled IPC " << sampFac.sample.ipc.mean << " +- "
            << sampFac.sample.ipc.halfWidth << " vs full " << trueIpc;

        // Same program slice was covered. A detailed run only checks
        // the instruction budget at cycle boundaries, so it can retire
        // up to issue-width extra instructions; fast-forward stops
        // exactly on the budget.
        EXPECT_LE(sampFac.sample.totalInsts, fullFac.stats.insts);
        EXPECT_GE(sampFac.sample.totalInsts + 4, fullFac.stats.insts);

        // Speedup: the ratio of estimates matches the true ratio to
        // within the two intervals' combined relative width.
        double trueSpd = static_cast<double>(fullBase.stats.cycles) /
            fullFac.stats.cycles;
        double estSpd =
            sampBase.sample.estCycles() / sampFac.sample.estCycles();
        double tol = trueSpd * (sampFac.sample.cpi.relHalfWidth() +
                                sampBase.sample.cpi.relHalfWidth());
        EXPECT_NEAR(estSpd, trueSpd, tol)
            << "speedup " << estSpd << " vs " << trueSpd;
        EXPECT_NEAR(estSpd, trueSpd, 0.02);
    }
}

/** Quadrupling the window count shrinks the CI roughly 1/sqrt(n). */
TEST(SampledRunTest, CiHalfWidthShrinksWithWindowCount)
{
    SamplingConfig coarse = testSampling();   // ~20 windows
    SamplingConfig fine = coarse;
    fine.period = coarse.period / 4;          // ~80 windows

    TimingResult rc =
        runTiming(timingRequest("compress", facPipelineConfig(32), coarse));
    TimingResult rf =
        runTiming(timingRequest("compress", facPipelineConfig(32), fine));

    ASSERT_GE(rc.sample.windows, 15u);
    ASSERT_GE(rf.sample.windows, 4 * rc.sample.windows - 8);
    ASSERT_GT(rc.sample.cpi.halfWidth, 0.0);
    ASSERT_GT(rf.sample.cpi.halfWidth, 0.0);

    // Expected shrink is 2x; window-to-window variance differences and
    // the t-vs-z critical value leave a generous band around it.
    double shrink = rc.sample.cpi.halfWidth / rf.sample.cpi.halfWidth;
    EXPECT_GT(shrink, 1.3) << "coarse hw " << rc.sample.cpi.halfWidth
                           << " fine hw " << rf.sample.cpi.halfWidth;
    EXPECT_LT(shrink, 3.2);
}
