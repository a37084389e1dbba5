/**
 * @file
 * SMARTS-style systematic sampling for the timing pipeline.
 *
 * A sampled run alternates *fast-forward* intervals — the functional
 * Emulator executes alone while the large structures (I-cache, BTB,
 * D-cache tags, L2, TLB) are kept warm through their counter-free warm()
 * interfaces — with short *detailed windows* measured by the full
 * cycle-level Pipeline. Each period of `period` instructions contributes
 * one window: `warmup` instructions of unmeasured detailed simulation to
 * re-establish the small in-flight state (fetch buffer, scoreboards,
 * store buffer), then `detail` measured instructions, then an explicit
 * drain so no timing state leaks into the next gap.
 *
 * Per-window CPI samples feed a CLT estimate: the reported mean carries a
 * 95% confidence half-width that shrinks as 1/sqrt(n) with the window
 * count, which is what tests/test_sampling.cc verifies statistically.
 */

#ifndef FACSIM_SIM_SAMPLING_HH
#define FACSIM_SIM_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"

namespace facsim
{

/** Systematic-sampling parameters (instruction counts). */
struct SamplingConfig
{
    /** Sampling period U; 0 disables sampling entirely. */
    uint64_t period = 0;
    /** Measured (detailed) instructions per period. */
    uint64_t detail = 1000;
    /** Unmeasured detailed warmup instructions before each window. */
    uint64_t warmup = 2000;

    bool enabled() const { return period != 0; }

    /** Wire order (request codec, live-point library header). */
    template <class V>
    static void
    fields(V &&v)
    {
        using S = SamplingConfig;
        v(&S::period, &S::detail, &S::warmup);
    }

    /**
     * Why the parameters are incoherent, or "" when sampling is off or
     * they are coherent: detail >= 1 and warmup + detail <= period
     * (tested without overflow).
     */
    std::string check() const;
};

/** A sample-mean estimate with its 95% confidence interval. */
struct MetricEstimate
{
    double mean = 0.0;
    /** Half-width of the 95% CI (0 when n < 2). */
    double halfWidth = 0.0;
    /** Number of samples behind the estimate. */
    uint64_t n = 0;
    /**
     * True when no CI could be computed: fewer than 2 samples leave the
     * Student-t variance with 0 degrees of freedom (and an all-zero
     * denominator leaves the ratio undefined). The mean is still the
     * best point estimate, but halfWidth = 0 must not be read as "the
     * estimate is exact" — consumers report the CI as unavailable.
     */
    bool insufficient = true;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using M = MetricEstimate;
        v(&M::mean, &M::halfWidth, &M::n, &M::insufficient);
    }

    /** True when @p value lies inside the confidence interval. */
    bool
    covers(double value) const
    {
        return value >= mean - halfWidth && value <= mean + halfWidth;
    }
    /** Relative CI half-width (0 when the mean is 0). */
    double
    relHalfWidth() const
    {
        return mean != 0.0 ? halfWidth / mean : 0.0;
    }
};

/**
 * Mean and 95% CI of @p samples: Student-t critical values for n <= 30,
 * the normal z = 1.96 beyond (CLT).
 */
MetricEstimate estimateMean(const std::vector<double> &samples);

/**
 * Estimate for the ratio sum(num)/sum(den) of paired per-window samples,
 * with the CI propagated from the per-window ratio spread.
 */
MetricEstimate ratioEstimate(const std::vector<double> &num,
                             const std::vector<double> &den);

/** Outputs of one sampled run. */
struct SampleEstimate
{
    bool enabled = false;
    /** Measurement windows completed. */
    uint64_t windows = 0;

    /** Instructions/cycles inside measured windows only. */
    uint64_t measuredInsts = 0;
    uint64_t measuredCycles = 0;
    /** Unmeasured detailed instructions (warmup + drain tails). */
    uint64_t warmupInsts = 0;
    uint64_t drainInsts = 0;
    /** Instructions executed functionally between windows. */
    uint64_t fastForwardInsts = 0;
    /** Every instruction the program retired, measured or not. */
    uint64_t totalInsts = 0;

    /** Per-window cycles-per-instruction estimate (the primary metric). */
    MetricEstimate cpi;
    /** Per-window instructions-per-cycle estimate. */
    MetricEstimate ipc;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using S = SampleEstimate;
        v(&S::enabled, &S::windows, &S::measuredInsts, &S::measuredCycles,
          &S::warmupInsts, &S::drainInsts, &S::fastForwardInsts,
          &S::totalInsts, &S::cpi, &S::ipc);
    }

    /** Whole-program cycle estimate: mean CPI scaled to every inst. */
    double estCycles() const { return cpi.mean * totalInsts; }
    /** Fraction of retired instructions simulated in detail. */
    double
    detailFraction() const
    {
        uint64_t det = measuredInsts + warmupInsts + drainInsts;
        return totalInsts ? static_cast<double>(det) / totalInsts : 0.0;
    }
};

/**
 * Run @p pipe to completion (or @p max_insts total retired instructions,
 * fast-forwarded ones included) under systematic sampling @p cfg. The
 * pipeline must be freshly constructed (cycle 0). The pipeline's own
 * stats() afterwards cover only the detailed (warmup+measured+drain)
 * instructions; the estimate extrapolates to the whole program.
 */
SampleEstimate runSampled(Pipeline &pipe, const SamplingConfig &cfg,
                          uint64_t max_insts = 0);

} // namespace facsim

#endif // FACSIM_SIM_SAMPLING_HH
