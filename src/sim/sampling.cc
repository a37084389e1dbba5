#include "sim/sampling.hh"

#include <cmath>

#include "obs/prof.hh"
#include "util/logging.hh"

namespace facsim
{

std::string
SamplingConfig::check() const
{
    if (!enabled())
        return "";
    if (detail < 1)
        return "sampling: detail window must be at least 1 instruction";
    if (warmup > period || detail > period - warmup)
        return strprintf("sampling: warmup (%llu) + detail (%llu) must fit "
                         "in the period (%llu)",
                         static_cast<unsigned long long>(warmup),
                         static_cast<unsigned long long>(detail),
                         static_cast<unsigned long long>(period));
    return "";
}

namespace
{

/**
 * Two-sided 95% Student-t critical values by degrees of freedom
 * (1..29); beyond that the normal approximation is within half a
 * percent.
 */
double
tCrit95(uint64_t dof)
{
    static const double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048,  2.045,
    };
    if (dof == 0)
        return 0.0;
    if (dof <= sizeof(table) / sizeof(table[0]))
        return table[dof - 1];
    return 1.96;
}

} // namespace

MetricEstimate
estimateMean(const std::vector<double> &samples)
{
    MetricEstimate est;
    est.n = samples.size();
    if (samples.empty())
        return est;

    double sum = 0.0;
    for (double s : samples)
        sum += s;
    est.mean = sum / samples.size();

    if (samples.size() < 2)
        return est;

    double ssq = 0.0;
    for (double s : samples) {
        double d = s - est.mean;
        ssq += d * d;
    }
    double var = ssq / (samples.size() - 1);
    double sem = std::sqrt(var / samples.size());
    est.halfWidth = tCrit95(samples.size() - 1) * sem;
    est.insufficient = false;
    return est;
}

MetricEstimate
ratioEstimate(const std::vector<double> &num, const std::vector<double> &den)
{
    FACSIM_ASSERT(num.size() == den.size(),
                  "ratioEstimate: %zu numerators vs %zu denominators",
                  num.size(), den.size());
    MetricEstimate est;
    est.n = num.size();
    if (num.empty())
        return est;

    double nsum = 0.0, dsum = 0.0;
    for (size_t i = 0; i < num.size(); ++i) {
        nsum += num[i];
        dsum += den[i];
    }
    if (dsum == 0.0)
        return est;
    est.mean = nsum / dsum;

    if (num.size() < 2)
        return est;

    // Ratio-estimator variance: the spread of the per-window residuals
    // num_i - R * den_i, scaled by the mean denominator.
    double dbar = dsum / den.size();
    double ssq = 0.0;
    for (size_t i = 0; i < num.size(); ++i) {
        double resid = num[i] - est.mean * den[i];
        ssq += resid * resid;
    }
    double var = ssq / (num.size() - 1);
    double sem = std::sqrt(var / num.size()) / dbar;
    est.halfWidth = tCrit95(num.size() - 1) * sem;
    est.insufficient = false;
    return est;
}

SampleEstimate
runSampled(Pipeline &pipe, const SamplingConfig &cfg, uint64_t max_insts)
{
    FACSIM_ASSERT(cfg.enabled(), "runSampled called with sampling disabled");
    const std::string bad = cfg.check();
    FACSIM_ASSERT(bad.empty(), "%s", bad.c_str());
    FACSIM_ASSERT(pipe.currentCycle() == 0 && pipe.stats().insts == 0,
                  "runSampled requires a freshly constructed pipeline");

    SampleEstimate est;
    est.enabled = true;

    std::vector<double> winCycles;
    std::vector<double> winInsts;

    // Total retired instructions = detailed (stats().insts) +
    // fast-forwarded.
    auto total = [&]() {
        return pipe.stats().insts + pipe.fastForwardedInsts();
    };

    while (!pipe.done() && (max_insts == 0 || total() < max_insts)) {
        const uint64_t periodStart = total();

        // Detailed warmup: re-establish the in-flight state, unmeasured.
        // (The run()s below are measured in *detailed* instructions, so
        // targets are expressed against stats().insts.)
        if (cfg.warmup) {
            // Detailed warmup counts toward DetailedWindow host time:
            // it runs the full timing model; only *measurement* is off.
            FACSIM_PROF_SCOPE(DetailedWindow);
            uint64_t i0 = pipe.stats().insts;
            pipe.run(i0 + cfg.warmup);
            est.warmupInsts += pipe.stats().insts - i0;
        }
        if (pipe.done())
            break;

        // Measured window.
        uint64_t i0 = pipe.stats().insts;
        uint64_t c0 = pipe.currentCycle();
        uint64_t di, dc;
        {
            FACSIM_PROF_SCOPE(DetailedWindow);
            pipe.run(i0 + cfg.detail);
            di = pipe.stats().insts - i0;
            dc = pipe.currentCycle() - c0;
        }
        if (di) {
            ++est.windows;
            est.measuredInsts += di;
            est.measuredCycles += dc;
            winCycles.push_back(static_cast<double>(dc));
            winInsts.push_back(static_cast<double>(di));
        }

        // Drain in-flight work (counts as detailed, unmeasured insts).
        {
            FACSIM_PROF_SCOPE(Drain);
            uint64_t preDrain = pipe.stats().insts;
            pipe.drain();
            est.drainInsts += pipe.stats().insts - preDrain;
        }
        if (pipe.done())
            break;

        // Fast-forward the rest of the period with functional warming.
        uint64_t consumed = total() - periodStart;
        if (consumed < cfg.period) {
            FACSIM_PROF_SCOPE(Warmup);
            uint64_t want = cfg.period - consumed;
            if (max_insts && total() + want > max_insts)
                want = max_insts - total();
            est.fastForwardInsts += pipe.fastForward(want);
        }
    }

    est.totalInsts = total();
    est.cpi = ratioEstimate(winCycles, winInsts);
    est.ipc = ratioEstimate(winInsts, winCycles);
    return est;
}

} // namespace facsim
