/**
 * @file
 * The three measured phases of a facbench run and the layer replay.
 *
 * Every run executes all three phases, so every run reports every
 * end-to-end metric; the workload names the phase that gets the bulk
 * of the time budget (see perfbench/README.md).
 */

#ifndef FACBENCH_PHASES_HH
#define FACBENCH_PHASES_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/experiment.hh"
#include "sim/lvpt.hh"

namespace facbench
{

/** One measured activity: set up, repeat, then report. */
class Phase
{
  public:
    virtual ~Phase() = default;

    virtual const char *name() const = 0;

    /** One timed set-up round; returns its seconds. Called repeatedly. */
    virtual double setup() = 0;

    /**
     * One measured repetition; returns the wall seconds of its headline
     * measurement (used for the traced-vs-untraced overhead).
     */
    virtual double rep() = 0;

    /** Number of repetitions recorded so far. */
    virtual size_t reps() const = 0;

    /** Forget the recorded repetitions (after the warm-up one). */
    virtual void clearSamples() = 0;

    /** Add the phase's metrics and output checks to @p r. */
    virtual void finish(Report &r) = 0;

    /** Peak resident set of a child process the phase ran, MB (0 = none). */
    virtual double childPeakRssMb() const { return 0.0; }
};

/** One captured serve exchange (for the codec and cache replays). */
struct Exchange
{
    bool timing = false;
    std::string request;   ///< encoded request body
    std::string response;  ///< encoded result body
};

/** Totals of the detailed simulation the Figure 6 sweep performed. */
struct DetailTotals
{
    uint64_t jobs = 0;
    uint64_t insts = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t facPredictions = 0;
    /** Median Machine build of one job, seconds. */
    double buildSeconds = 0.0;
};

std::unique_ptr<Phase> makeFig6Phase(const Options &o);
std::unique_ptr<Phase> makeFarmPhase(const Options &o);
std::unique_ptr<Phase> makeServePhase(const Options &o);

/** Detailed-simulation totals of every traced Figure 6 repetition. */
DetailTotals fig6TracedTotals(const Phase &fig6);

/** Live-point library paths the farm phase built. */
std::vector<std::string> farmLibraries(const Phase &farm);

/** Exchanges the serve phase captured on its first pass. */
const std::vector<Exchange> &serveExchanges(const Phase &serve);

/**
 * The traced run's layer replay: records an issue stream per program
 * and times each layer's public calls on it, adding the per-layer
 * metrics to @p r. Returns the per-call costs the layer table uses to
 * split the Figure 6 jobs' time (keys "emulator.step_ns",
 * "fac.predict_ns", "cache.read_ns").
 */
std::map<std::string, double>
runLayerReplay(const Options &o, const std::vector<std::string> &libraries,
               const std::vector<Exchange> &exchanges, Report &r);

/** The serve daemon entry point (the "daemon" subcommand). */
int daemonMain(int argc, char **argv);

} // namespace facbench

#endif // FACBENCH_PHASES_HH
