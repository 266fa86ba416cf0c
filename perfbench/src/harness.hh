/**
 * @file
 * Shared pieces of the pipesim benchmark runner: run options, output
 * checks and the per-repetition sample a workload's timed body returns.
 * Metric names and units are BENCHMARK.json's; the runner prints
 * name-to-value pairs and run.py attaches the units.
 *
 * The runner calls the pipesim library only through its public
 * functions and times every call from outside; simulated quantities
 * come from the counters each SimResult already carries.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0; //!< length of the timed phase
    bool trace = false;   //!< also make the profiled (traced) run
    std::string golden;   //!< results/bench_full.txt of the checkout
    bool tiny = false;    //!< self-test size: a few points per grid
    /** Figure-sweep workers; 0 = the workload's own count. */
    unsigned workers = 0;
    std::string workdir; //!< scratch for traces, stores, checkpoints
};

/**
 * Output checks.  Every simulated point and every check is one
 * attempt; a failed check or a failed (ERR) point is one failure.
 */
class Checks
{
  public:
    /** Count @p n simulated points as attempted. */
    void points(std::uint64_t n) { _attempted += n; }

    /** Record one failed point (counted by points() already). */
    void pointFailed(const std::string &what);

    /** One check: counts an attempt, and a failure when !ok. */
    bool expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** One execution of a workload's timed body. */
struct BodySample
{
    double wallS = 0.0;     //!< the whole body
    double simCycles = 0.0; //!< simulated cycles behind mcycles_per_s
    double simWallS = 0.0;  //!< host time those cycles took
    std::vector<double> pointMs; //!< per point, in a fixed order
    /**
     * Untimed-run per-layer values of this repetition.  A layer the
     * workload does not run is set to 0 explicitly (notRun()).
     */
    std::map<std::string, double> layers;
    /** Simulated counts; must repeat exactly in every repetition. */
    std::map<std::string, double> counts;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the workload's inputs (timed as setup_s).  Called several
     * times per run; each call replaces the previous inputs.
     * @return per-layer timings of this set-up.
     */
    virtual std::map<std::string, double> setup(Checks &checks) = 0;

    /** One execution of the timed body against the current inputs. */
    virtual BodySample body(Checks &checks) = 0;

    /**
     * The untimed warm-up before any timing: the body once, unless a
     * workload runs a shorter form of it that reaches the same code.
     */
    virtual void warmUp(Checks &checks) { body(checks); }

    /** Workload-specific context recorded with the result. */
    virtual std::map<std::string, std::string> context() const = 0;
};

std::unique_ptr<Workload> makeFigureWorkload(const Options &opt);
std::unique_ptr<Workload> makeReplayBranchy(const Options &opt);

/** Set each of @p names in @p layers to 0: layers a workload does not
 *  run, so that every workload prints every per-layer metric. */
void notRun(std::map<std::string, double> &layers,
            std::initializer_list<const char *> names);

/**
 * Simulated counts summed over @p results: sim.cycles, sim.insts and
 * the cpi.*, fetch.* and mem.* shares (ratios of sums, so the order
 * the results arrive in does not matter).
 */
std::map<std::string, double>
simulatedCounts(const std::vector<pipesim::SimResult> &results);

/** Host seconds since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** CPUs this process may run on (what nproc prints). */
unsigned hostCpus();

/** Remove and recreate @p dir (a fresh, empty directory). */
void freshDir(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
