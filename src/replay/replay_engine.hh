/**
 * @file
 * Trace-driven simulation: replay a captured instruction stream
 * through any machine configuration, taking effective addresses and
 * branch outcomes from the trace instead of from executed values.
 *
 * Two modes (docs/trace_replay.md documents the guarantees):
 *
 *  - Exact (samplePeriod == 0): Simulator::run() on a machine whose
 *    pipeline follows the trace (an Annotation, cpu/pipeline.hh).
 *    Every counter, the CPI stack included, and the cycle count are
 *    bit-exact against the cycle run for the same config — enforced
 *    by tests/test_replay.cc across the full Livermore sweep grid.
 *
 *  - Sampled (samplePeriod > 0): SMARTS-style systematic sampling.
 *    Every samplePeriod instructions a fresh machine replays
 *    sampleWarmup instructions of detailed warm-up followed by
 *    sampleMeasure measured instructions; the run's CPI is estimated
 *    from the measured windows and the total cycle count
 *    extrapolated.  Windows begin only at architectural sync points
 *    (no load data or store data crossing the window boundary), so a
 *    window can never deadlock on queue state it did not observe.
 *
 * Sampled replay is plan/execute split: planSampleWindows() first
 * enumerates the (deduplicated) measurement windows, then the windows
 * run as independent jobs — serially, on a thread pool (jobs > 1), or
 * restored from a live-points checkpoint (replay/checkpoint.hh) that
 * skips the warm-up entirely.  Results accumulate in plan order, so
 * every execution strategy produces bit-identical estimates.
 */

#ifndef PIPESIM_REPLAY_REPLAY_ENGINE_HH
#define PIPESIM_REPLAY_REPLAY_ENGINE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "replay/trace_format.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace pipesim::replay
{

/** How to replay; default is the exact mode. */
struct ReplayOptions
{
    /**
     * Sampling period in instructions; 0 selects the exact mode.
     * Must be >= sampleWarmup + sampleMeasure when nonzero.
     */
    unsigned samplePeriod = 0;
    unsigned sampleWarmup = 300;  //!< detailed warm-up per window
    unsigned sampleMeasure = 700; //!< measured instructions per window

    /**
     * Worker threads for sampled windows (0 resolves like --jobs:
     * PIPESIM_JOBS, then hardware concurrency).  Results are
     * bit-identical for any value; 1 keeps the single-threaded path
     * that shares one DataMemory across windows.  Ignored by the
     * exact mode and forced to 1 while creating checkpoints.
     */
    unsigned jobs = 1;

    /**
     * Live-points checkpoint directory (replay/checkpoint.hh).
     * Empty disables checkpointing.  Non-empty with ckptCreate runs
     * the serial sampled pass and saves every window's warm state;
     * non-empty without ckptCreate requires a matching checkpoint
     * file and replays only the measured instructions of each window.
     */
    std::string ckptDir;
    bool ckptCreate = false;
};

/**
 * One planned sampling window, in trace record indices:
 * [start, warmEnd) is detailed warm-up, [warmEnd, measureEnd) is
 * measured.  start is always a sync point.
 */
struct SampleWindow
{
    std::size_t start = 0;
    std::size_t warmEnd = 0;
    std::size_t measureEnd = 0;

    bool operator==(const SampleWindow &other) const = default;
};

/**
 * Record indices where a fresh machine can pick up the trace without
 * depending on state produced before the cut: the architectural
 * queues are provably empty, no FPU operation is in flight, and the
 * index is not inside a taken PBR's delay-slot shadow.
 */
std::vector<std::size_t> computeSyncPoints(const Program &program,
                                           const Trace &trace);

/**
 * Enumerate the sampling windows for a trace of @p totalRecords
 * records: each period target rounds up to the next sync point, warm
 * and measured spans clamp to the trace end, and a target that lands
 * on an already-planned sync point is dropped (sparse sync points
 * would otherwise measure the same window twice, double-weighting it
 * in the CPI estimator).  Pure function of its arguments — the same
 * plan drives serial, pooled and checkpointed execution.
 */
std::vector<SampleWindow>
planSampleWindows(std::size_t totalRecords,
                  const std::vector<std::size_t> &syncPoints,
                  const ReplayOptions &opt);

/**
 * The pipeline annotation (cpu/pipeline.hh) that replays @p trace
 * from record @p first; @p trace must outlive every machine built
 * with it.
 */
Annotation annotationOf(const Trace &trace, std::size_t first = 0);

/**
 * Replay @p trace through the machine described by @p config.
 *
 * The result's counters use the same names as the cycle simulator's;
 * result.meta records the engine, the trace and program hashes, and
 * (when sampling) the window parameters and the CPI confidence
 * interval ("n/a" when fewer than two windows were measured).
 *
 * @throws FatalError when the trace was not captured from @p program
 *         (hash mismatch or per-record divergence), when fault
 *         injection is requested (replay has no fault injector), or
 *         when a requested checkpoint is missing, corrupt or keyed to
 *         a different (trace, program, config, sampling) tuple.
 * @throws SimAbort on the same watchdogs as the cycle simulator.
 */
SimResult replayTrace(const SimConfig &config, const Program &program,
                      const Trace &trace,
                      const ReplayOptions &options = {});

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_REPLAY_ENGINE_HH
