/**
 * @file
 * Experiment harness: the cache-size sweeps behind every figure in
 * the paper's evaluation, parameterised the same way (strategy set,
 * memory access time, bus width, pipelining).
 *
 * Sweep points are independent (one Simulator per point against a
 * shared immutable Program), so runCacheSweep can execute them on a
 * thread pool; see docs/parallel_sweeps.md for the threading model
 * and the callback serialization contract.
 */

#ifndef PIPESIM_SIM_EXPERIMENT_HH
#define PIPESIM_SIM_EXPERIMENT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "common/table.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "store/result_store.hh"

namespace pipesim
{

namespace replay
{
struct Trace;
} // namespace replay

/** Which engine executes each sweep point. */
enum class SweepEngine
{
    /** Full cycle-accurate simulation (Simulator). */
    Cycle,
    /**
     * Trace-driven replay (replay::replayTrace) of SweepSpec::trace.
     * Exact by default; SweepSpec::samplePeriod selects sampling.
     * preRun/postRun do not fire (there is no Simulator to attach
     * probes to); on_point still fires for every completed point.
     */
    Trace,
};

/** How runCacheSweep treats a failing point. */
enum class SweepFailurePolicy
{
    /**
     * Rethrow the first failure in enumeration order after every
     * point has finished (no table is produced).  The default, and
     * the pre-existing behaviour.
     */
    FailFast,
    /**
     * Record the failure, render "ERR" in that point's cell, and
     * finish the sweep; the failures come back in
     * SweepResult::failures, in enumeration order regardless of the
     * worker count.
     */
    CollectAndContinue,
};

/** Structured record of one failed sweep point. */
struct PointFailure
{
    std::string strategy;
    unsigned cacheBytes = 0;
    unsigned attempts = 0; //!< runs tried (1 + spec.pointRetries)
    std::string message;   //!< the exception's what()
    std::string snapshot;  //!< machine snapshot (SimAbort only)

    /** True when the final attempt died on the --point-deadline-ms
     *  wall-clock watchdog (the cell renders "ERR(timeout)"). */
    bool timeout = false;

    /** Total deterministic retry back-off slept across the attempts
     *  (see retryBackoffNs()); part of the failure report. */
    std::uint64_t backoffNs = 0;
};

/**
 * Host-side timing record for one completed (or failed) sweep point.
 * Records come back in enumeration order for every worker count, so
 * the (strategy, cacheBytes, attempts) key sequence is deterministic;
 * only wallNs carries nondeterministic host timing.
 */
struct PointTiming
{
    std::string strategy;
    unsigned cacheBytes = 0;
    unsigned attempts = 0;   //!< runs tried (failed attempts included);
                             //!< 0 = served from the result store
    std::uint64_t wallNs = 0; //!< host wall-clock across all attempts
};

/** What a sweep produced: the table plus any per-point failures. */
struct SweepResult
{
    Table table;
    std::vector<PointFailure> failures;

    /** Per-point host timings, in enumeration order (valid points
     *  only — one entry per non-"-" cell). */
    std::vector<PointTiming> timings;

    /** Points served from SweepSpec::storeDir without simulating /
     *  points that had to run (0/0 when no store was attached). */
    std::size_t storeHits = 0;
    std::size_t storeMisses = 0;

    /** @return true if every valid point completed. */
    bool ok() const { return failures.empty(); }

    /**
     * Human-readable report of every failure (message plus indented
     * machine snapshot); empty when ok().
     */
    std::string failureReport() const;
};

/** One figure-style sweep: strategies x cache sizes. */
struct SweepSpec
{
    /** Cache sizes on the x axis (bytes). */
    std::vector<unsigned> cacheSizes = {16, 32, 64, 128, 256, 512, 1024};

    /**
     * Strategy names: "conv" or a Table II PIPE configuration name.
     * Order defines the table columns.
     */
    std::vector<std::string> strategies = {"conv", "8-8", "16-16",
                                           "16-32", "32-32"};

    /** Memory-side parameters shared by every point. */
    MemSystemConfig mem;

    /** Off-chip policy for the PIPE strategies (paper: TruePrefetch). */
    OffchipPolicy policy = OffchipPolicy::TruePrefetch;

    /** Line size for the conventional cache. */
    unsigned convLineBytes = 16;

    /** Entry size for the "tib" strategy. */
    unsigned tibEntryBytes = 16;

    /** Processor-side parameters. */
    PipelineConfig cpu;

    /**
     * Worker threads for the sweep: 0 resolves through --jobs /
     * PIPESIM_JOBS / hardware concurrency (resolveJobCount()); 1
     * forces fully serial in-order execution on the calling thread.
     */
    unsigned jobs = 0;

    /** What to do when a point's Simulator throws. */
    SweepFailurePolicy failurePolicy = SweepFailurePolicy::FailFast;

    /**
     * Emit a throttled progress heartbeat with ETA on stderr while
     * the sweep runs ("[sweep] 12/31 points (38%) elapsed 1.2s eta
     * 1.9s").  Heartbeats never touch stdout, so the rendered table
     * stays byte-identical for any worker count (--progress on every
     * bench; see docs/observability.md).
     */
    bool progress = false;

    /** Which engine runs each point. */
    SweepEngine engine = SweepEngine::Cycle;

    /**
     * The captured trace replayed by the Trace engine (must outlive
     * the sweep; one capture drives every point because the committed
     * instruction stream is config-independent).  Required when
     * engine == SweepEngine::Trace; fault injection is rejected there.
     */
    const replay::Trace *trace = nullptr;

    /** Trace engine: sampling period in instructions (0 = exact). */
    unsigned samplePeriod = 0;
    unsigned sampleWarmup = 300;  //!< warm-up instructions per window
    unsigned sampleMeasure = 700; //!< measured instructions per window

    /**
     * Trace engine, sampled mode: live-points checkpoint directory
     * (replay/checkpoint.hh).  Empty disables checkpoints.  With
     * ckptCreate each point's serial sampled pass also snapshots its
     * windows there; without it each point restores its windows from
     * a matching checkpoint file, skipping every warm-up.  Points
     * keep their windows serial either way — the sweep already
     * parallelizes across points.
     */
    std::string ckptDir;
    bool ckptCreate = false;

    /**
     * Extra attempts granted to a failing point before its failure
     * is recorded (each attempt rebuilds the Simulator from the same
     * config, so a deterministic fault fails every attempt).
     */
    unsigned pointRetries = 0;

    /**
     * Base of the deterministic retry back-off slept before each
     * re-attempt (retryBackoffNs(): exponential in the attempt
     * number, jittered from the point's identity — never from the
     * worker or wall-clock, so the schedule is byte-identical for
     * any --jobs).  0 disables the back-off (retries fire
     * immediately, the pre-PR behaviour).
     */
    unsigned retryBackoffMs = 10;

    /**
     * Crash-safe result store directory (src/store/result_store.hh).
     * Empty disables the store.  When set, every enumerated point is
     * looked up by content key before scheduling — hits fill their
     * cells (and fire on_point) without simulating, misses run and
     * are journaled on completion — so a killed or repeated sweep
     * resumes losslessly with a byte-identical table for any --jobs.
     * Failed (ERR) points are never journaled: a resumed sweep
     * re-attempts them.  preRun/postRun do not fire for served
     * points (there is no Simulator), mirroring the trace engine's
     * contract.
     */
    std::string storeDir;

    /**
     * Per-attempt wall-clock deadline in milliseconds (0 = none).
     * A watchdog thread arms each running point's cooperative
     * cancellation flag (SimConfig::cancelFlag) when its budget
     * expires; the tick loops observe it and unwind with
     * TimeoutAbort, dispositioned through the normal failure policy
     * as "ERR(timeout)" — the pool keeps draining the other points.
     */
    unsigned pointDeadlineMs = 0;

    /**
     * Fault injection applied to the swept machines (fault/fault.hh).
     * Each point derives its own seed from (fault.seed, strategy,
     * cache size), so its fault stream is independent of the worker
     * count and of which other points are swept.
     */
    fault::FaultConfig fault;

    /**
     * When non-empty, restrict fault injection to the single point
     * named "strategy:cachebytes" (e.g. "16-16:64"); every other
     * point runs fault-free.  Ignored when fault.kinds is None.
     */
    std::string faultPoint;

    /** Override SimConfig::maxCycles for every point (0 = keep the
     *  default). */
    Cycle maxCycles = 0;

    /** Override SimConfig::progressWindow for every point (0 = keep
     *  the default) -- lets tests detect an injected deadlock fast. */
    Cycle progressWindow = 0;

    /**
     * Called with the freshly built Simulator before a point runs --
     * the place to attach probe-bus listeners (trace exporters, extra
     * accounting) for that point.
     *
     * Callback contract under parallel sweeps: preRun, postRun and
     * on_point are always invoked under one shared mutex, never
     * concurrently.  With jobs == 1 they fire in deterministic
     * (size, strategy) order; with jobs > 1 the order across points
     * follows completion, but postRun and on_point for a given point
     * are still consecutive under a single lock hold.
     */
    std::function<void(Simulator &sim, const std::string &strategy,
                       unsigned cache_bytes)>
        preRun;

    /**
     * Called after a point finishes, while its Simulator is still
     * alive -- the place to detach listeners and write outputs.
     * Serialized; see preRun.
     */
    std::function<void(Simulator &sim, const std::string &strategy,
                       unsigned cache_bytes, const SimResult &result)>
        postRun;

    /**
     * Called once on the sweeping thread after every point has
     * finished (and after the last postRun/on_point), regardless of
     * worker count -- the place to validate that an expected point
     * actually ran and flush any aggregate output.
     */
    std::function<void()> onSweepEnd;
};

/**
 * One enumerated (cache size, strategy) cell of a sweep grid — the
 * point-level scheduling unit.  runCacheSweep plans its grid through
 * planSweepPoints(); perfbench plans the same points, with their
 * store keys, to time ResultStore put/lookup directly.
 */
struct SweepPointPlan
{
    std::size_t row = 0; //!< index into spec.cacheSizes
    std::size_t col = 0; //!< index into spec.strategies
    unsigned cacheBytes = 0;
    std::string strategy;
    SimConfig cfg; //!< built exactly once, at planning

    /** Result-store content key; "" when planned without keys. */
    std::string storeKey;
};

/**
 * The result-store key parameters a sweep's points share: program
 * hash, engine name, trace hash and sampling parameters (the
 * per-point config/fault identity is folded in by resultKeyHex).
 * Requires spec.trace when the engine is Trace.
 */
store::ResultKeyParams sweepKeyParams(const SweepSpec &spec,
                                      const Program &program);

/**
 * Enumerate every valid point of the sweep grid in deterministic
 * (size, strategy) order, building each SimConfig exactly once.
 * When @p keys is non-null each point also gets its result-store
 * content key (store::resultKeyHex).  Invalid (degenerate) points are
 * omitted — they render "-" in an assembled table.
 */
std::vector<SweepPointPlan>
planSweepPoints(const SweepSpec &spec,
                const store::ResultKeyParams *keys = nullptr);

/**
 * Build the SimConfig for one (strategy, cache size) point when the
 * point is simulable; std::nullopt for a degenerate point (cache
 * smaller than one conventional line / PIPE line / TIB entry pair).
 * Builds each configuration exactly once -- this is the function the
 * sweep uses to enumerate points.
 */
std::optional<SimConfig> makeValidSweepConfig(const SweepSpec &spec,
                                              const std::string &strategy,
                                              unsigned cache_bytes);

/**
 * Build the SimConfig for one (strategy, cache size) point without a
 * validity check (kept for callers that know the point is valid).
 */
SimConfig makeSweepConfig(const SweepSpec &spec,
                          const std::string &strategy,
                          unsigned cache_bytes);

/**
 * @return true if the point is simulable (the cache must fit at
 *         least one conventional line, PIPE line, or TIB entry pair).
 */
bool sweepPointValid(const SweepSpec &spec, const std::string &strategy,
                     unsigned cache_bytes);

/**
 * Deterministic retry back-off before attempt @p attempt (2-based:
 * the first attempt never waits) of the point
 * (@p strategy, @p cache_bytes): exponential in the attempt number
 * (capped at 32x) on a base of @p base_ms milliseconds, plus a
 * jitter below one base derived from the point's identity with the
 * same splitmix64 machinery as the per-point fault seeds.  A pure
 * function of its arguments — independent of worker count, wall
 * clock and sweep composition — so retry schedules are reproducible.
 * @return the back-off in nanoseconds (0 when base_ms is 0).
 */
std::uint64_t retryBackoffNs(const std::string &strategy,
                             unsigned cache_bytes, unsigned attempt,
                             unsigned base_ms);

/**
 * Run the sweep over @p program, using spec.jobs worker threads.
 *
 * The result is deterministic and independent of the worker count:
 * each point runs on a private Simulator (own StatGroup and probe
 * bus) and the table is assembled in (size, strategy) order
 * regardless of completion order.  A failing point is retried
 * spec.pointRetries times; under FailFast the first failure in
 * enumeration order is rethrown after all workers finish, under
 * CollectAndContinue it renders "ERR" in that cell and is returned
 * in SweepResult::failures (postRun/on_point do not fire for failed
 * points).
 *
 * @param on_point Optional observer called after each run (e.g. for
 *                 progress output or extra stat collection);
 *                 serialized with preRun/postRun (see SweepSpec).
 * @return the assembled table (one row per cache size, one column
 *         per strategy, cells are total execution cycles, "-" for
 *         invalid points, "ERR" for failed ones) plus the structured
 *         failure records.
 */
SweepResult runCacheSweep(
    const SweepSpec &spec, const Program &program,
    const std::function<void(const std::string &strategy,
                             unsigned cache_bytes,
                             const SimResult &result)> &on_point = {});

} // namespace pipesim

#endif // PIPESIM_SIM_EXPERIMENT_HH
