#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/abort.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/guard.hh"
#include "store/result_store.hh"

namespace pipesim
{

std::string
SweepResult::failureReport() const
{
    if (failures.empty())
        return "";
    std::ostringstream os;
    os << failures.size() << " sweep point(s) failed:\n";
    for (const PointFailure &f : failures) {
        os << "  " << f.strategy << ":" << f.cacheBytes << " after "
           << f.attempts << " attempt(s)";
        if (f.backoffNs)
            os << " (retry backoff " << f.backoffNs / 1'000'000
               << " ms)";
        os << ": " << f.message << "\n";
        std::istringstream lines(f.snapshot);
        std::string line;
        while (std::getline(lines, line))
            os << "    " << line << "\n";
    }
    return os.str();
}

SimConfig
makeSweepConfig(const SweepSpec &spec, const std::string &strategy,
                unsigned cache_bytes)
{
    SimConfig cfg;
    cfg.mem = spec.mem;
    cfg.cpu = spec.cpu;
    if (strategy == "conv") {
        cfg.fetch = conventionalConfigFor(cache_bytes, spec.convLineBytes);
    } else if (strategy == "tib") {
        cfg.fetch = tibConfigFor(cache_bytes, spec.tibEntryBytes);
    } else {
        cfg.fetch = pipeConfigFor(strategy, cache_bytes);
        cfg.fetch.offchipPolicy = spec.policy;
    }
    if (spec.maxCycles)
        cfg.maxCycles = spec.maxCycles;
    if (spec.progressWindow)
        cfg.progressWindow = spec.progressWindow;
    cfg.fault = spec.fault;
    if (cfg.fault.kinds != fault::None) {
        const std::string name =
            strategy + ":" + std::to_string(cache_bytes);
        if (!spec.faultPoint.empty() && spec.faultPoint != name) {
            cfg.fault.kinds = fault::None;
        } else {
            // Give the point its own reproducible fault stream.
            cfg.fault.seed = fault::FaultInjector::derivePointSeed(
                spec.fault.seed, strategy, cache_bytes);
        }
    }
    return cfg;
}

std::optional<SimConfig>
makeValidSweepConfig(const SweepSpec &spec, const std::string &strategy,
                     unsigned cache_bytes)
{
    // Validity gates that need no config: a conventional cache must
    // hold at least one line, a TIB at least two entries' worth of
    // parcels.
    if (strategy == "conv" && cache_bytes < spec.convLineBytes)
        return std::nullopt;
    if (strategy == "tib" && cache_bytes < 2 * parcelBytes)
        return std::nullopt;

    SimConfig cfg = makeSweepConfig(spec, strategy, cache_bytes);
    // PIPE configurations name a line size; the cache must fit it.
    if (cfg.fetch.strategy == FetchStrategy::Pipe &&
        cfg.fetch.lineBytes > cache_bytes)
        return std::nullopt;
    return cfg;
}

bool
sweepPointValid(const SweepSpec &spec, const std::string &strategy,
                unsigned cache_bytes)
{
    return makeValidSweepConfig(spec, strategy, cache_bytes).has_value();
}

std::uint64_t
retryBackoffNs(const std::string &strategy, unsigned cache_bytes,
               unsigned attempt, unsigned base_ms)
{
    if (base_ms == 0 || attempt <= 1)
        return 0;
    const std::uint64_t baseNs = std::uint64_t(base_ms) * 1'000'000;
    const unsigned exponent = std::min(attempt - 2, 5u);
    // Reuse the per-point fault-seed derivation for the jitter: its
    // stream is already a pure function of the point identity, so the
    // schedule never depends on which worker retries the point.
    const std::uint64_t jitter = fault::FaultInjector::derivePointSeed(
                                     0x524554525900ull + attempt,
                                     strategy, cache_bytes) %
                                 baseNs;
    return (baseNs << exponent) + jitter;
}

store::ResultKeyParams
sweepKeyParams(const SweepSpec &spec, const Program &program)
{
    store::ResultKeyParams keyParams;
    keyParams.programSha256 = replay::programSha256(program);
    if (spec.engine == SweepEngine::Trace) {
        if (!spec.trace)
            fatal("trace-engine sweep key requested without a trace "
                  "(SweepSpec::trace is null)");
        keyParams.engine =
            spec.samplePeriod ? "trace-sampled" : "trace-exact";
        // An auto-captured trace has no encoded-stream hash yet; its
        // program hash still pins the capture (the committed stream
        // is a pure function of the program).
        keyParams.traceSha256 = !spec.trace->sha256.empty()
                                    ? spec.trace->sha256
                                    : spec.trace->meta.programSha256;
        keyParams.samplePeriod = spec.samplePeriod;
        if (spec.samplePeriod) {
            keyParams.sampleWarmup = spec.sampleWarmup;
            keyParams.sampleMeasure = spec.sampleMeasure;
        }
    } else {
        keyParams.engine = "cycle";
    }
    return keyParams;
}

std::vector<SweepPointPlan>
planSweepPoints(const SweepSpec &spec, const store::ResultKeyParams *keys)
{
    std::vector<SweepPointPlan> points;
    points.reserve(spec.cacheSizes.size() * spec.strategies.size());
    for (std::size_t r = 0; r < spec.cacheSizes.size(); ++r) {
        for (std::size_t c = 0; c < spec.strategies.size(); ++c) {
            auto cfg = makeValidSweepConfig(spec, spec.strategies[c],
                                            spec.cacheSizes[r]);
            if (!cfg)
                continue;
            SweepPointPlan p;
            p.row = r;
            p.col = c;
            p.cacheBytes = spec.cacheSizes[r];
            p.strategy = spec.strategies[c];
            p.cfg = std::move(*cfg);
            if (keys)
                p.storeKey = store::resultKeyHex(p.cfg, *keys);
            points.push_back(std::move(p));
        }
    }
    return points;
}

namespace
{

/**
 * Host-side control block for one scheduled point.  deadlineNs is
 * armed by the point's worker right before an attempt and observed by
 * the DeadlineEnforcer watchdog, which answers by setting cancel —
 * the flag the simulated machine's tick loop polls through
 * SimConfig::cancelFlag.
 */
struct PointControl
{
    std::atomic<std::uint64_t> deadlineNs{0}; //!< 0 = not running
    std::atomic<bool> cancel{false};
};

/**
 * The --point-deadline-ms watchdog: one thread scanning every
 * in-flight point's armed deadline a few hundred times a second.
 * Purely host-side — it never touches simulated state, only the
 * cooperative cancel flags — so it cannot perturb results.  The
 * controls vector must outlive the enforcer.
 */
class DeadlineEnforcer
{
  public:
    DeadlineEnforcer(std::vector<PointControl> &controls, bool enabled)
    {
        if (enabled)
            _thread = std::thread([this, &controls] { watch(controls); });
    }

    ~DeadlineEnforcer()
    {
        if (_thread.joinable()) {
            _stop.store(true, std::memory_order_relaxed);
            _thread.join();
        }
    }

    DeadlineEnforcer(const DeadlineEnforcer &) = delete;
    DeadlineEnforcer &operator=(const DeadlineEnforcer &) = delete;

  private:
    void watch(std::vector<PointControl> &controls)
    {
        while (!_stop.load(std::memory_order_relaxed)) {
            const std::uint64_t now = obs::profileNowNs();
            for (PointControl &c : controls) {
                const std::uint64_t deadline =
                    c.deadlineNs.load(std::memory_order_relaxed);
                if (deadline && now >= deadline)
                    c.cancel.store(true, std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    std::atomic<bool> _stop{false};
    std::thread _thread;
};

/**
 * Run one attempt of one trace-engine point: replay spec.trace on
 * @p cfg.  Failures (SimAbort, TimeoutAbort via cfg.cancelFlag,
 * FatalError) propagate to runPoint, which owns retry and
 * disposition policy.
 */
SimResult
replayPoint(const SweepSpec &spec, const Program &program,
            const SimConfig &cfg)
{
    replay::ReplayOptions opts;
    opts.samplePeriod = spec.samplePeriod;
    opts.sampleWarmup = spec.sampleWarmup;
    opts.sampleMeasure = spec.sampleMeasure;
    // Windows stay serial inside a point (jobs = 1): the sweep
    // already parallelizes across points, and nesting pools would
    // oversubscribe the host.
    opts.ckptDir = spec.ckptDir;
    opts.ckptCreate = spec.ckptCreate;
    return replay::replayTrace(cfg, program, *spec.trace, opts);
}

/**
 * One planned point plus the runtime state runCacheSweep tracks for
 * it.  Runtime fields are written by the point's own worker and read
 * only after all workers joined.
 */
struct SweepPoint
{
    SweepPointPlan plan;

    /** Set when the point exhausted its attempts. */
    std::optional<PointFailure> failure;
    std::exception_ptr error;

    /** Host telemetry (same publication rule). */
    std::uint64_t wallNs = 0;
    unsigned attemptsUsed = 0;

    /** Back-off slept across this point's re-attempts. */
    std::uint64_t backoffNs = 0;

    /** True when the store served this point (it never runs). */
    bool served = false;
};

/** Sleep @p ns, waking early if a shutdown signal arrives. */
void
interruptibleSleepNs(std::uint64_t ns)
{
    constexpr std::uint64_t kChunkNs = 5'000'000;
    while (ns > 0 && !pendingSignal()) {
        const std::uint64_t slice = std::min(ns, kChunkNs);
        std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
        ns -= slice;
    }
}

/** Turn the exception behind @p error into a structured record. */
PointFailure
describeFailure(const SweepPoint &p, unsigned attempts)
{
    PointFailure f;
    f.strategy = p.plan.strategy;
    f.cacheBytes = p.plan.cacheBytes;
    f.attempts = attempts;
    try {
        std::rethrow_exception(p.error);
    } catch (const TimeoutAbort &e) {
        f.message = e.what();
        f.timeout = true;
        if (e.hasSnapshot())
            f.snapshot = e.snapshot().toString();
    } catch (const SimAbort &e) {
        f.message = e.what();
        if (e.hasSnapshot())
            f.snapshot = e.snapshot().toString();
    } catch (const std::exception &e) {
        f.message = e.what();
    } catch (...) {
        f.message = "unknown error";
    }
    return f;
}

/**
 * Throttled progress heartbeat for a running sweep.  Writes only to
 * stderr, so the rendered table on stdout stays byte-identical
 * whether or not --progress is on and for any worker count.
 */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, std::size_t total)
        : _enabled(enabled && total > 0), _total(total),
          _startNs(obs::profileNowNs())
    {
    }

    /** Record one finished point; prints at most every ~200 ms, but
     *  always prints the final point. */
    void pointDone()
    {
        if (!_enabled)
            return;
        const std::size_t done = ++_completed;
        std::lock_guard<std::mutex> lock(_mutex);
        const std::uint64_t now = obs::profileNowNs();
        if (done < _total && now - _lastPrintNs < kThrottleNs)
            return;
        _lastPrintNs = now;
        const double elapsed = double(now - _startNs) * 1e-9;
        const double eta =
            elapsed / double(done) * double(_total - done);
        std::fprintf(
            stderr, "[sweep] %zu/%zu points (%d%%) elapsed %.1fs eta %.1fs\n",
            done, _total, int(100.0 * double(done) / double(_total)),
            elapsed, eta);
    }

  private:
    static constexpr std::uint64_t kThrottleNs = 200'000'000;

    const bool _enabled;
    const std::size_t _total;
    const std::uint64_t _startNs;
    std::mutex _mutex; //!< guards _lastPrintNs and stderr interleaving
    std::atomic<std::size_t> _completed{0};
    std::uint64_t _lastPrintNs = 0;
};

/**
 * Pre-create every host metric a sweep can emit, so the exported key
 * set is identical for any worker count (the key-set contract in
 * obs/metrics.hh: a jobs=1 sweep never constructs a ThreadPool, so
 * the pool would otherwise only register its metrics when jobs>1).
 */
void
touchSweepMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("pool.tasks");
    reg.counter("pool.busy_ns");
    reg.counter("pool.idle_ns");
    reg.counter("pool.empty_wakeups");
    reg.gauge("pool.workers");
    reg.histogram("pool.queue_depth");
    reg.histogram("sweep.point_ns");
    // Result-store and deadline metrics stay in the key set even for
    // store-less sweeps, so exports compare cleanly across runs.
    reg.counter("store.hits");
    reg.counter("store.misses");
    reg.counter("store.recovered");
    reg.counter("point.timeouts");
}

} // namespace

SweepResult
runCacheSweep(const SweepSpec &spec, const Program &program,
              const std::function<void(const std::string &, unsigned,
                                       const SimResult &)> &on_point)
{
    obs::ScopedPhase sweepPhase("sweep", obs::Scope::Coarse);
    touchSweepMetrics();

    if (spec.engine == SweepEngine::Trace) {
        if (!spec.trace)
            fatal("trace-engine sweep requested without a trace "
                  "(SweepSpec::trace is null)");
        if (spec.fault.kinds != fault::None)
            fatal("trace-engine sweep cannot inject faults; use the "
                  "cycle engine for fault experiments");
        if (spec.preRun || spec.postRun)
            warn("trace-engine sweep: preRun/postRun callbacks do not "
                 "fire (replayTrace builds its Simulators internally)");
    }

    std::vector<std::string> headers = {"cache_bytes"};
    for (const auto &s : spec.strategies)
        headers.push_back(s);
    Table table(std::move(headers));

    auto &reg = obs::MetricsRegistry::instance();

    // Open (and recover) the crash-safe result store before anything
    // is scheduled: completed points will be served from it, missing
    // ones journaled into it as they finish.
    std::unique_ptr<store::ResultStore> resultStore;
    store::ResultKeyParams keyParams;
    if (!spec.storeDir.empty()) {
        resultStore = std::make_unique<store::ResultStore>(spec.storeDir);
        if (resultStore->recoveredBytes())
            reg.counter("store.recovered").add(1);
        keyParams = sweepKeyParams(spec, program);
    }

    // Enumerate every valid point up front, building each SimConfig
    // exactly once.  Invalid points render "-" in the assembled table.
    const std::size_t rows = spec.cacheSizes.size();
    const std::size_t cols = spec.strategies.size();
    std::vector<std::vector<std::string>> cells(
        rows, std::vector<std::string>(cols, "-"));
    std::vector<SweepPoint> points;
    {
        obs::ScopedPhase phase("enumerate");
        std::vector<SweepPointPlan> plans = planSweepPoints(
            spec, resultStore ? &keyParams : nullptr);
        points.reserve(plans.size());
        for (SweepPointPlan &plan : plans) {
            SweepPoint p;
            p.plan = std::move(plan);
            points.push_back(std::move(p));
        }
    }

    // Consult the store before scheduling, in enumeration order, so
    // a resumed or repeated sweep only simulates the missing points
    // and the table stays byte-identical for any --jobs.  Hits fire
    // on_point (the stored result carries the full counters + meta)
    // but not preRun/postRun — no Simulator exists, as with the
    // trace engine.
    std::size_t storeHits = 0, storeMisses = 0;
    if (resultStore) {
        obs::ScopedPhase phase("store_lookup");
        for (auto &p : points) {
            const auto hit = resultStore->lookup(p.plan.storeKey);
            if (!hit) {
                ++storeMisses;
                continue;
            }
            ++storeHits;
            p.served = true;
            cells[p.plan.row][p.plan.col] =
                std::to_string(hit->totalCycles);
            if (on_point)
                on_point(p.plan.strategy, p.plan.cacheBytes, *hit);
        }
        reg.counter("store.hits").add(storeHits);
        reg.counter("store.misses").add(storeMisses);
    }

    std::size_t pendingPoints = 0;
    for (const auto &p : points)
        pendingPoints += p.served ? 0 : 1;
    ProgressReporter progress(spec.progress, pendingPoints);

    // Per-run state (Simulator, StatGroup, probe bus) is thread-local
    // to the point's worker; only the user callbacks share state, so
    // they are serialized under this mutex (see SweepSpec::preRun).
    std::mutex callbacks;
    // Journal a completed point (appends serialize inside the store;
    // a crash right after the flush still resumes losslessly).
    auto journal = [&](const SweepPoint &p, const SimResult &result) {
        if (resultStore)
            resultStore->put(p.plan.storeKey,
                             p.plan.strategy + ":" +
                                 std::to_string(p.plan.cacheBytes),
                             result);
    };
    auto attemptPoint = [&](SweepPoint &p) {
        if (spec.engine == SweepEngine::Trace) {
            const SimResult result =
                replayPoint(spec, program, p.plan.cfg);
            cells[p.plan.row][p.plan.col] =
                std::to_string(result.totalCycles);
            journal(p, result);
            if (on_point) {
                std::lock_guard<std::mutex> lock(callbacks);
                on_point(p.plan.strategy, p.plan.cacheBytes, result);
            }
            return;
        }
        Simulator sim(p.plan.cfg, program);
        if (spec.preRun) {
            std::lock_guard<std::mutex> lock(callbacks);
            spec.preRun(sim, p.plan.strategy, p.plan.cacheBytes);
        }
        const SimResult result = sim.run();
        // Each point owns a distinct cell; no lock needed for it.
        cells[p.plan.row][p.plan.col] =
            std::to_string(result.totalCycles);
        journal(p, result);
        if (spec.postRun || on_point) {
            std::lock_guard<std::mutex> lock(callbacks);
            if (spec.postRun)
                spec.postRun(sim, p.plan.strategy, p.plan.cacheBytes,
                             result);
            if (on_point)
                on_point(p.plan.strategy, p.plan.cacheBytes, result);
        }
    };
    // Never lets a point failure escape: it is captured on the point
    // itself and dispositioned after every worker has joined, so one
    // bad point cannot take the sweep down mid-flight.  The only
    // early exit is a termination signal, which sets `interrupted`
    // and lets the remaining workers drain their current points.
    const bool deadlines = spec.pointDeadlineMs > 0;
    std::atomic<bool> interrupted{false};
    auto runPoint = [&](SweepPoint &p, PointControl &ctl) {
        // Scope::Root: the phase attaches at the executing thread's
        // root, so the aggregated "point" path is identical whether
        // the point ran inline (jobs=1) or on a pool worker.
        obs::ScopedPhase phase("point", obs::Scope::Root,
                               p.plan.strategy + ":" +
                                   std::to_string(p.plan.cacheBytes));
        const std::uint64_t start = obs::profileNowNs();
        const unsigned attempts = 1 + spec.pointRetries;
        if (deadlines)
            p.plan.cfg.cancelFlag = &ctl.cancel;
        for (unsigned a = 1; a <= attempts; ++a) {
            if (pendingSignal()) {
                interrupted.store(true, std::memory_order_relaxed);
                break;
            }
            if (a > 1) {
                // Deterministic, seeded back-off: a function of the
                // point identity and attempt number only, so the
                // failure report is identical for any --jobs.
                const std::uint64_t backoff = retryBackoffNs(
                    p.plan.strategy, p.plan.cacheBytes, a,
                    spec.retryBackoffMs);
                p.backoffNs += backoff;
                interruptibleSleepNs(backoff);
                if (pendingSignal()) {
                    interrupted.store(true, std::memory_order_relaxed);
                    break;
                }
            }
            ctl.cancel.store(false, std::memory_order_relaxed);
            if (deadlines)
                ctl.deadlineNs.store(
                    obs::profileNowNs() +
                        std::uint64_t(spec.pointDeadlineMs) * 1'000'000,
                    std::memory_order_relaxed);
            try {
                attemptPoint(p);
                ctl.deadlineNs.store(0, std::memory_order_relaxed);
                p.attemptsUsed = a;
                break;
            } catch (const InterruptedError &) {
                ctl.deadlineNs.store(0, std::memory_order_relaxed);
                // Not a point failure: the whole sweep is shutting
                // down and will rethrow after the workers join.
                interrupted.store(true, std::memory_order_relaxed);
                break;
            } catch (...) {
                ctl.deadlineNs.store(0, std::memory_order_relaxed);
                p.error = std::current_exception();
                PointFailure f = describeFailure(p, a);
                if (f.timeout)
                    reg.counter("point.timeouts").add(1);
                if (a == attempts) {
                    p.attemptsUsed = a;
                    f.backoffNs = p.backoffNs;
                    cells[p.plan.row][p.plan.col] =
                        f.timeout ? "ERR(timeout)" : "ERR";
                    p.failure = std::move(f);
                } else {
                    p.error = nullptr;
                }
            }
        }
        p.wallNs = obs::profileNowNs() - start;
        obs::MetricsRegistry::instance()
            .histogram("sweep.point_ns")
            .sample(p.wallNs);
        progress.pointDone();
    };

    // Deadline control blocks live outside the (movable) points so
    // the watcher thread and the workers share stable atomics.
    std::vector<PointControl> controls(points.size());
    const unsigned jobs = resolveJobCount(spec.jobs);
    {
        // Same phase name for both execution shapes, so profiler key
        // sets match across worker counts.
        obs::ScopedPhase phase("run_points");
        DeadlineEnforcer enforcer(controls,
                                  deadlines && pendingPoints > 0);
        if (jobs <= 1 || pendingPoints <= 1) {
            // Serial: run in deterministic (size, strategy) order on
            // the calling thread.
            for (std::size_t i = 0; i < points.size(); ++i)
                if (!points[i].served)
                    runPoint(points[i], controls[i]);
        } else if (pendingPoints > 0) {
            ThreadPool pool(std::min<std::size_t>(jobs, pendingPoints));
            std::vector<std::future<void>> futures;
            futures.reserve(pendingPoints);
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (points[i].served)
                    continue;
                futures.push_back(pool.submit(
                    [&runPoint, &points, &controls, i] {
                        runPoint(points[i], controls[i]);
                    }));
            }
            // runPoint captures failures instead of throwing; waiting
            // on every future is a pure join.
            for (auto &f : futures)
                f.get();
        }
    }

    // A termination signal aborts the whole sweep (after the join, so
    // in-flight points finished journaling): no table, no ERR cells —
    // the guard reports the clean shutdown and the exit code.
    if (interrupted.load(std::memory_order_relaxed) || pendingSignal()) {
        const int sig = pendingSignal();
        throw InterruptedError(sig ? sig : SIGINT);
    }

    obs::ScopedPhase assemblePhase("assemble");

    // Disposition failures in enumeration order, so the report (and
    // the FailFast choice of exception) is identical for any --jobs.
    std::vector<PointFailure> failures;
    std::exception_ptr first;
    for (auto &p : points) {
        if (!p.failure)
            continue;
        failures.push_back(*p.failure);
        if (!first)
            first = p.error;
    }
    if (spec.failurePolicy == SweepFailurePolicy::FailFast && first)
        std::rethrow_exception(first);

    // Timings mirror enumeration order: deterministic key sequence
    // (strategy, cacheBytes, attempts) for any worker count, with
    // only wallNs carrying host timing.
    std::vector<PointTiming> timings;
    timings.reserve(points.size());
    for (const auto &p : points)
        timings.push_back({p.plan.strategy, p.plan.cacheBytes,
                           p.attemptsUsed, p.wallNs});

    for (std::size_t r = 0; r < rows; ++r) {
        table.beginRow();
        table.cell(spec.cacheSizes[r]);
        for (std::size_t c = 0; c < cols; ++c)
            table.cell(cells[r][c]);
    }

    if (spec.onSweepEnd)
        spec.onSweepEnd();
    return SweepResult{std::move(table), std::move(failures),
                       std::move(timings), storeHits, storeMisses};
}

} // namespace pipesim
