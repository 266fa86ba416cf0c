#include "replay/replay_engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/abort.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "mem/data_memory.hh"
#include "mem/fpu.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "replay/checkpoint.hh"

namespace pipesim::replay
{

// Cancellation note: every replayed machine is a Simulator, whose
// watchdogs — in addition to the simulated-time ones — poll the
// sweep's per-point cancel flag (SimConfig::cancelFlag, throwing
// TimeoutAbort) and the guard's shutdown flag (throwing
// InterruptedError).  Under the pooled window passes those exceptions
// are captured in each window's std::future and rethrown at the
// plan-order collection point, so a deadline or a SIGINT never
// strands a worker mid-window.

namespace
{

void
checkReplayable(const SimConfig &config, const Program &program,
                const Trace &trace)
{
    if (config.fault.enabled())
        fatal("trace replay cannot inject faults: a fault changes the "
              "timing the trace was captured without; use the cycle "
              "engine for fault experiments");
    const std::string hash = programSha256(program);
    if (hash != trace.meta.programSha256)
        fatal("trace was captured from a different program: trace "
              "records program sha256 ", trace.meta.programSha256,
              " but this program hashes to ", hash,
              " (capture provenance: ",
              trace.meta.provenance.empty() ? "none"
                                            : trace.meta.provenance,
              ")");
}

SimResult
replayExact(const SimConfig &config, const Program &program,
            const Trace &trace)
{
    obs::ScopedPhase phase("replay.exact", obs::Scope::Coarse);
    DataMemory dataMem;
    dataMem.loadProgram(program);
    Simulator sim(config, program, annotationOf(trace), dataMem);
    SimResult r = sim.run();
    if (sim.pipeline().nextRecord() < trace.records.size())
        fatal("trace replay halted after ", sim.pipeline().nextRecord(),
              " instructions but the trace holds ",
              trace.records.size(),
              " — the trace does not match this program");
    r.meta["engine"] = "trace-exact";
    r.meta["trace_sha256"] = trace.sha256;
    r.meta["program_sha256"] = trace.meta.programSha256;
    return r;
}

/**
 * What one executed window contributed.  Wall-clock phase times are
 * carried here (instead of added to the profiler in place) so pooled
 * windows never touch the profiler from a worker thread and the
 * attribution is identical for any job count.
 */
struct WindowOutcome
{
    /** The trace ended inside this window's warm-up: nothing was
     *  measured, and no later window can measure anything either. */
    bool warmIncomplete = false;

    std::uint64_t insts = 0;
    Cycle cycles = 0;
    std::map<std::string, std::uint64_t> counterDeltas;

    std::uint64_t warmNs = 0;
    std::uint64_t measureNs = 0;
    std::uint64_t ckptNs = 0;
};

/** Advance @p sim to @p warmEnd (detailed warm-up).  @return false
 *  when the trace ran out first. */
bool
runWarmup(Simulator &sim, std::size_t warmEnd, bool prof,
          WindowOutcome &out)
{
    const std::uint64_t startNs = prof ? obs::profileNowNs() : 0;
    const bool reached = sim.runToRecord(warmEnd);
    if (prof)
        out.warmNs = obs::profileNowNs() - startNs;
    out.warmIncomplete = !reached;
    return reached;
}

/** Run the measured span of @p win on a machine already positioned at
 *  its warm end, filling the outcome's deltas. */
void
runMeasure(Simulator &sim, const SampleWindow &win, bool prof,
           WindowOutcome &out)
{
    const Cycle warmEndCycle = sim.now();
    const StatGroup &stats = sim.stats();
    const auto names = stats.counterNames();
    std::vector<std::uint64_t> before;
    before.reserve(names.size());
    for (const auto &name : names)
        before.push_back(stats.counterValue(name));

    const std::uint64_t startNs = prof ? obs::profileNowNs() : 0;
    sim.runToRecord(win.measureEnd);
    if (prof)
        out.measureNs = obs::profileNowNs() - startNs;

    out.insts = sim.pipeline().nextRecord() - win.warmEnd;
    out.cycles = sim.now() - warmEndCycle;
    if (out.insts == 0)
        return;
    for (std::size_t i = 0; i < names.size(); ++i)
        out.counterDeltas[names[i]] =
            stats.counterValue(names[i]) - before[i];
}

/**
 * The serial pass: windows run in plan order against one shared
 * DataMemory (stale values from an earlier window are harmless — only
 * addresses reach the timing model).  With @p save set this is the
 * checkpoint-create pass: each window's machine state and the backing
 * store's dirty pages are snapshotted at the warm end, right where
 * the restore pass will resume.
 */
std::vector<WindowOutcome>
runSerialWindows(const SimConfig &config, const Program &program,
                 const Trace &trace,
                 const std::vector<SampleWindow> &plan, bool prof,
                 CheckpointSet *save)
{
    auto &registry = obs::MetricsRegistry::instance();
    DataMemory dataMem;
    dataMem.loadProgram(program);

    std::vector<WindowOutcome> outcomes;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const SampleWindow &win = plan[i];
        WindowOutcome out;
        Simulator sim(config, program, annotationOf(trace, win.start),
                      dataMem);
        sim.fetchUnit().reset(trace.records[win.start].pc);
        if (!runWarmup(sim, win.warmEnd, prof, out)) {
            outcomes.push_back(std::move(out));
            break;
        }
        if (save) {
            const std::uint64_t saveStartNs =
                prof ? obs::profileNowNs() : 0;
            StateWriter w;
            sim.saveState(w);
            dataMem.saveDirtyPages(w);
            CheckpointWindow cw;
            cw.index = i;
            cw.start = win.start;
            cw.warmEnd = win.warmEnd;
            cw.payload = w.take();
            if (prof)
                out.ckptNs = obs::profileNowNs() - saveStartNs;
            registry.counter("replay.ckpt.windows_saved").add(1);
            registry.counter("replay.ckpt.bytes_written")
                .add(cw.payload.size());
            save->windows.push_back(std::move(cw));
        }
        runMeasure(sim, win, prof, out);
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

/** The pooled cold pass: each window is an independent job with its
 *  own DataMemory (a shared store would race). */
std::vector<WindowOutcome>
runPooledWindows(const SimConfig &config, const Program &program,
                 const Trace &trace,
                 const std::vector<SampleWindow> &plan, bool prof,
                 unsigned jobs)
{
    std::vector<WindowOutcome> outcomes(plan.size());
    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        futures.push_back(pool.submit([&, i] {
            const SampleWindow &win = plan[i];
            WindowOutcome &out = outcomes[i];
            DataMemory dataMem;
            dataMem.loadProgram(program);
            Simulator sim(config, program,
                          annotationOf(trace, win.start), dataMem);
            sim.fetchUnit().reset(trace.records[win.start].pc);
            if (!runWarmup(sim, win.warmEnd, prof, out))
                return;
            runMeasure(sim, win, prof, out);
        }));
    }
    // Collect in plan order so the first failing window's exception
    // surfaces deterministically, exactly as the serial pass would
    // have thrown it (the pool already fault-isolates each job).
    for (auto &f : futures)
        f.get();
    return outcomes;
}

/** Validate that @p set was created for exactly this (trace, program,
 *  config, sampling plan) tuple. */
void
checkCheckpointUsable(const CheckpointSet &set, const Trace &trace,
                      const std::string &configHash,
                      const ReplayOptions &opt,
                      const std::vector<SampleWindow> &plan,
                      const std::string &path)
{
    const auto reject = [&](auto &&...what) {
        fatal("checkpoint ", path, ": ",
              std::forward<decltype(what)>(what)...,
              "; re-create it with --ckpt-create");
    };
    if (set.meta.traceSha256 != trace.sha256)
        reject("created from a different trace (checkpoint has ",
               set.meta.traceSha256, ", this trace is ", trace.sha256,
               ")");
    if (set.meta.programSha256 != trace.meta.programSha256)
        reject("created from a different program image");
    if (set.meta.configSha256 != configHash)
        reject("created for a different machine configuration "
               "(checkpoint has ", set.meta.configSha256,
               ", this config hashes to ", configHash, ")");
    if (set.meta.samplePeriod != opt.samplePeriod ||
        set.meta.sampleWarmup != opt.sampleWarmup ||
        set.meta.sampleMeasure != opt.sampleMeasure)
        reject("created with sampling ", set.meta.samplePeriod, "/",
               set.meta.sampleWarmup, "/", set.meta.sampleMeasure,
               " (period/warmup/measure) but this run asks for ",
               opt.samplePeriod, "/", opt.sampleWarmup, "/",
               opt.sampleMeasure);
    if (set.meta.traceRecords != trace.records.size())
        reject("records a ", set.meta.traceRecords,
               "-record trace but this trace holds ",
               trace.records.size());
    if (set.windows.size() > plan.size())
        reject("holds ", set.windows.size(),
               " windows but the plan has only ", plan.size());
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        const CheckpointWindow &cw = set.windows[i];
        if (cw.index != i || cw.start != plan[i].start ||
            cw.warmEnd != plan[i].warmEnd)
            reject("window ", i, " covers records [", cw.start, ", ",
                   cw.warmEnd, ") but the plan expects [",
                   plan[i].start, ", ", plan[i].warmEnd, ")");
    }
}

/**
 * The checkpointed pass: restore each window's warm state from @p set
 * and run only its measured span.  A window beyond the stored count
 * means the creator's warm-up ran off the trace end there, so it (and
 * everything after it) contributes nothing — matching the serial
 * pass's early stop.
 */
std::vector<WindowOutcome>
runCheckpointedWindows(const SimConfig &config, const Program &program,
                       const Trace &trace,
                       const std::vector<SampleWindow> &plan, bool prof,
                       unsigned jobs, const CheckpointSet &set)
{
    auto &registry = obs::MetricsRegistry::instance();
    std::vector<WindowOutcome> outcomes(plan.size());

    const auto runOne = [&](std::size_t i) {
        const SampleWindow &win = plan[i];
        WindowOutcome &out = outcomes[i];
        if (i >= set.windows.size()) {
            out.warmIncomplete = true;
            return;
        }
        const CheckpointWindow &cw = set.windows[i];
        DataMemory dataMem;
        dataMem.loadProgram(program);
        Simulator sim(config, program, annotationOf(trace, win.start),
                      dataMem);
        const std::uint64_t restoreStartNs =
            prof ? obs::profileNowNs() : 0;
        StateReader r(cw.payload,
                      "checkpoint " + set.sha256.substr(0, 16) +
                          " window " + std::to_string(i));
        sim.restoreState(r);
        dataMem.restoreDirtyPages(r);
        r.expectEnd();
        if (prof)
            out.ckptNs = obs::profileNowNs() - restoreStartNs;
        registry.counter("replay.ckpt.windows_restored").add(1);
        registry.counter("replay.ckpt.bytes_read")
            .add(cw.payload.size());
        runMeasure(sim, win, prof, out);
    };

    if (jobs <= 1) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            runOne(i);
        return outcomes;
    }
    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        futures.push_back(pool.submit([&runOne, i] { runOne(i); }));
    for (auto &f : futures)
        f.get();
    return outcomes;
}

SimResult
replaySampled(const SimConfig &config, const Program &program,
              const Trace &trace, const ReplayOptions &opt)
{
    if (opt.sampleMeasure == 0)
        fatal("trace replay: sampleMeasure must be nonzero");
    if (std::uint64_t(opt.sampleWarmup) + opt.sampleMeasure >
        opt.samplePeriod)
        fatal("trace replay: samplePeriod (", opt.samplePeriod,
              ") must cover warmup (", opt.sampleWarmup,
              ") + measure (", opt.sampleMeasure, ")");

    obs::ScopedPhase samplePhase("replay.sampled", obs::Scope::Coarse);
    const std::size_t total = trace.records.size();
    const std::vector<std::size_t> syncPoints =
        computeSyncPoints(program, trace);
    const std::vector<SampleWindow> plan =
        planSampleWindows(total, syncPoints, opt);

    // Warm-up vs measurement attribution across all windows (the
    // paper's sampling cost model: warm-up is pure overhead).  The
    // clock is only read when the profiler is attached.
    const bool prof = obs::Profiler::enabled();
    obs::CachedPhase warmPhase, measurePhase, ckptPhase;

    const bool useCkpt = !opt.ckptDir.empty();
    std::string ckptMode = "off";
    if (useCkpt) {
        // Touch the checkpoint metrics before any window runs so the
        // exported key set is identical for every mode and job count
        // (the key-set contract, obs/metrics.hh).
        auto &registry = obs::MetricsRegistry::instance();
        registry.counter("replay.ckpt.windows_saved");
        registry.counter("replay.ckpt.windows_restored");
        registry.counter("replay.ckpt.bytes_written");
        registry.counter("replay.ckpt.bytes_read");
        ckptMode = opt.ckptCreate ? "create" : "restore";
    }
    if (prof) {
        warmPhase = obs::CachedPhase("window.warmup");
        measurePhase = obs::CachedPhase("window.measure");
        if (useCkpt)
            ckptPhase = obs::CachedPhase(opt.ckptCreate
                                             ? "replay.ckpt.save"
                                             : "replay.ckpt.restore");
    }

    std::vector<WindowOutcome> outcomes;
    if (useCkpt && opt.ckptCreate) {
        // The create pass IS the serial sampled run, plus snapshots:
        // every window's state at its warm end is exactly what the
        // serial path computes, which is what makes restored results
        // bit-identical by construction.
        CheckpointSet set;
        set.meta.traceSha256 = trace.sha256;
        set.meta.programSha256 = trace.meta.programSha256;
        set.meta.configSha256 = configSha256(config);
        set.meta.samplePeriod = opt.samplePeriod;
        set.meta.sampleWarmup = opt.sampleWarmup;
        set.meta.sampleMeasure = opt.sampleMeasure;
        set.meta.traceRecords = total;
        set.meta.provenance =
            "pipesim live-points: " + config.fetchName();
        outcomes = runSerialWindows(config, program, trace, plan, prof,
                                    &set);
        writeCheckpoint(set, checkpointPath(opt.ckptDir, config));
    } else if (useCkpt) {
        const std::string path = checkpointPath(opt.ckptDir, config);
        const CheckpointSet set = readCheckpoint(path);
        checkCheckpointUsable(set, trace, configSha256(config), opt,
                              plan, path);
        outcomes = runCheckpointedWindows(config, program, trace, plan,
                                          prof, resolveJobCount(opt.jobs),
                                          set);
    } else if (opt.jobs == 1) {
        outcomes = runSerialWindows(config, program, trace, plan, prof,
                                    nullptr);
    } else {
        outcomes = runPooledWindows(config, program, trace, plan, prof,
                                    resolveJobCount(opt.jobs));
    }

    // Accumulate in plan order: every execution strategy feeds the
    // estimator the same sequence, so the result is bit-identical for
    // any job count and checkpoint mode.
    std::map<std::string, std::uint64_t> measuredCounters;
    std::vector<double> windowCpis;
    std::uint64_t measuredInsts = 0;
    Cycle measuredCycles = 0;
    for (const WindowOutcome &out : outcomes) {
        if (prof) {
            warmPhase.add(out.warmNs);
            measurePhase.add(out.measureNs);
            if (useCkpt)
                ckptPhase.add(out.ckptNs);
        }
        if (out.warmIncomplete)
            break; // trace (and program) ended inside the warm-up
        if (out.insts == 0)
            continue;
        measuredInsts += out.insts;
        measuredCycles += out.cycles;
        windowCpis.push_back(double(out.cycles) / double(out.insts));
        for (const auto &[name, delta] : out.counterDeltas)
            measuredCounters[name] += delta;
    }

    if (measuredInsts == 0)
        fatal("trace replay: sampling produced no measured "
              "instructions (trace of ", total,
              " records, period ", opt.samplePeriod, ")");

    // Ratio estimator for the point value; the CI comes from the
    // spread of the per-window CPIs (CLT over systematic windows).
    const double cpi = double(measuredCycles) / double(measuredInsts);
    std::string relCi = "n/a"; // a single window has no spread
    if (windowCpis.size() > 1) {
        double mean = 0.0;
        for (double c : windowCpis)
            mean += c;
        mean /= double(windowCpis.size());
        double var = 0.0;
        for (double c : windowCpis)
            var += (c - mean) * (c - mean);
        var /= double(windowCpis.size() - 1);
        relCi = std::to_string(
            1.96 * std::sqrt(var / double(windowCpis.size())) / mean);
    }

    SimResult r;
    r.totalCycles = Cycle(std::llround(cpi * double(total)));
    r.instructions = total;
    r.counters = std::move(measuredCounters);
    r.meta["engine"] = "trace-sampled";
    r.meta["trace_sha256"] = trace.sha256;
    r.meta["program_sha256"] = trace.meta.programSha256;
    r.meta["sample_period"] = std::to_string(opt.samplePeriod);
    r.meta["sample_warmup"] = std::to_string(opt.sampleWarmup);
    r.meta["sample_measure"] = std::to_string(opt.sampleMeasure);
    r.meta["sample_windows"] = std::to_string(windowCpis.size());
    r.meta["sampled_instructions"] = std::to_string(measuredInsts);
    r.meta["cpi_estimate"] = std::to_string(cpi);
    r.meta["cpi_rel_ci95"] = relCi;
    r.meta["ckpt_mode"] = ckptMode;
    // Counters sum only the measured windows; scale by
    // instructions/sampled_instructions for whole-run estimates.
    r.meta["counters_scope"] = "measured_windows";
    return r;
}

} // namespace

std::vector<std::size_t>
computeSyncPoints(const Program &program, const Trace &trace)
{
    obs::ScopedPhase phase("replay.sync_scan", obs::Scope::Coarse);
    // The scan touches every trace record but the program's static
    // footprint is small, so decode each pc once and replay the scan
    // from the cache — this is what keeps sampled replay fast on
    // multi-million-instruction traces.
    struct PcInfo
    {
        bool known = false;
        std::int8_t ldqPops = 0;
        bool isLoad = false, pushesSdq = false, isStore = false;
        std::uint8_t count = 0;
    };
    std::vector<PcInfo> decoded; // flat, indexed by pc / parcelBytes

    std::vector<std::size_t> points;
    std::int64_t ldqBalance = 0; // loads issued - r7 source reads
    std::int64_t sdqBalance = 0; // r7 dest writes - store addresses
    std::array<std::int64_t, unsigned(FpuOp::NumOps)> fpuBalance{};
    unsigned branchShadow = 0; // records left in a taken pbr's shadow
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const bool fpuIdle =
            std::all_of(fpuBalance.begin(), fpuBalance.end(),
                        [](std::int64_t b) { return b == 0; });
        if (ldqBalance == 0 && sdqBalance == 0 && fpuIdle &&
            branchShadow == 0)
            points.push_back(i);
        const TraceRecord &rec = trace.records[i];
        const std::size_t slot = rec.pc / parcelBytes;
        if (slot >= decoded.size())
            decoded.resize(slot + 1);
        if (!decoded[slot].known) {
            const auto di = program.decodeAt(rec.pc);
            if (!di)
                fatal("trace record #", i, " names pc 0x", std::hex,
                      rec.pc, std::dec,
                      " which is not a decodable instruction in this "
                      "program");
            decoded[slot] = PcInfo{true, std::int8_t(di->ldqPops()),
                                   di->isLoad(), di->pushesSdq(),
                                   di->isStore(), di->count};
        }
        const PcInfo &inst = decoded[slot];
        ldqBalance -= inst.ldqPops;
        if (inst.isLoad)
            ++ldqBalance;
        if (inst.pushesSdq)
            ++sdqBalance;
        if (inst.isStore)
            --sdqBalance;
        if (rec.hasMemAddr && FpuDevice::contains(rec.memAddr)) {
            for (unsigned k = 0; k < unsigned(FpuOp::NumOps); ++k) {
                const auto op = FpuOp(k);
                if (rec.memIsStore && rec.memAddr == FpuDevice::opB(op))
                    ++fpuBalance[k];
                if (!rec.memIsStore &&
                    rec.memAddr == FpuDevice::opResult(op))
                    --fpuBalance[k];
            }
        }
        if (branchShadow > 0)
            --branchShadow;
        if (rec.isPbr && rec.branchTaken)
            branchShadow = std::max(branchShadow, unsigned(inst.count));
    }
    return points;
}

std::vector<SampleWindow>
planSampleWindows(std::size_t totalRecords,
                  const std::vector<std::size_t> &syncPoints,
                  const ReplayOptions &opt)
{
    std::vector<SampleWindow> plan;
    for (std::size_t k = 0;; ++k) {
        const std::size_t target = k * std::size_t(opt.samplePeriod);
        if (target >= totalRecords)
            break;
        const auto it = std::lower_bound(syncPoints.begin(),
                                         syncPoints.end(), target);
        if (it == syncPoints.end())
            break;
        const std::size_t start = *it;
        // Sparse sync points can round consecutive period targets up
        // to the same point; a duplicate window would be measured
        // twice, double-weighting it in the CPI estimator and
        // double-counting its deltas.
        if (!plan.empty() && plan.back().start == start)
            continue;
        const std::size_t warmEnd =
            std::min<std::size_t>(start + opt.sampleWarmup, totalRecords);
        const std::size_t measureEnd = std::min<std::size_t>(
            warmEnd + opt.sampleMeasure, totalRecords);
        if (measureEnd <= warmEnd)
            break; // nothing left to measure in the tail
        plan.push_back(SampleWindow{start, warmEnd, measureEnd});
    }
    return plan;
}

Annotation
annotationOf(const Trace &trace, std::size_t first)
{
    return Annotation{trace.records, first, trace.meta.provenance};
}

SimResult
replayTrace(const SimConfig &config, const Program &program,
            const Trace &trace, const ReplayOptions &options)
{
    checkReplayable(config, program, trace);
    if (trace.records.empty())
        fatal("trace replay: the trace holds no records");
    if (options.samplePeriod == 0)
        return replayExact(config, program, trace);
    return replaySampled(config, program, trace, options);
}

} // namespace pipesim::replay
