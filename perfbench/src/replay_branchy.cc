/**
 * The replay workload: a branchy synthetic program (data-dependent
 * forward branches, few data operations) captured once on the cycle
 * engine and then driven through the replay layers that the figure
 * workloads never touch — trace decode, sync-point scan, exact
 * replay, and the sampled Fig 5b panel with live-points checkpoints
 * written and then read back.  BranchySpec::seed comes from the
 * benchmark's --seed, so a later change can be checked on a
 * held-out input.
 */

#include <cmath>
#include <filesystem>

#include "harness.hh"
#include "obs/metrics.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/experiment.hh"
#include "workloads/synthetic.hh"

namespace perfbench
{

using namespace pipesim;

namespace
{

/** Outer iterations of the full-size program (~1.1M instructions). */
constexpr unsigned fullIterations = 10000;
/** Sampling of the panel: one 300 + 700 window per 20,000 records. */
constexpr unsigned samplePeriod = 20000;

/** The xorshift seed for benchmark seed @p seed (splitmix64; the
 *  generator rejects 0). */
std::uint32_t
branchySeed(std::uint64_t seed)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const auto s = std::uint32_t(z);
    return s ? s : 1u;
}

class ReplayBranchy : public Workload
{
  public:
    explicit ReplayBranchy(const Options &opt) : _opt(opt)
    {
        _spec.iterations = opt.tiny ? 500 : fullIterations;
        _spec.seed = branchySeed(opt.seed);
        _panel.cacheSizes = opt.tiny
                                ? std::vector<unsigned>{128}
                                : std::vector<unsigned>{16, 32, 64, 128,
                                                        256, 512, 1024};
        _panel.mem.accessTime = 6;
        _panel.mem.busWidthBytes = 8;
        _panel.mem.pipelined = false;
        _panel.jobs = 1;
        _panel.failurePolicy = SweepFailurePolicy::CollectAndContinue;
        _panel.engine = SweepEngine::Trace;
        _panel.samplePeriod = samplePeriod;
        _tracePath = opt.workdir + "/branchy.pipetrc";
    }

    std::map<std::string, double>
    setup(Checks &checks) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        _built = workloads::buildBranchyProgram(_spec);
        const double buildMs = 1e3 * secondsSince(t0);

        const auto t1 = std::chrono::steady_clock::now();
        Simulator sim(makeSweepConfig(_panel, "16-16", 128), _built.program);
        replay::TraceCapture capture(sim, "perfbench replay-branchy");
        _captured = sim.run();
        _trace = capture.finish();
        const double captureS = secondsSince(t1);

        const auto ref = workloads::runBranchyReference(_spec);
        checks.expect(
            sim.dataMemory().readWord(_built.accSlot) == ref.acc &&
                sim.dataMemory().readWord(_built.stateSlot) == ref.state,
            "the capture run's accumulator and PRNG state match "
            "runBranchyReference");

        const auto t2 = std::chrono::steady_clock::now();
        replay::writeTrace(_trace, _tracePath);
        const double writeMs = 1e3 * secondsSince(t2);
        return {{"workloads.build_ms", buildMs},
                {"replay.capture_s", captureS},
                {"trace.write_ms", writeMs},
                {"sim.ns_per_cycle",
                 1e9 * captureS / double(_captured.totalCycles)}};
    }

    BodySample
    body(Checks &checks) override
    {
        BodySample s;
        auto &reg = obs::MetricsRegistry::instance();
        const auto t0 = std::chrono::steady_clock::now();

        const replay::Trace trace = replay::readTrace(_tracePath);
        s.layers["trace.read_ms"] = 1e3 * secondsSince(t0);
        checks.expect(trace.sha256 == _trace.sha256 &&
                          trace.records == _trace.records,
                      "the trace reads back as written");
        s.layers["trace.bytes_per_record"] =
            double(std::filesystem::file_size(_tracePath)) /
            double(trace.records.size());

        const auto t1 = std::chrono::steady_clock::now();
        const auto sync = replay::computeSyncPoints(_built.program, trace);
        s.layers["replay.sync_ms"] = 1e3 * secondsSince(t1);
        checks.expect(!sync.empty(), "the trace has sync points");

        // Exact replay at the two configurations the sampled panel is
        // compared against; 16-16:128 is the capture configuration.
        std::map<std::string, SimResult> exact;
        const auto t2 = std::chrono::steady_clock::now();
        for (const char *strategy : {"conv", "16-16"})
            exact[strategy] = replay::replayTrace(
                makeSweepConfig(_panel, strategy, 128), _built.program,
                trace);
        s.simWallS = secondsSince(t2);
        checks.points(exact.size());
        // Replay keeps no CPI stack; every counter it does keep must
        // equal the capture run's.
        bool same = exact["16-16"].totalCycles == _captured.totalCycles &&
                    exact["16-16"].instructions == _captured.instructions;
        for (const auto &[name, v] : exact["16-16"].counters)
            same = same && _captured.counter(name) == v;
        checks.expect(same,
                      "exact replay at 16-16:128 equals the capture run");

        // The sampled panel, creating checkpoints and then restoring
        // from them.
        SweepSpec spec = _panel;
        spec.trace = &trace;
        spec.ckptDir = _opt.workdir + "/ckpt";
        freshDir(spec.ckptDir);
        std::map<std::string, SimResult> sampled;
        double windows = 0;
        auto onPoint = [&](const std::string &strategy, unsigned bytes,
                           const SimResult &r) {
            sampled[strategy + ":" + std::to_string(bytes)] = r;
            const auto w = r.meta.find("sample_windows");
            windows += w == r.meta.end() ? 0.0 : std::stod(w->second);
        };
        reg.resetAll();
        spec.ckptCreate = true;
        const auto t3 = std::chrono::steady_clock::now();
        const SweepResult create = runCacheSweep(spec, _built.program, onPoint);
        const double createS = secondsSince(t3);
        spec.ckptCreate = false;
        const auto t4 = std::chrono::steady_clock::now();
        const SweepResult restore = runCacheSweep(spec, _built.program);
        const double restoreS = secondsSince(t4);
        s.wallS = secondsSince(t0);

        for (const SweepResult *r : {&create, &restore}) {
            checks.points(r->timings.size());
            for (const auto &f : r->failures)
                checks.pointFailed(f.strategy + ":" +
                                   std::to_string(f.cacheBytes) + ": " +
                                   f.message);
            for (const auto &t : r->timings)
                s.pointMs.push_back(double(t.wallNs) / 1e6);
        }
        checks.expect(create.table.toText() == restore.table.toText(),
                      "the checkpoint-restore table equals the "
                      "checkpoint-create table");

        const double points = double(create.timings.size());
        s.layers["replay.sampled_ms_per_point"] = 1e3 * createS / points;
        s.layers["replay.restore_ms_per_point"] = 1e3 * restoreS / points;
        s.layers["ckpt.bytes_written"] =
            double(reg.counter("replay.ckpt.bytes_written").value());
        s.layers["ckpt.bytes_read"] =
            double(reg.counter("replay.ckpt.bytes_read").value());
        notRun(s.layers, {"sweep.parallel_eff", "pool.busy_frac",
                          "pool.queue_depth_peak", "store.put_us",
                          "store.lookup_us", "store.warm_sweep_ms"});

        s.counts = simulatedCounts({exact["conv"], exact["16-16"]});
        s.counts["replay.sampled_windows"] = windows;
        s.simCycles = s.counts["sim.cycles"];
        s.layers["replay.exact_ns_per_cycle"] = 1e9 * s.simWallS / s.simCycles;

        double err = 0.0;
        for (const char *strategy : {"conv", "16-16"}) {
            const auto it = sampled.find(std::string(strategy) + ":128");
            const double want = double(exact[strategy].totalCycles);
            err += it == sampled.end()
                       ? 100.0
                       : 100.0 * std::fabs(double(it->second.totalCycles) -
                                           want) /
                             want;
        }
        s.counts["sampled_cpi_err_pct"] = err / 2.0;
        return s;
    }

    std::map<std::string, std::string>
    context() const override
    {
        return {
            {"program",
             "branchy: " + std::to_string(_spec.blocks) + " blocks x " +
                 std::to_string(_spec.iterations) +
                 " iterations, xorshift seed " + std::to_string(_spec.seed) +
                 ", " + std::to_string(_trace.records.size()) +
                 " dynamic instructions"},
            {"capture", "16-16:128, access time 6, bus 8, non-pipelined"},
            {"panel", "sampled Fig 5b, period " +
                          std::to_string(samplePeriod) + ", warm-up " +
                          std::to_string(_panel.sampleWarmup) +
                          ", measure " +
                          std::to_string(_panel.sampleMeasure)},
        };
    }

  private:
    Options _opt;
    workloads::BranchySpec _spec;
    SweepSpec _panel;
    std::string _tracePath;
    workloads::BranchyProgram _built;
    replay::Trace _trace;
    SimResult _captured;
};

} // namespace

std::unique_ptr<Workload>
makeReplayBranchy(const Options &opt)
{
    return std::make_unique<ReplayBranchy>(opt);
}

} // namespace perfbench
