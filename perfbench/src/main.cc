/**
 * pipesim benchmark runner: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --golden <results/bench_full.txt> --workdir <dir>
 *             [--tiny] [--workers <n>]
 *
 * A run sets the workload up and warms it up untimed, sets it up
 * again several times (setup_s is the median), then repeats the body
 * for about --seconds and reports medians.  With --trace 1 it then sets up and
 * runs the body once more with the host profiler attached; the prof.*
 * metrics come from that run alone.  The result is one JSON line on
 * stdout with every metric as a name-to-value pair (see run.py, which
 * selects the metrics BENCHMARK.json names and gives them its units).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/log.hh"
#include "harness.hh"
#include "obs/bench_json.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sim/cli.hh"
#include "sim/guard.hh"

using namespace pipesim;
using namespace perfbench;

namespace
{

/** Set-ups per run (setup_s is their median): at least this many,
 *  and more until a second has gone. */
constexpr unsigned minSetupReps = 5;

/** Median of each key over @p maps. */
std::map<std::string, double>
medians(const std::vector<std::map<std::string, double>> &maps)
{
    std::map<std::string, std::vector<double>> byKey;
    for (const auto &m : maps)
        for (const auto &[k, v] : m)
            byKey[k].push_back(v);
    std::map<std::string, double> out;
    for (auto &[k, vs] : byKey)
        out[k] = median(std::move(vs));
    return out;
}

/**
 * The highest percentile with at least ten points beyond it: the
 * 11th-largest value (the largest when there are ten or fewer).
 */
double
tail(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0.0;
    return v.size() > 10 ? v[v.size() - 11] : v.back();
}

/** Profiler-derived metrics of the traced run. */
std::map<std::string, double>
profileMetrics(const std::vector<obs::Profiler::Phase> &phases)
{
    // Phases merge by leaf name, except the four per-cycle phases
    // under sim.run, which count one event per simulated cycle.
    std::map<std::string, double> ns, count;
    for (const auto &p : phases) {
        std::string key = p.path.substr(p.path.rfind('/') + 1);
        if (p.path.ends_with("sim.run/" + key))
            key = "sim.run/" + key;
        ns[key] += double(p.ns);
        count[key] += double(p.count);
    }
    const double cycles = count["sim.run/fetch"];
    auto perCycle = [&](const char *phase) {
        return cycles > 0 ? ns[std::string("sim.run/") + phase] / cycles
                          : 0.0;
    };
    const double split = ns["sim.run/fetch"] + ns["sim.run/mem"] +
                         ns["sim.run/pipeline"] + ns["sim.run/other"];
    return {
        {"prof.fetch_ns_per_cycle", perCycle("fetch")},
        {"prof.mem_ns_per_cycle", perCycle("mem")},
        {"prof.pipeline_ns_per_cycle", perCycle("pipeline")},
        {"prof.other_ns_per_cycle", perCycle("other")},
        {"prof.coverage", ns["sim.run"] > 0 ? split / ns["sim.run"] : 0.0},
        {"prof.replay_exact_ms", ns["replay.exact"] / 1e6},
        {"prof.window_warmup_ms", ns["window.warmup"] / 1e6},
        {"prof.window_measure_ms", ns["window.measure"] / 1e6},
    };
}

/** The process's peak resident set, from the library's gauge. */
double
peakRssMb()
{
    obs::updateProcessGauges();
    return double(obs::MetricsRegistry::instance()
                      .gauge("process.max_rss_bytes")
                      .value()) /
           (1024.0 * 1024.0);
}

int
run(int argc, char **argv)
{
    const char *required[] = {"workload", "seed", "seconds", "trace",
                              "golden", "workdir"};
    CliParser cli("pipesim benchmark runner (one workload per run)");
    cli.addOption("workload", "", "fig5-slowmem | fig4-fastmem-par | "
                                  "replay-branchy");
    cli.addOption("seed", "", "workload seed");
    cli.addOption("seconds", "", "length of the timed phase");
    cli.addOption("trace", "", "1 = also make the profiled run");
    cli.addOption("golden", "", "golden figure tables "
                                "(results/bench_full.txt)");
    cli.addOption("workdir", "", "scratch directory (emptied)");
    cli.addOption("workers", "0", "figure-sweep workers (0 = workload "
                                  "default)");
    cli.addFlag("tiny", "self-test size: a few points per grid");
    if (!cli.parse(argc, argv))
        return 0;
    for (const char *name : required)
        if (cli.get(name).empty())
            fatal("--", name, " is required");

    Options opt;
    opt.workload = cli.get("workload");
    opt.seed = std::uint64_t(cli.getInt("seed"));
    opt.seconds = cli.getDouble("seconds");
    opt.trace = cli.getInt("trace") != 0;
    opt.golden = cli.get("golden");
    opt.workdir = cli.get("workdir");
    opt.workers = unsigned(cli.getInt("workers"));
    opt.tiny = cli.getFlag("tiny");
    freshDir(opt.workdir);

    std::unique_ptr<Workload> wl;
    if (opt.workload == "fig5-slowmem" || opt.workload == "fig4-fastmem-par")
        wl = makeFigureWorkload(opt);
    else if (opt.workload == "replay-branchy")
        wl = makeReplayBranchy(opt);
    else
        fatal("unknown --workload '", opt.workload, "'");

    // Untimed set-up and warm-up, so that neither the timed set-ups
    // nor the timed bodies pay for a cold process.
    Checks checks;
    wl->setup(checks);
    wl->warmUp(checks);

    std::vector<double> setupS;
    std::vector<std::map<std::string, double>> setupLayers;
    double setupSpent = 0.0;
    while (setupS.size() < minSetupReps || setupSpent < 1.0) {
        const auto t0 = std::chrono::steady_clock::now();
        setupLayers.push_back(wl->setup(checks));
        setupS.push_back(secondsSince(t0));
        setupSpent += setupS.back();
    }

    // Repetitions while the next one ends nearer to --seconds than
    // stopping now would (at least one).
    std::vector<BodySample> timed;
    double spent = 0.0;
    do {
        timed.push_back(wl->body(checks));
        spent += timed.back().wallS;
    } while (spent + 0.5 * spent / double(timed.size()) <= opt.seconds);
    for (std::size_t i = 1; i < timed.size(); ++i)
        checks.expect(timed[i].counts == timed[0].counts,
                      "simulated counts repeat exactly (repetition " +
                          std::to_string(i) + ")");

    // The simulation rate is all simulated cycles of the timed phase
    // over all the host time they took: on replay-branchy that time is
    // only the exact legs, a fraction of each repetition.
    std::vector<double> wall;
    double simCycles = 0.0, simWallS = 0.0;
    std::vector<std::vector<double>> pointMs;
    std::vector<std::map<std::string, double>> layers;
    for (const auto &s : timed) {
        wall.push_back(s.wallS);
        simCycles += s.simCycles;
        simWallS += s.simWallS;
        pointMs.push_back(s.pointMs);
        layers.push_back(s.layers);
    }
    // Each point's mean over the repetitions, then percentiles over
    // the points.  A long body repeats only a few times, and the mean
    // of a few repetitions follows the host's drifting speed more
    // smoothly than their middle value does.
    std::vector<double> perPoint(pointMs.front().size(), 0.0);
    for (const auto &rep : pointMs)
        for (std::size_t p = 0; p < perPoint.size(); ++p)
            perPoint[p] += rep[p] / double(pointMs.size());

    std::map<std::string, double> e2e = {
        {"setup_s", median(setupS)},
        {"wall_s", median(wall)},
        {"mcycles_per_s", simCycles / 1e6 / simWallS},
        {"point_ms_p50", median(perPoint)},
        {"point_ms_tail", tail(perPoint)},
    };

    std::map<std::string, double> metrics = medians(setupLayers);
    for (const auto &[k, v] : medians(layers))
        metrics[k] = v;
    for (const auto &[k, v] : timed.front().counts)
        metrics[k] = v;

    if (opt.trace) {
        auto &prof = obs::Profiler::instance();
        prof.reset();
        prof.enable();
        wl->setup(checks);
        const BodySample traced = wl->body(checks);
        prof.disable();
        checks.expect(traced.counts == timed.front().counts,
                      "simulated counts are unchanged under the profiler");
        for (const auto &[k, v] : profileMetrics(prof.snapshot()))
            metrics[k] = v;
        metrics["prof.overhead_frac"] = traced.wallS / e2e["wall_s"] - 1.0;
    }
    e2e["peak_rss_mb"] = peakRssMb();
    metrics.insert(e2e.begin(), e2e.end());
    metrics["fail_frac"] =
        double(checks.failed()) / double(checks.attempted());

    const auto host = obs::hostInfo();
    obs::JsonWriter w(std::cout);
    w.beginObject();
    w.key("correct").value(checks.failed() == 0);
    w.key("attempted").value(checks.attempted());
    w.key("failed").value(checks.failed());
    w.key("metrics").beginObject();
    for (const auto &[k, v] : metrics)
        w.key(k).value(v);
    w.endObject();
    w.key("context").beginObject();
    w.key("workload").value(opt.workload);
    w.key("seed").value(opt.seed);
    w.key("nproc").value(hostCpus());
    w.key("compiler").value(host.at("compiler"));
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("git_rev").value(obs::gitRevision());
    w.key("caches").value("empty at the start of every simulated point");
    w.key("timed_repetitions").value(std::uint64_t(timed.size()));
    w.key("setup_repetitions").value(std::uint64_t(setupS.size()));
    char tailNote[96];
    if (perPoint.size() > 10)
        std::snprintf(tailNote, sizeof(tailNote),
                      "p%.1f of %zu points (10 beyond it)",
                      100.0 * double(perPoint.size() - 10) /
                          double(perPoint.size()),
                      perPoint.size());
    else
        std::snprintf(tailNote, sizeof(tailNote), "max of %zu points",
                      perPoint.size());
    w.key("point_ms_tail").value(tailNote);
    for (const auto &[k, v] : wl->context())
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    std::cout << "\n";
    std::filesystem::remove_all(opt.workdir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuardedMain([&] { return run(argc, argv); });
}
