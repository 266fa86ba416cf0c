/**
 * The two figure workloads: the paper's Fig 5 grid (access time 6)
 * on one worker, and its Fig 4 grid (access time 1) on up to four
 * workers with a cold and a warm pass through a fresh result store.
 *
 * Both sweep the Livermore benchmark at scale 1.0 on the cycle
 * engine, bus widths 4 and 8, five strategies by seven cache sizes
 * (66 valid points).  Every point starts with empty caches, as every
 * kernel does in the paper.  Checks: each point's data memory
 * against the host reference for all 14 kernels, each panel against
 * its section of results/bench_full.txt, and (Fig 4) the warm pass.
 * A point only saves the pages it wrote; the reference check runs
 * after the body's timing has stopped, so no timing includes it.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/log.hh"
#include "common/state_io.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "sim/experiment.hh"
#include "store/result_store.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

namespace perfbench
{

using namespace pipesim;

namespace
{

/** A table's header tokens plus its rows' tokens by first cell. */
struct ParsedTable
{
    std::vector<std::string> header;
    std::map<std::string, std::vector<std::string>> rows;
};

std::vector<std::string>
tokens(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> out;
    for (std::string t; is >> t;)
        out.push_back(t);
    return out;
}

ParsedTable
parseTable(const std::string &text)
{
    ParsedTable t;
    std::istringstream is(text);
    std::string line;
    for (unsigned n = 0; std::getline(is, line); ++n) {
        auto cells = tokens(line);
        if (n == 0)
            t.header = std::move(cells);
        else if (n > 1 && !cells.empty()) // n == 1: the rule line
            t.rows[cells.front()] = std::move(cells);
    }
    return t;
}

/**
 * The panels of one figure's section of the golden results file,
 * by title ("Figure 5a: bus = 4 bytes"), as the table text a bench
 * prints under the "== title ==" line.
 */
std::map<std::string, std::string>
readGolden(const std::string &path, const std::string &section)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot read golden tables '", path, "'");
    std::map<std::string, std::string> panels;
    bool inSection = false;
    std::string title, line;
    while (std::getline(f, line)) {
        if (line.rfind("=== ", 0) == 0) {
            inSection = line == "=== " + section + " ===";
            title.clear();
        } else if (!inSection) {
            continue;
        } else if (line.rfind("== ", 0) == 0 && line.size() > 6) {
            title = line.substr(3, line.size() - 6);
        } else if (line.empty()) {
            title.clear();
        } else if (!title.empty()) {
            panels[title] += line + "\n";
        }
    }
    if (panels.empty())
        fatal("golden tables '", path, "' have no section '", section,
              "'");
    return panels;
}

/** Sweep workers: the --workers override, else this workload's. */
unsigned
sweepWorkers(const Options &opt, bool parallel)
{
    if (opt.workers)
        return opt.workers;
    return parallel ? std::min(4u, hostCpus()) : 1u;
}

class FigureSweep : public Workload
{
  public:
    explicit FigureSweep(const Options &opt)
        : _opt(opt), _parallel(opt.workload == "fig4-fastmem-par"),
          _fig(_parallel ? '4' : '5'), _workers(sweepWorkers(opt, _parallel)),
          _golden(readGolden(opt.golden, _parallel ? "fig4_memspeed1"
                                                   : "fig5_memspeed6"))
    {
    }

    std::map<std::string, double>
    setup(Checks &) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        _bench = workloads::buildLivermoreBenchmark(1.0);
        return {{"workloads.build_ms", 1e3 * secondsSince(t0)}};
    }

    BodySample
    body(Checks &checks) override
    {
        BodySample s;
        std::vector<SimResult> all;
        std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
            written; // each point's written data pages, by label
        double pointNs = 0.0, sweepNs = 0.0, busyNs = 0.0, idleNs = 0.0;
        double queuePeak = 0.0, putUs = 0.0, lookupUs = 0.0;
        double warmMs = 0.0;
        std::size_t puts = 0;
        auto &reg = obs::MetricsRegistry::instance();
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned bus : {4u, 8u}) {
            const std::string title = std::string("Figure ") + _fig +
                                      (bus == 4 ? "a" : "b") +
                                      ": bus = " + std::to_string(bus) +
                                      " bytes";
            SweepSpec spec = makeSpec(bus);
            if (_parallel)
                freshDir(spec.storeDir = _opt.workdir + "/store-" +
                                         std::to_string(bus));
            std::map<std::string, SimResult> byPoint;
            spec.postRun = [&](Simulator &sim, const std::string &strategy,
                               unsigned bytes, const SimResult &r) {
                const std::string label =
                    strategy + ":" + std::to_string(bytes);
                StateWriter pages;
                sim.dataMemory().saveDirtyPages(pages);
                written.emplace_back(title + " " + label, pages.take());
                byPoint.emplace(label, r);
            };

            reg.resetAll();
            const auto c0 = std::chrono::steady_clock::now();
            const SweepResult cold = runCacheSweep(spec, _bench.program);
            const double coldS = secondsSince(c0);
            s.simWallS += coldS;
            sweepNs += 1e9 * coldS;
            busyNs += double(reg.counter("pool.busy_ns").value());
            idleNs += double(reg.counter("pool.idle_ns").value());
            queuePeak = std::max(
                queuePeak, double(reg.histogram("pool.queue_depth").max()));

            checks.points(cold.timings.size());
            for (const auto &f : cold.failures)
                checks.pointFailed(f.strategy + ":" +
                                   std::to_string(f.cacheBytes) + ": " +
                                   f.message);
            checkGolden(checks, cold.table, title);
            for (const auto &t : cold.timings) {
                s.pointMs.push_back(double(t.wallNs) / 1e6);
                pointNs += double(t.wallNs);
            }
            for (auto &[label, r] : byPoint)
                all.push_back(r);

            if (_parallel) {
                spec.postRun = nullptr;
                const auto w0 = std::chrono::steady_clock::now();
                const SweepResult warm = runCacheSweep(spec, _bench.program);
                warmMs += 1e3 * secondsSince(w0);
                checks.expect(warm.storeHits == cold.timings.size() &&
                                  warm.storeMisses == 0,
                              title + ": the warm pass serves every "
                                      "point from the store");
                checks.expect(warm.table.toText() == cold.table.toText(),
                              title + ": warm table equals cold table");
                timeStore(checks, spec, bus, byPoint, putUs, lookupUs);
                puts += byPoint.size();
            }
        }
        s.wallS = secondsSince(t0);
        for (const auto &[label, pages] : written)
            checks.expect(verifyKernels(pages, label),
                          "data memory matches the host reference at " +
                              label);
        if (!all.empty())
            _programInsts = all.front().instructions;
        s.counts = simulatedCounts(all);
        s.simCycles = s.counts["sim.cycles"];

        s.layers["sim.ns_per_cycle"] =
            s.simCycles > 0 ? pointNs / s.simCycles : 0.0;
        s.layers["sweep.parallel_eff"] = pointNs / (sweepNs * _workers);
        s.layers["pool.busy_frac"] =
            busyNs + idleNs > 0 ? busyNs / (busyNs + idleNs) : 0.0;
        s.layers["pool.queue_depth_peak"] = queuePeak;
        s.layers["store.put_us"] = puts ? putUs / double(puts) : 0.0;
        s.layers["store.lookup_us"] = puts ? lookupUs / double(puts) : 0.0;
        s.layers["store.warm_sweep_ms"] = warmMs;
        notRun(s.layers,
               {"replay.capture_s", "trace.write_ms", "trace.read_ms",
                "trace.bytes_per_record", "replay.sync_ms",
                "replay.sampled_ms_per_point", "replay.restore_ms_per_point",
                "replay.exact_ns_per_cycle", "ckpt.bytes_written",
                "ckpt.bytes_read", "replay.sampled_windows",
                "sampled_cpi_err_pct"});
        return s;
    }

    /** The body over one cache size (10 points): it reaches every
     *  strategy, both buses, the pool and the store in a tenth of the
     *  full grid's time. */
    void
    warmUp(Checks &checks) override
    {
        _warming = true;
        body(checks);
        _warming = false;
    }

    std::map<std::string, std::string>
    context() const override
    {
        return {
            {"grid", std::string("Fig ") + _fig + ": Livermore scale 1.0, "
                     "cycle engine, access time " +
                         (_parallel ? "1" : "6") +
                         ", non-pipelined, bus 4 and 8, 5 strategies x " +
                         std::to_string(cacheSizes().size()) + " sizes"},
            {"workers", std::to_string(_workers)},
            {"paper_reference",
             "dynamic instructions: model " +
                 std::to_string(_programInsts) +
                 ", paper 150575 (Livermore loops 1-14); cycle counts "
                 "are unvalidated against the paper, which gives plots "
                 "only"},
        };
    }

  private:
    std::vector<unsigned>
    cacheSizes() const
    {
        if (_opt.tiny || _warming)
            return {128};
        return {16, 32, 64, 128, 256, 512, 1024};
    }

    SweepSpec
    makeSpec(unsigned bus) const
    {
        SweepSpec spec;
        spec.cacheSizes = cacheSizes();
        spec.mem.accessTime = _parallel ? 1 : 6;
        spec.mem.busWidthBytes = bus;
        spec.mem.pipelined = false;
        spec.jobs = _workers;
        spec.failurePolicy = SweepFailurePolicy::CollectAndContinue;
        return spec;
    }

    /** The memory image of a point that wrote @p pages, against the
     *  host reference for every kernel. */
    bool
    verifyKernels(const std::vector<std::uint8_t> &pages,
                  const std::string &label) const
    {
        DataMemory mem;
        mem.loadProgram(_bench.program);
        StateReader in(pages, label);
        mem.restoreDirtyPages(in);
        bool ok = true;
        for (std::size_t k = 0; k < _bench.kernels.size(); ++k) {
            std::string diag;
            if (!workloads::verifyAgainstReference(
                    mem, _bench.kernels[k],
                    _bench.codeInfo[k], &diag)) {
                std::cerr << "perfbench: " << label << ": " << diag << "\n";
                ok = false;
            }
        }
        return ok;
    }

    /** A panel equals its golden table: byte for byte on the full
     *  grid, cell for cell on the rows a smaller grid sweeps. */
    void
    checkGolden(Checks &checks, const Table &table,
                const std::string &title) const
    {
        const auto it = _golden.find(title);
        const std::string golden = it == _golden.end() ? "" : it->second;
        const std::string text = table.toText();
        bool ok;
        if (!_opt.tiny && !_warming) {
            ok = text == golden;
        } else {
            const ParsedTable got = parseTable(text);
            const ParsedTable want = parseTable(golden);
            ok = got.header == want.header;
            for (const auto &[size, cells] : got.rows) {
                const auto row = want.rows.find(size);
                ok = ok && row != want.rows.end() && row->second == cells;
            }
        }
        if (!checks.expect(ok, title + " matches results/bench_full.txt"))
            std::cerr << "got:\n" << text << "want:\n" << golden;
    }

    /** Put every point's result into a fresh store, then look each
     *  one up, timing both calls from outside. */
    void
    timeStore(Checks &checks, const SweepSpec &spec, unsigned bus,
              const std::map<std::string, SimResult> &byPoint,
              double &putUs, double &lookupUs) const
    {
        const std::string dir =
            _opt.workdir + "/store-direct-" + std::to_string(bus);
        freshDir(dir);
        const store::ResultKeyParams keys =
            sweepKeyParams(spec, _bench.program);
        const std::vector<SweepPointPlan> plans =
            planSweepPoints(spec, &keys);
        store::ResultStore st(dir);
        for (const auto &p : plans) {
            const std::string label =
                p.strategy + ":" + std::to_string(p.cacheBytes);
            const auto r = byPoint.find(label);
            if (r == byPoint.end())
                continue;
            const auto t0 = std::chrono::steady_clock::now();
            st.put(p.storeKey, label, r->second);
            putUs += 1e6 * secondsSince(t0);
        }
        std::size_t served = 0;
        for (const auto &p : plans) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto hit = st.lookup(p.storeKey);
            lookupUs += 1e6 * secondsSince(t0);
            const auto r = byPoint.find(
                p.strategy + ":" + std::to_string(p.cacheBytes));
            served += hit && r != byPoint.end() &&
                      hit->totalCycles == r->second.totalCycles &&
                      hit->counters == r->second.counters;
        }
        checks.expect(served == byPoint.size(),
                      "bus " + std::to_string(bus) +
                          ": every stored result reads back unchanged");
    }

    Options _opt;
    bool _parallel;
    char _fig;
    unsigned _workers;
    std::map<std::string, std::string> _golden;
    workloads::Benchmark _bench;
    std::uint64_t _programInsts = 0;
    bool _warming = false; //!< warmUp(): one cache size only
};

} // namespace

std::unique_ptr<Workload>
makeFigureWorkload(const Options &opt)
{
    return std::make_unique<FigureSweep>(opt);
}

} // namespace perfbench
