#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

namespace perfbench
{

void
Checks::pointFailed(const std::string &what)
{
    ++_failed;
    std::cerr << "perfbench: point failed: " << what << "\n";
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++_attempted;
    if (!ok) {
        ++_failed;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
    return ok;
}

void
notRun(std::map<std::string, double> &layers,
       std::initializer_list<const char *> names)
{
    for (const char *name : names)
        layers[name] = 0.0;
}

std::map<std::string, double>
simulatedCounts(const std::vector<pipesim::SimResult> &results)
{
    std::uint64_t cycles = 0, insts = 0;
    std::map<std::string, std::uint64_t> sum;
    for (const auto &r : results) {
        cycles += r.totalCycles;
        insts += r.instructions;
        for (const auto &[name, v] : r.counters)
            sum[name] += v;
    }
    auto of = [&](const char *name) { return double(sum[name]); };
    auto share = [&](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    const double c = double(cycles);
    return {
        {"sim.cycles", c},
        {"sim.insts", double(insts)},
        {"cpi.issue_frac", share(of("cpi_stack.issue"), c)},
        {"cpi.fetch_starve_frac", share(of("cpi_stack.fetch_starve"), c)},
        {"cpi.load_data_wait_frac",
         share(of("cpi_stack.load_data_wait"), c)},
        {"fetch.icache_miss_rate",
         share(of("fetch.icache.misses"),
               of("fetch.icache.hits") + of("fetch.icache.misses"))},
        {"fetch.squashed_bytes", of("fetch.squashed_bytes")},
        // PIPE counts prefetched lines, the conventional cache its
        // prefetch fetches.
        {"fetch.prefetch_lines",
         of("fetch.offchip_prefetch_lines") + of("fetch.prefetch_fetches")},
        {"mem.input_bus_busy_frac", share(of("mem.input_bus_busy_cycles"), c)},
        {"mem.output_bus_busy_frac",
         share(of("mem.output_bus_busy_cycles"), c)},
        {"mem.extmem_busy_frac", share(of("mem.extmem.busy_cycles"), c)},
        {"mem.fpu_ops", of("mem.fpu.ops_started")},
    };
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

} // namespace perfbench
