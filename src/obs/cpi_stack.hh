/**
 * @file
 * CPI-stack cycle accountant: a ProbeBus listener that attributes
 * every simulated cycle to exactly one cause, so a run's cycle count
 * decomposes into an additive stack (the presentation style of
 * fetch-bottleneck studies: base issue work at the bottom, then each
 * loss category on top).
 *
 * Invariants (asserted by the observability tests):
 *  - issue + fetch_starve + load_data_wait + queue_full + reg_busy +
 *    bus_contention == SimResult::totalCycles (the halt cycle), and
 *  - adding drain gives the total number of simulated ticks.
 *
 * The pipeline classifies each tick (see obs::CycleClass); the
 * accountant refines FetchStarve into BusContention when the memory
 * system reported a blocked demand instruction fetch in the same
 * cycle, attributing starvation to output-bus/memory contention
 * rather than to cache misses alone.
 */

#ifndef PIPESIM_OBS_CPI_STACK_HH
#define PIPESIM_OBS_CPI_STACK_HH

#include <array>
#include <string>

#include "common/stats.hh"
#include "obs/probe.hh"

namespace pipesim::obs
{

class CpiStack
{
  public:
    CpiStack() = default;
    ~CpiStack();

    CpiStack(const CpiStack &) = delete;
    CpiStack &operator=(const CpiStack &) = delete;

    /** Connect to @p bus; the bus must outlive this object. */
    void attach(ProbeBus &bus);

    /** Disconnect from the bus (idempotent). */
    void detach();

    /** Cycles attributed to @p cls so far. */
    std::uint64_t component(CycleClass cls) const;

    /** Overwrite one component (checkpoint restore). */
    void setComponent(CycleClass cls, std::uint64_t cycles)
    {
        _components[unsigned(cls)].set(cycles);
    }

    /** Sum of every component except Drain (== totalCycles). */
    std::uint64_t accountedCycles() const;

    /** Sum of every component including Drain (== ticks simulated). */
    std::uint64_t totalTicks() const;

    /**
     * Register one counter per component under @p prefix
     * ("<prefix>.issue", "<prefix>.fetch_starve", ...), so every
     * binary that dumps a StatGroup or a SimResult reports the stack
     * for free.
     */
    void regStats(StatGroup &stats, const std::string &prefix);

    /** Render the breakdown as an aligned table with percentages. */
    std::string table() const;

  private:
    std::array<Counter, numCycleClasses> _components;
    bool _fetchContended = false;

    ProbeBus *_bus = nullptr;
    ProbePoint<CycleClassEvent>::ListenerId _cycleId = 0;
    ProbePoint<BusContentionEvent>::ListenerId _contentionId = 0;
};

} // namespace pipesim::obs

#endif // PIPESIM_OBS_CPI_STACK_HH
