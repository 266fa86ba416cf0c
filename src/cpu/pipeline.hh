/**
 * @file
 * The PIPE processor pipeline: Instruction Fetch, Instruction Decode,
 * Instruction Issue, ALU1, ALU2 (paper section 3).
 *
 * The model is execution driven: instructions really execute (ALU
 * results, loads/stores against the backing store, IEEE-754 floating
 * point through the memory-mapped FPU), so kernel outputs can be
 * validated against host references while cycle counts are measured.
 *
 * Trace replay runs the same pipeline with an Annotation: execute()
 * then takes each instruction's ExecOutcome (effective address, PBR
 * direction and target) from the recorded stream instead of computing
 * it, and everything else runs on whatever values the registers hold.
 * Values reach timing only through those outcomes and HALT
 * (docs/trace_replay.md), so a replay that starts mid-program on
 * stale registers still reproduces the captured run's cycles.
 *
 * Issue semantics (the timing-relevant part):
 *  - one instruction issues per cycle, in order;
 *  - reading r7 pops the Load Data Queue and stalls while it is
 *    empty; writing r7 pushes the Store Data Queue and stalls while
 *    it is full;
 *  - loads push the Load Address Queue (stalling when it, or the LDQ
 *    reservation window, is full); stores push the Store Address
 *    Queue;
 *  - ALU results are fully bypassed (a dependent instruction may
 *    issue the next cycle); the latency is configurable;
 *  - a PBR evaluates its condition in ALU1, i.e. the fetch unit
 *    learns the direction one cycle after the PBR issues.
 *
 * The Load/Store address queues drain to the memory system through a
 * MemClient in program order (conservative memory-conflict handling,
 * which the Livermore recurrences rely on); data returns fill the
 * LDQ strictly in load order.
 */

#ifndef PIPESIM_CPU_PIPELINE_HH
#define PIPESIM_CPU_PIPELINE_HH

#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/fetch_unit.hh"
#include "cpu/regfile.hh"
#include "isa/instruction.hh"
#include "mem/memory_system.hh"
#include "obs/probe.hh"
#include "queue/arch_queues.hh"

namespace pipesim
{

/** Processor-side configuration. */
struct PipelineConfig
{
    std::size_t laqEntries = 8;
    std::size_t ldqEntries = 8;
    std::size_t saqEntries = 8;
    std::size_t sdqEntries = 8;
    unsigned aluLatency = 1; //!< cycles until a result is readable
};

/**
 * A recorded outcome stream for execute() to follow (trace replay):
 * one record per issued instruction, consumed in order from @c next.
 * The records must outlive the pipeline.
 */
struct Annotation
{
    std::span<const isa::CommittedInst> records;
    std::size_t next = 0;        //!< index of the next record to issue
    std::string_view provenance; //!< names the capture in diagnostics
};

class Pipeline
{
  public:
    /**
     * @param annotation When set, execute() takes every instruction's
     *                   ExecOutcome from it (trace replay).
     */
    Pipeline(const PipelineConfig &config, FetchUnit &fetch,
             MemorySystem &mem,
             std::optional<Annotation> annotation = std::nullopt);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Advance one cycle (called after the memory and fetch ticks). */
    void tick(Cycle now);

    /** @return true once HALT has issued. */
    bool halted() const { return _halted; }

    /** @return true if all queues have drained after HALT. */
    bool drained() const;

    std::uint64_t instructionsRetired() const { return _retired.value(); }

    /** Cycle at which HALT issued (valid once halted()). */
    Cycle haltCycle() const { return _haltCycle; }

    /** Index of the next annotation record (0 when unannotated). */
    std::size_t nextRecord() const
    {
        return _annotation ? _annotation->next : 0;
    }

    RegFile &regs() { return _regs; }
    const RegFile &regs() const { return _regs; }
    ArchQueues &queues() { return _queues; }

    /**
     * Attach the probe bus the pipeline emits into: one CycleClass
     * per tick, one RetireEvent per issued instruction, and per-cycle
     * queue occupancy samples.  Pass nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

    /** Write the pipeline state (forensic snapshots). */
    void dumpState(std::ostream &os) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    /** Serialize the pipeline's full state for a checkpoint. */
    void saveState(StateWriter &w) const;

    /**
     * Restore state saved by saveState().  Latched instructions
     * carry their full decoding in the snapshot (a latch may hold a
     * speculatively fetched instruction from outside the code image,
     * squashed before execution, so the program cannot re-decode it).
     */
    void restoreState(StateReader &r);

  private:
    /**
     * MemClient presenting LAQ/SAQ traffic in program order; load
     * values come back through it into the LDQ (stores deliver
     * nothing).
     */
    class DataPort : public MemClient
    {
      public:
        explicit DataPort(Pipeline &owner) : _owner(owner) {}
        std::optional<MemRequest> peek() override;
        void accepted() override;
        void loadValue(const MemRequest &req, Word value) override;

      private:
        Pipeline &_owner;
    };

    /** Why issue stalled this cycle (for statistics). */
    enum class StallReason
    {
        None,
        RegBusy,
        LdqEmpty,
        SdqFull,
        LaqFull,
        LdqReserved,
        SaqFull,
    };

    StallReason issueHazard(const isa::Instruction &inst, Cycle now) const;
    void execute(const isa::FetchedInst &fi, Cycle now);
    Word readSource(unsigned r);
    const isa::CommittedInst &recordFor(const isa::FetchedInst &fi);
    void deliverLoad(Word value);

    std::optional<MemRequest> peekDataOp();
    void dataOpAccepted();

    PipelineConfig _cfg;
    FetchUnit &_fetch;
    MemorySystem &_mem;
    DataPort _dataPort;

    RegFile _regs;
    ArchQueues _queues;

    std::optional<isa::FetchedInst> _idLatch;
    std::optional<isa::FetchedInst> _issueLatch;

    struct Resolve
    {
        bool taken;
        Addr target;
    };
    std::optional<Resolve> _pendingResolve;

    std::optional<Annotation> _annotation;

    /** Outcome of the most recent execute(), for its RetireEvent. */
    isa::ExecOutcome _outcome;

    bool _halted = false;
    Cycle _haltCycle = 0;
    obs::ProbeBus *_probes = nullptr;

    std::uint64_t _memOpSeq = 0;     //!< program order of ld/st ops
    std::uint64_t _loadsAccepted = 0; //!< loads sent to memory
    std::uint64_t _loadsIssued = 0;
    std::uint64_t _loadsDelivered = 0;

    Counter _retired;
    Counter _issueStallRegBusy;
    Counter _issueStallLdqEmpty;
    Counter _issueStallSdqFull;
    Counter _issueStallLaqFull;
    Counter _issueStallLdqReserved;
    Counter _issueStallSaqFull;
    Counter _fetchStarveCycles;
    Counter _loads;
    Counter _stores;
    Counter _pbrTaken;
    Counter _pbrNotTaken;
};

} // namespace pipesim

#endif // PIPESIM_CPU_PIPELINE_HH
