/**
 * The bit-exact replay oracle shared by the replay and random-kernel
 * tests: a cycle run, its exact trace replay and a replay checkpointed
 * mid-run and restored into a fresh Simulator must agree on the cycle
 * count, the instruction count and every counter.
 */

#ifndef PIPESIM_TESTS_REPLAY_ORACLE_HH
#define PIPESIM_TESTS_REPLAY_ORACLE_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/state_io.hh"
#include "mem/data_memory.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/simulator.hh"

namespace pipesim
{

/** Expect @p got to equal @p want on cycles, instructions and every
 *  counter, naming each counter that differs. */
inline void
expectSameRun(const SimResult &want, const SimResult &got,
              const std::string &what)
{
    EXPECT_EQ(want.totalCycles, got.totalCycles) << what;
    EXPECT_EQ(want.instructions, got.instructions) << what;
    for (const auto &[name, value] : want.counters) {
        EXPECT_TRUE(got.hasCounter(name))
            << what << " missing counter " << name;
        EXPECT_EQ(value, got.counter(name)) << what << " counter " << name;
    }
    for (const auto &[name, value] : got.counters)
        EXPECT_TRUE(want.hasCounter(name))
            << what << " extra counter " << name;
}

/**
 * Capture @p program under @p cfg, then require the exact replay
 * under @p cfg, and a replay saved at the middle sync point, restored
 * into a fresh Simulator and run to the end, to equal the cycle run.
 * The restored machine's registers are scrambled first: under an
 * annotation, values must not reach timing.  @p what names the input
 * (the seed) in every failure message.
 */
inline void
expectReplayOracle(const SimConfig &cfg, const Program &program,
                   const std::string &what)
{
    Simulator sim(cfg, program);
    replay::TraceCapture capture(sim, what);
    const SimResult cycle = sim.run();
    const replay::Trace trace = capture.finish();

    expectSameRun(cycle, replay::replayTrace(cfg, program, trace),
                  what + ": exact replay");

    const std::vector<std::size_t> sync =
        replay::computeSyncPoints(program, trace);
    ASSERT_FALSE(sync.empty()) << what;
    const std::size_t mid = sync[sync.size() / 2];
    const Annotation annotation = replay::annotationOf(trace);

    DataMemory savedMem;
    savedMem.loadProgram(program);
    Simulator saved(cfg, program, annotation, savedMem);
    ASSERT_TRUE(saved.runToRecord(mid)) << what;
    StateWriter w;
    saved.saveState(w);
    savedMem.saveDirtyPages(w);
    const std::vector<std::uint8_t> payload = w.take();

    DataMemory restoredMem;
    restoredMem.loadProgram(program);
    Simulator restored(cfg, program, annotation, restoredMem);
    StateReader r(payload, what);
    restored.restoreState(r);
    restoredMem.restoreDirtyPages(r);
    r.expectEnd();
    RegFile &regs = restored.pipeline().regs();
    for (unsigned reg = 0; reg < isa::queueReg; ++reg)
        regs.write(reg, 0xdeadbeefu ^ reg);
    for (unsigned br = 0; br < isa::numBranchRegs; ++br)
        regs.writeBranch(br, 0xbad0 + 2 * br);
    expectSameRun(cycle, restored.run(),
                  what + ": replay restored at record " +
                      std::to_string(mid));
}

} // namespace pipesim

#endif // PIPESIM_TESTS_REPLAY_ORACLE_HH
