/**
 * The live-points checkpoint store (replay/checkpoint.hh) and the
 * plan/execute sampled-replay split:
 *
 *  - window planning must deduplicate sparse-sync-point collisions
 *    (the double-measured-window bug) while preserving the tail
 *    clamping semantics;
 *  - machine state must round-trip bit-exactly through
 *    saveState/restoreState at every sync point — the restored
 *    machine's future is indistinguishable from the original's;
 *  - checkpointed and pooled sampled replay must be bit-identical to
 *    the serial path for any job count;
 *  - the PIPECKPT container must reject every corruption, truncation
 *    and cache-key mismatch with a FatalError, in the same spirit as
 *    the PIPETRC fuzzing in test_trace_format.cc.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/state_io.hh"
#include "mem/data_memory.hh"
#include "replay/capture.hh"
#include "replay/checkpoint.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;
using namespace pipesim::replay;

namespace
{

const workloads::Benchmark &
tinyBenchmark()
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.02);
    return bench;
}

const Trace &
tinyTrace()
{
    static const Trace trace = captureTrace(
        SimConfig{}, tinyBenchmark().program, "checkpoint test");
    return trace;
}

/** A scratch directory wiped on construction and destruction. */
struct ScratchDir
{
    explicit ScratchDir(std::string p) : path(std::move(p))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

CheckpointSet
sampleSet(std::size_t windows = 3)
{
    CheckpointSet set;
    set.meta.traceSha256 = std::string(64, 'a');
    set.meta.programSha256 = std::string(64, 'b');
    set.meta.configSha256 = std::string(64, 'c');
    set.meta.samplePeriod = 2000;
    set.meta.sampleWarmup = 300;
    set.meta.sampleMeasure = 700;
    set.meta.traceRecords = 10000;
    set.meta.provenance = "unit test";
    for (std::size_t i = 0; i < windows; ++i) {
        CheckpointWindow w;
        w.index = i;
        w.start = i * 2000;
        w.warmEnd = w.start + 300;
        for (std::size_t k = 0; k < 40 + i * 7; ++k)
            w.payload.push_back(std::uint8_t(k * 31 + i));
        set.windows.push_back(std::move(w));
    }
    return set;
}

ReplayOptions
sampledOptions()
{
    ReplayOptions opt;
    opt.samplePeriod = 2000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    return opt;
}

/** Counters, cycle clock and cursor of @p m as one comparable blob. */
std::vector<std::pair<std::string, std::uint64_t>>
machineFingerprint(Simulator &m)
{
    std::vector<std::pair<std::string, std::uint64_t>> fp;
    fp.emplace_back("~now", m.now());
    fp.emplace_back("~cursor", m.pipeline().nextRecord());
    fp.emplace_back("~retired", m.pipeline().instructionsRetired());
    for (const auto &name : m.stats().counterNames())
        fp.emplace_back(name, m.stats().counterValue(name));
    return fp;
}

} // namespace

// ---------------------------------------------------------------------
// Window planning (satellite: the double-measured-window fix).

TEST(SampleWindowPlanTest, SparseSyncPointsDoNotDuplicateWindows)
{
    // Sync points {0, 50000} with period 20000: targets 20000 and
    // 40000 both round up to the sync point at 50000.  The old loop
    // measured that window twice, double-weighting it in the CPI
    // estimator and double-counting its deltas.
    ReplayOptions opt;
    opt.samplePeriod = 20000;
    opt.sampleWarmup = 300;
    opt.sampleMeasure = 700;
    const std::vector<std::size_t> sync = {0, 50000};
    const auto plan = planSampleWindows(80000, sync, opt);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 300, 1000}));
    EXPECT_EQ(plan[1], (SampleWindow{50000, 50300, 51000}));
}

TEST(SampleWindowPlanTest, StartsAreStrictlyIncreasing)
{
    const auto &trace = tinyTrace();
    const auto sync =
        computeSyncPoints(tinyBenchmark().program, trace);
    for (unsigned period : {1000u, 2000u, 5000u}) {
        ReplayOptions opt;
        opt.samplePeriod = period;
        opt.sampleWarmup = 200;
        opt.sampleMeasure = 500;
        const auto plan =
            planSampleWindows(trace.records.size(), sync, opt);
        ASSERT_FALSE(plan.empty());
        for (std::size_t i = 1; i < plan.size(); ++i)
            EXPECT_LT(plan[i - 1].start, plan[i].start)
                << "period " << period << " window " << i;
    }
}

TEST(SampleWindowPlanTest, TailWindowsClampAndEmptyTailStops)
{
    ReplayOptions opt;
    opt.samplePeriod = 400;
    opt.sampleWarmup = 300;
    opt.sampleMeasure = 100;
    // A window whose warm-up swallows the whole tail measures
    // nothing and ends the plan.
    const std::vector<std::size_t> sync = {0, 999};
    const auto plan = planSampleWindows(1000, sync, opt);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 300, 400}));
}

TEST(SampleWindowPlanTest, SingleWindowWhenPeriodExceedsTrace)
{
    ReplayOptions opt;
    opt.samplePeriod = 1000000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const std::vector<std::size_t> sync = {0, 10, 400};
    const auto plan = planSampleWindows(5000, sync, opt);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 200, 700}));
}

// ---------------------------------------------------------------------
// Machine-state round-trip property.

namespace
{

/**
 * Save a warm machine at a sync point, restore it into a fresh one,
 * run both the same distance, and require bit-identical clocks,
 * cursors and counters.
 */
void
expectRoundTripAt(const SimConfig &cfg, std::size_t syncPoint,
                  const std::string &what)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const std::size_t total = trace.records.size();
    const std::size_t warmTo =
        std::min<std::size_t>(syncPoint + 150, total);
    const std::size_t runTo = std::min<std::size_t>(warmTo + 300, total);

    DataMemory memA;
    memA.loadProgram(program);
    Simulator a(cfg, program, annotationOf(trace, syncPoint), memA);
    a.fetchUnit().reset(trace.records[syncPoint].pc);
    a.runToRecord(warmTo);

    StateWriter w;
    a.saveState(w);
    memA.saveDirtyPages(w);
    const std::vector<std::uint8_t> payload = w.take();

    DataMemory memB;
    memB.loadProgram(program);
    Simulator b(cfg, program, annotationOf(trace, syncPoint), memB);
    StateReader r(payload, what);
    b.restoreState(r);
    memB.restoreDirtyPages(r);
    r.expectEnd();

    // Identical immediately after restore...
    EXPECT_EQ(machineFingerprint(a), machineFingerprint(b)) << what;

    // ...and still identical after running the same span, so every
    // piece of in-flight state (fill requests, queue contents, FPU
    // pipelines, latches) must have survived the round-trip.
    a.runToRecord(runTo);
    b.runToRecord(runTo);
    EXPECT_EQ(machineFingerprint(a), machineFingerprint(b)) << what;
}

} // namespace

TEST(CheckpointRoundTripTest, EverySyncPointEveryStrategy)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const auto sync = computeSyncPoints(program, trace);
    ASSERT_GT(sync.size(), 4u);

    std::vector<SimConfig> configs(3);
    configs[0].fetch = pipeConfigFor("16-16", 128);
    configs[1].fetch = conventionalConfigFor(128, 16);
    configs[2].fetch = tibConfigFor(128);

    // Sub-sample the sync points so the property stays cheap while
    // still covering start, middle and tail of the trace.
    const std::size_t step = std::max<std::size_t>(1, sync.size() / 12);
    for (const SimConfig &cfg : configs) {
        for (std::size_t i = 0; i < sync.size(); i += step) {
            expectRoundTripAt(cfg, sync[i],
                              cfg.fetchName() + " @ sync " +
                                  std::to_string(sync[i]));
        }
    }
}

TEST(CheckpointRoundTripTest, SlowPipelinedMemoryAndDcache)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const auto sync = computeSyncPoints(program, trace);
    ASSERT_GT(sync.size(), 2u);

    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = 6;
    cfg.mem.busWidthBytes = 8;
    cfg.mem.pipelined = true;
    cfg.mem.dcacheBytes = 256;
    const std::size_t mid = sync[sync.size() / 2];
    expectRoundTripAt(cfg, mid, "slow pipelined memory with dcache");
}

// ---------------------------------------------------------------------
// End-to-end: checkpointed sampled replay is bit-identical.

namespace
{

void
expectSameEstimate(const SimResult &a, const SimResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.counters, b.counters) << what;
    EXPECT_EQ(a.meta.at("sample_windows"), b.meta.at("sample_windows"))
        << what;
    EXPECT_EQ(a.meta.at("cpi_estimate"), b.meta.at("cpi_estimate"))
        << what;
    EXPECT_EQ(a.meta.at("cpi_rel_ci95"), b.meta.at("cpi_rel_ci95"))
        << what;
}

} // namespace

TEST(CheckpointedReplayTest, CreateRestoreBitIdenticalAtAnyJobCount)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    ScratchDir dir("ckpt_test_store");
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);

    ReplayOptions serial = sampledOptions();
    const SimResult base = replayTrace(cfg, program, trace, serial);
    EXPECT_EQ(base.meta.at("ckpt_mode"), "off");

    ReplayOptions pooled = sampledOptions();
    pooled.jobs = 8;
    expectSameEstimate(base, replayTrace(cfg, program, trace, pooled),
                       "pooled cold windows");

    ReplayOptions create = sampledOptions();
    create.ckptDir = dir.path;
    create.ckptCreate = true;
    const SimResult created = replayTrace(cfg, program, trace, create);
    EXPECT_EQ(created.meta.at("ckpt_mode"), "create");
    expectSameEstimate(base, created, "checkpoint-create pass");
    EXPECT_TRUE(std::filesystem::exists(
        checkpointPath(dir.path, cfg)));

    for (unsigned jobs : {1u, 8u}) {
        ReplayOptions restore = sampledOptions();
        restore.ckptDir = dir.path;
        restore.jobs = jobs;
        const SimResult restored =
            replayTrace(cfg, program, trace, restore);
        EXPECT_EQ(restored.meta.at("ckpt_mode"), "restore");
        expectSameEstimate(base, restored,
                           "restore at jobs " + std::to_string(jobs));
    }
}

TEST(CheckpointedReplayTest, SingleWindowCiIsNotApplicable)
{
    // One measured window has no CPI spread: the confidence interval
    // must render as "n/a", not a fake 0.
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    ReplayOptions opt;
    opt.samplePeriod = 1000000; // one window at the first sync point
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const SimResult r = replayTrace(SimConfig{}, program, trace, opt);
    EXPECT_EQ(r.meta.at("sample_windows"), "1");
    EXPECT_EQ(r.meta.at("cpi_rel_ci95"), "n/a");

    // Multi-window runs still report a numeric interval.
    const SimResult many =
        replayTrace(SimConfig{}, program, trace, sampledOptions());
    EXPECT_GT(std::stoul(many.meta.at("sample_windows")), 1u);
    EXPECT_NO_THROW(std::stod(many.meta.at("cpi_rel_ci95")));
}

TEST(CheckpointedReplayTest, MismatchedKeyIsFatal)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    ScratchDir dir("ckpt_test_mismatch");
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);

    ReplayOptions create = sampledOptions();
    create.ckptDir = dir.path;
    create.ckptCreate = true;
    replayTrace(cfg, program, trace, create);

    // A different machine config hashes to a different file: missing.
    SimConfig other = cfg;
    other.fetch = pipeConfigFor("16-16", 256);
    ReplayOptions restore = sampledOptions();
    restore.ckptDir = dir.path;
    EXPECT_THROW(replayTrace(other, program, trace, restore),
                 FatalError);

    // Same config but different sampling parameters: the stored key
    // must be rejected, not silently reused.
    ReplayOptions different = restore;
    different.samplePeriod = 3000;
    EXPECT_THROW(replayTrace(cfg, program, trace, different),
                 FatalError);
}

TEST(CheckpointedReplayTest, MissingCheckpointIsFatal)
{
    ReplayOptions opt = sampledOptions();
    opt.ckptDir = "no_such_ckpt_dir";
    EXPECT_THROW(replayTrace(SimConfig{}, tinyBenchmark().program,
                             tinyTrace(), opt),
                 FatalError);
}

// ---------------------------------------------------------------------
// Container format: round-trips and corruption fuzzing.

TEST(CheckpointFormatTest, ConfigHashDistinguishesConfigs)
{
    SimConfig a, b;
    a.fetch = pipeConfigFor("16-16", 128);
    b.fetch = pipeConfigFor("16-16", 256);
    EXPECT_EQ(configSha256(a), configSha256(a));
    EXPECT_NE(configSha256(a), configSha256(b));
    EXPECT_EQ(configSha256(a).size(), 64u);

    SimConfig c = a;
    c.mem.pipelined = !c.mem.pipelined;
    EXPECT_NE(configSha256(a), configSha256(c));
    SimConfig d = a;
    d.cpu.ldqEntries += 1;
    EXPECT_NE(configSha256(a), configSha256(d));

    const std::string path = checkpointPath("store", a);
    EXPECT_EQ(path,
              "store/ckpt-" + configSha256(a).substr(0, 16) +
                  ".pipeckpt");
}

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip)
{
    CheckpointSet set = sampleSet(5);
    const auto bytes = encodeCheckpoint(set);
    EXPECT_FALSE(set.sha256.empty());
    const CheckpointSet back = decodeCheckpoint(bytes, "test");
    EXPECT_EQ(back.meta.traceSha256, set.meta.traceSha256);
    EXPECT_EQ(back.meta.programSha256, set.meta.programSha256);
    EXPECT_EQ(back.meta.configSha256, set.meta.configSha256);
    EXPECT_EQ(back.meta.samplePeriod, set.meta.samplePeriod);
    EXPECT_EQ(back.meta.sampleWarmup, set.meta.sampleWarmup);
    EXPECT_EQ(back.meta.sampleMeasure, set.meta.sampleMeasure);
    EXPECT_EQ(back.meta.traceRecords, set.meta.traceRecords);
    EXPECT_EQ(back.meta.provenance, set.meta.provenance);
    EXPECT_EQ(back.sha256, set.sha256);
    ASSERT_EQ(back.windows.size(), set.windows.size());
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        EXPECT_EQ(back.windows[i].index, set.windows[i].index);
        EXPECT_EQ(back.windows[i].start, set.windows[i].start);
        EXPECT_EQ(back.windows[i].warmEnd, set.windows[i].warmEnd);
        EXPECT_EQ(back.windows[i].payload, set.windows[i].payload);
    }
}

TEST(CheckpointFormatTest, FileRoundTripCreatesDirectories)
{
    ScratchDir dir("ckpt_test_format");
    CheckpointSet set = sampleSet(2);
    const std::string path = dir.path + "/nested/a.pipeckpt";
    writeCheckpoint(set, path);
    const CheckpointSet back = readCheckpoint(path);
    EXPECT_EQ(back.sha256, set.sha256);
    ASSERT_EQ(back.windows.size(), 2u);
    EXPECT_EQ(back.windows[1].payload, set.windows[1].payload);
}

TEST(CheckpointFormatTest, DescribeNamesTheEssentials)
{
    CheckpointSet set = sampleSet(4);
    encodeCheckpoint(set);
    const std::string d = describeCheckpoint(set);
    EXPECT_NE(d.find("4"), std::string::npos);
    EXPECT_NE(d.find(set.meta.provenance), std::string::npos);
    EXPECT_NE(d.find(set.sha256), std::string::npos);
    EXPECT_NE(d.find(set.meta.configSha256), std::string::npos);
}

TEST(CheckpointCorruptionTest, EveryTruncationIsFatal)
{
    CheckpointSet set = sampleSet(2);
    const auto bytes = encodeCheckpoint(set);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + len);
        EXPECT_THROW(decodeCheckpoint(cut, "truncated"), FatalError)
            << "truncated to " << len << " of " << bytes.size();
    }
}

TEST(CheckpointCorruptionTest, EverySingleByteFlipIsFatal)
{
    // The whole-file digest plus the header CRC and per-window CRCs
    // leave no byte whose corruption can decode: every flip must
    // raise FatalError — never a crash, hang, or a silently wrong
    // machine state.
    CheckpointSet set = sampleSet(2);
    const auto bytes = encodeCheckpoint(set);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (const std::uint8_t flip :
             {std::uint8_t(0xff), std::uint8_t(0x01)}) {
            std::vector<std::uint8_t> bad = bytes;
            bad[i] ^= flip;
            EXPECT_THROW(decodeCheckpoint(bad, "flipped"), FatalError)
                << "byte " << i << " xor 0x" << std::hex
                << unsigned(flip);
        }
    }
}

TEST(CheckpointCorruptionTest, GarbageFilesAreFatal)
{
    const std::vector<std::uint8_t> empty;
    EXPECT_THROW(decodeCheckpoint(empty, "empty"), FatalError);

    std::vector<std::uint8_t> noise(300);
    for (std::size_t i = 0; i < noise.size(); ++i)
        noise[i] = std::uint8_t(i * 41 + 7);
    EXPECT_THROW(decodeCheckpoint(noise, "noise"), FatalError);

    std::vector<std::uint8_t> magicOnly = {'P', 'I', 'P', 'E',
                                           'C', 'K', 'P', 'T'};
    EXPECT_THROW(decodeCheckpoint(magicOnly, "magic-only"), FatalError);
}

TEST(CheckpointCorruptionTest, MissingFileIsFatal)
{
    EXPECT_THROW(readCheckpoint("no/such/store.pipeckpt"), FatalError);
}

TEST(CheckpointCorruptionTest, DiagnosticNamesTheFile)
{
    std::vector<std::uint8_t> noise(80, 0xcd);
    try {
        decodeCheckpoint(noise, "my-ckpt-name");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("my-ckpt-name"),
                  std::string::npos);
    }
}

TEST(CheckpointCorruptionTest, CorruptPayloadFailsRestoreCleanly)
{
    // A payload that passes the container CRCs but holds impossible
    // component state (here: a corrupted byte re-checksummed) must
    // surface as FatalError from the state decoder, not UB.
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);

    DataMemory mem;
    mem.loadProgram(program);
    const auto sync = computeSyncPoints(program, trace);
    Simulator m(cfg, program, annotationOf(trace, sync[0]), mem);
    m.fetchUnit().reset(trace.records[sync[0]].pc);
    for (int i = 0; i < 200 && !m.done(); ++i)
        m.step();
    StateWriter w;
    m.saveState(w);
    std::vector<std::uint8_t> payload = w.take();

    // Truncation must never decode.
    for (const std::size_t len :
         {std::size_t(0), payload.size() / 3, payload.size() - 1}) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() + len);
        DataMemory mem2;
        mem2.loadProgram(program);
        Simulator fresh(cfg, program, annotationOf(trace, sync[0]), mem2);
        StateReader r(cut, "truncated payload");
        EXPECT_THROW(fresh.restoreState(r), FatalError)
            << "payload truncated to " << len;
    }
}
