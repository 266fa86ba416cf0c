/**
 * Randomised end-to-end property test: generate random kernel IR
 * (random expression trees over random arrays/scalars/constants,
 * random strides and offsets, recurrences included), compile it with
 * the code generator, execute it on the simulated machine under a
 * randomly drawn configuration, and require bit-exact agreement with
 * the host reference interpreter.  Each seed also drives the replay
 * oracle: exact replay and a mid-run checkpoint restore must equal
 * the cycle run on every counter.
 *
 * This exercises the queue discipline (LDQ FIFO pairing, SAQ/SDQ
 * pairing, FPU result FIFOs, spill correctness), the memory ordering
 * rules and the fetch strategies far beyond what the hand-written
 * kernels cover.  Seeds are fixed, so failures reproduce.
 */

#include <gtest/gtest.h>

#include <random>

#include "common/log.hh"
#include "replay_oracle.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;
using namespace pipesim::codegen;

namespace
{

class KernelGen
{
  public:
    explicit KernelGen(unsigned seed) : _rng(seed) {}

    Kernel
    make()
    {
        Kernel k;
        k.id = 90;
        k.name = "random" + std::to_string(_rng());
        k.tripCount = 2 + _rng() % 9;
        k.outerReps = 1 + _rng() % 3;

        const unsigned num_arrays = 2 + _rng() % 4;
        const unsigned max_off = 4;
        for (unsigned i = 0; i < num_arrays; ++i) {
            // Elements must cover stride*trip + offset for stride <= 2.
            k.arrays.push_back(ArrayDecl{
                "a" + std::to_string(i),
                2 * k.tripCount + max_off + 2});
        }
        const unsigned num_scalars = _rng() % 4;
        for (unsigned i = 0; i < num_scalars; ++i) {
            k.scalars.push_back(ScalarDecl{
                "s" + std::to_string(i),
                0.01f + 0.2f * float(_rng() % 8),
                (_rng() % 2) == 0});
        }

        const unsigned num_stmts = 1 + _rng() % 4;
        for (unsigned i = 0; i < num_stmts; ++i)
            k.body.push_back(makeStatement(k));
        return k;
    }

    unsigned
    pick(unsigned n)
    {
        return _rng() % n;
    }

  private:
    Statement
    makeStatement(const Kernel &k)
    {
        // Mostly array targets; occasional scalar target when one
        // exists.
        const unsigned depth = 1 + pick(4);
        FExprPtr value = makeExpr(k, depth);
        if (!k.scalars.empty() && pick(5) == 0)
            return assignScalar(k.scalars[pick(unsigned(
                                    k.scalars.size()))].name,
                                value);
        return assign(randomRef(k), value);
    }

    ArrayRef
    randomRef(const Kernel &k)
    {
        ArrayRef r;
        r.array = k.arrays[pick(unsigned(k.arrays.size()))].name;
        r.stride = 1 + pick(2);
        r.offset = int(pick(5));
        return r;
    }

    FExprPtr
    makeExpr(const Kernel &k, unsigned depth)
    {
        if (depth == 0) {
            switch (pick(3)) {
              case 0:
                if (!k.scalars.empty())
                    return scalar(k.scalars[pick(unsigned(
                                      k.scalars.size()))].name);
                [[fallthrough]];
              case 1:
                return cnst(0.125f * float(1 + pick(8)));
              default: {
                const ArrayRef r = const_cast<KernelGen *>(this)
                                       ->randomRef(k);
                return ref(r.array, r.stride, r.offset);
              }
            }
        }
        FExprPtr l = makeExpr(k, depth - 1);
        FExprPtr r = makeExpr(k, pick(depth));
        // Avoid division (quotients can overflow to inf across
        // outer reps and still match, but keep values tame).
        switch (pick(3)) {
          case 0: return add(l, r);
          case 1: return sub(l, r);
          default: return mul(l, r);
        }
    }

    std::mt19937 _rng;
};

SimConfig
randomConfig(std::mt19937 &rng, isa::FormatMode mode)
{
    SimConfig cfg;
    const char *strategies[] = {"conv", "8-8", "16-16", "16-32",
                                "32-32"};
    const std::string strategy = strategies[rng() % 5];
    const unsigned sizes[] = {16, 32, 64, 128, 256};
    unsigned cache = sizes[rng() % 5];
    if (strategy == "conv") {
        // A single-frame conventional cache cannot hold compact
        // instructions straddling its only line.
        if (mode == isa::FormatMode::Compact)
            cache = std::max(cache, 32u);
        cfg.fetch = conventionalConfigFor(cache, 16);
    } else {
        const unsigned line = pipeConfigFor(strategy, 1024).lineBytes;
        cache = std::max(cache, line);
        cfg.fetch = pipeConfigFor(strategy, cache);
        cfg.fetch.offchipPolicy = (rng() % 2) == 0
                                      ? OffchipPolicy::TruePrefetch
                                      : OffchipPolicy::GuaranteedOnly;
    }
    const unsigned times[] = {1, 2, 3, 6};
    cfg.mem.accessTime = times[rng() % 4];
    cfg.mem.busWidthBytes = (rng() % 2) ? 4 : 8;
    cfg.mem.pipelined = (rng() % 2) == 0;
    cfg.mem.instructionPriority = (rng() % 2) == 0;
    // A third of the configs add the on-chip data cache extension.
    if (rng() % 3 == 0)
        cfg.mem.dcacheBytes = 64u << (rng() % 4);
    cfg.progressWindow = 200000;
    return cfg;
}

} // namespace

class RandomKernel : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomKernel, MatchesReferenceUnderRandomConfig)
{
    const unsigned seed = GetParam();
    KernelGen gen(seed);
    const Kernel kernel = gen.make();

    std::vector<Kernel> kernels{kernel};
    codegen::CodeGenOptions opts;
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    opts.ldqWindow = 1 + rng() % 7;
    opts.maxDelaySlots = rng() % 8;
    opts.mode = (rng() % 2) ? isa::FormatMode::Compact
                            : isa::FormatMode::Fixed32;

    const auto bench = workloads::buildBenchmark(kernels, opts);
    const SimConfig cfg = randomConfig(rng, opts.mode);

    Simulator sim(cfg, bench.program);
    ASSERT_NO_THROW(sim.run())
        << "seed " << seed << " strategy " << cfg.fetchName();

    std::string diag;
    EXPECT_TRUE(workloads::verifyAgainstReference(
        sim.dataMemory(), bench.kernels[0], bench.codeInfo[0], &diag))
        << "seed " << seed << ": " << diag;

    expectReplayOracle(cfg, bench.program,
                       "seed " + std::to_string(seed) + " strategy " +
                           cfg.fetchName());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernel,
                         ::testing::Range(0u, 60u));

TEST(RandomKernelSuite, ManyKernelsOneProgram)
{
    // Several random kernels back to back in one program, like the
    // real benchmark.
    std::vector<Kernel> kernels;
    for (unsigned seed = 100; seed < 105; ++seed) {
        KernelGen gen(seed);
        Kernel k = gen.make();
        k.id = int(seed);
        k.name += "_k" + std::to_string(seed);
        kernels.push_back(k);
    }
    const auto bench = workloads::buildBenchmark(kernels);
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-32", 64);
    cfg.mem.accessTime = 6;
    Simulator sim(cfg, bench.program);
    sim.run();
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        std::string diag;
        EXPECT_TRUE(workloads::verifyAgainstReference(
            sim.dataMemory(), bench.kernels[i], bench.codeInfo[i],
            &diag))
            << diag;
    }
}
