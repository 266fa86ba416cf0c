#include <gtest/gtest.h>

#include "common/log.hh"

#include <bit>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "mem/memory_system.hh"

using namespace pipesim;

namespace
{

/**
 * A scriptable memory client for driving the arbitration logic.  It
 * records every response the memory system delivers to it, and can
 * also append them to an event log shared with other clients.
 */
class FakeClient : public MemClient
{
  public:
    std::deque<MemRequest> queue;
    unsigned acceptedCount = 0;
    std::vector<Word> loads;              //!< load values, in order
    std::vector<std::uint64_t> loadSeqs;  //!< their dataSeq numbers
    std::vector<std::pair<Addr, unsigned>> beats;
    unsigned completedCount = 0;

    /** Optional shared log: "<name> <event>" per delivery. */
    std::vector<std::string> *log = nullptr;
    std::string name;

    std::optional<MemRequest>
    peek() override
    {
        if (queue.empty())
            return std::nullopt;
        return queue.front();
    }

    void
    accepted() override
    {
        queue.pop_front();
        ++acceptedCount;
    }

    void
    beat(Addr addr, unsigned bytes) override
    {
        beats.push_back({addr, bytes});
        note("beat " + std::to_string(addr) + " " + std::to_string(bytes));
    }

    void
    loadValue(const MemRequest &req, Word value) override
    {
        loads.push_back(value);
        loadSeqs.push_back(req.dataSeq);
        note("load seq " + std::to_string(req.dataSeq) + " value " +
             std::to_string(value));
    }

    void
    completed(const MemRequest &req) override
    {
        ++completedCount;
        note("complete " + std::to_string(req.addr));
    }

    void
    parityError(const MemRequest &req) override
    {
        note("parity " + std::to_string(req.addr));
    }

  private:
    void
    note(const std::string &event)
    {
        if (log)
            log->push_back(name + " " + event);
    }
};

struct Harness
{
    explicit Harness(MemSystemConfig cfg = {})
        : mem(dataMem), sys(cfg, dataMem)
    {
        sys.setDataClient(&data);
        sys.setDemandClient(&demand);
        sys.setPrefetchClient(&prefetch);
        data.name = "data";
        demand.name = "demand";
        prefetch.name = "prefetch";
        for (FakeClient *c : {&data, &demand, &prefetch})
            c->log = &log;
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            log.push_back("cycle " + std::to_string(now));
            sys.tick(now++);
        }
    }

    DataMemory dataMem{1 << 16};
    DataMemory &mem;
    MemorySystem sys;
    FakeClient data, demand, prefetch;
    std::vector<std::string> log;
    Cycle now = 0;
};

MemRequest
makeLoad(Addr addr, std::uint64_t seq)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = wordBytes;
    req.cls = ReqClass::Data;
    req.dataSeq = seq;
    return req;
}

MemRequest
makeStore(Addr addr, Word value)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = wordBytes;
    req.isStore = true;
    req.storeData = value;
    req.cls = ReqClass::Data;
    return req;
}

MemRequest
makeIFetch(Addr addr, unsigned bytes, ReqClass cls)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.cls = cls;
    return req;
}

} // namespace

TEST(MemorySystemTest, LoadRoundTripLatency)
{
    MemSystemConfig cfg;
    cfg.accessTime = 3;
    Harness h(cfg);
    h.dataMem.writeWord(0x100, 0xabcd);
    h.data.queue.push_back(makeLoad(0x100, 0));

    h.run(3); // accepted at cycle 0, ready at 3, delivered at tick 3
    EXPECT_TRUE(h.data.loads.empty());
    h.run(1);
    ASSERT_EQ(h.data.loads.size(), 1u);
    EXPECT_EQ(h.data.loads[0], 0xabcdu);
}

TEST(MemorySystemTest, StoreThenLoadSeesNewValue)
{
    Harness h;
    h.data.queue.push_back(makeStore(0x40, 123));
    h.data.queue.push_back(makeLoad(0x40, 0));
    h.run(10);
    ASSERT_EQ(h.data.loads.size(), 1u);
    EXPECT_EQ(h.data.loads[0], 123u);
}

TEST(MemorySystemTest, LoadBeforeStoreSeesOldValue)
{
    // Program order: load first, then a store to the same address.
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = true;
    Harness h(cfg);
    h.dataMem.writeWord(0x40, 7);
    h.data.queue.push_back(makeLoad(0x40, 0));
    h.data.queue.push_back(makeStore(0x40, 99));
    h.run(12);
    ASSERT_EQ(h.data.loads.size(), 1u);
    EXPECT_EQ(h.data.loads[0], 7u); // captured at acceptance, not delivery
    EXPECT_EQ(h.dataMem.readWord(0x40), 99u);
}

TEST(MemorySystemTest, LineFetchBeatsMatchBusWidth)
{
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.busWidthBytes = 8;
    Harness h(cfg);
    h.demand.queue.push_back(
        makeIFetch(0x200, 32, ReqClass::IFetchDemand));
    h.run(10);
    ASSERT_EQ(h.demand.beats.size(), 4u);
    EXPECT_EQ(h.demand.beats[0], (std::pair<Addr, unsigned>{0x200, 8}));
    EXPECT_EQ(h.demand.beats[3], (std::pair<Addr, unsigned>{0x218, 8}));
}

TEST(MemorySystemTest, NarrowBusTakesTwiceTheBeats)
{
    MemSystemConfig cfg;
    cfg.busWidthBytes = 4;
    Harness h(cfg);
    h.demand.queue.push_back(
        makeIFetch(0x200, 32, ReqClass::IFetchDemand));
    h.run(12);
    EXPECT_EQ(h.demand.beats.size(), 8u);
}

TEST(MemorySystemTest, InstructionPriorityConfigurable)
{
    for (bool ipriority : {true, false}) {
        MemSystemConfig cfg;
        cfg.instructionPriority = ipriority;
        Harness h(cfg);
        h.data.queue.push_back(makeLoad(0x10, 0));
        h.demand.queue.push_back(
            makeIFetch(0x100, 4, ReqClass::IFetchDemand));
        // One tick: exactly one of the two is accepted.
        h.sys.tick(h.now++);
        if (ipriority) {
            EXPECT_EQ(h.demand.acceptedCount, 1u);
            EXPECT_EQ(h.data.acceptedCount, 0u);
        } else {
            EXPECT_EQ(h.demand.acceptedCount, 0u);
            EXPECT_EQ(h.data.acceptedCount, 1u);
        }
    }
}

TEST(MemorySystemTest, PrefetchAlwaysLoses)
{
    MemSystemConfig cfg;
    cfg.pipelined = true;
    Harness h(cfg);
    h.prefetch.queue.push_back(
        makeIFetch(0x300, 4, ReqClass::IPrefetch));
    h.data.queue.push_back(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 1u);
    EXPECT_EQ(h.prefetch.acceptedCount, 0u);
    h.sys.tick(h.now++);
    EXPECT_EQ(h.prefetch.acceptedCount, 1u);
}

TEST(MemorySystemTest, NonPipelinedSerialisesRequests)
{
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = false;
    Harness h(cfg);
    h.data.queue.push_back(makeLoad(0x10, 0));
    h.data.queue.push_back(makeLoad(0x14, 1));
    h.run(2);
    EXPECT_EQ(h.data.acceptedCount, 1u); // second waits
    h.run(10);
    EXPECT_EQ(h.data.acceptedCount, 2u);
    EXPECT_EQ(h.data.loads.size(), 2u);
}

TEST(MemorySystemTest, PipelinedAcceptsEveryCycle)
{
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = true;
    Harness h(cfg);
    for (unsigned i = 0; i < 4; ++i)
        h.data.queue.push_back(makeLoad(0x10 + 4 * i, i));
    h.run(4);
    EXPECT_EQ(h.data.acceptedCount, 4u);
    h.run(8);
    EXPECT_EQ(h.data.loads.size(), 4u);
}

TEST(MemorySystemTest, DataLoadsDeliverInProgramOrderAcrossFpu)
{
    // Load 0 goes to the FPU (blocking on a result); load 1 to the
    // external memory.  Even with the memory pipelined, load 1 must
    // not enter the LDQ before load 0.
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.pipelined = true;
    cfg.fpuLatency = 6;
    Harness h(cfg);
    h.dataMem.writeWord(0x20, 55);

    h.data.queue.push_back(makeLoad(FpuDevice::opResult(FpuOp::Add), 0));
    h.data.queue.push_back(makeLoad(0x20, 1));
    // Operand stores that start the FPU op (after the loads in
    // program order).
    h.data.queue.push_back(
        makeStore(FpuDevice::opA(FpuOp::Add), std::bit_cast<Word>(1.0f)));
    h.data.queue.push_back(
        makeStore(FpuDevice::opB(FpuOp::Add), std::bit_cast<Word>(2.0f)));

    h.run(30);
    const std::vector<std::uint64_t> &order = h.data.loadSeqs;
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u);
}

TEST(MemorySystemTest, FpuStoreDoesNotOccupyExternalMemory)
{
    MemSystemConfig cfg;
    cfg.accessTime = 6;
    cfg.pipelined = false;
    Harness h(cfg);
    // A long external load in flight...
    h.data.queue.push_back(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 1u);
    // ...must not block a store routed to the FPU.
    h.data.queue.push_back(
        makeStore(FpuDevice::opA(FpuOp::Mul), std::bit_cast<Word>(2.f)));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 2u);
}

TEST(MemorySystemTest, QuiescentTracksOutstandingWork)
{
    Harness h;
    EXPECT_TRUE(h.sys.quiescent());
    h.data.queue.push_back(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_FALSE(h.sys.quiescent());
    h.run(5);
    EXPECT_TRUE(h.sys.quiescent());
}

TEST(MemorySystemTest, BusNarrowerThanWordRejected)
{
    MemSystemConfig cfg;
    cfg.busWidthBytes = 2;
    DataMemory mem(64);
    EXPECT_THROW(MemorySystem(cfg, mem), PanicError);
}

TEST(MemorySystemTest, AccessTimeOneDeliversNextCycle)
{
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    Harness h(cfg);
    h.dataMem.writeWord(0x10, 9);
    h.data.queue.push_back(makeLoad(0x10, 0));
    h.sys.tick(0); // accepted
    EXPECT_TRUE(h.data.loads.empty());
    h.sys.tick(1); // delivered
    ASSERT_EQ(h.data.loads.size(), 1u);
}

TEST(MemorySystemTest, NonPipelinedSingleBeatSustainsOnePerTwoCycles)
{
    // With access time 1 a 4-byte load stream completes one request
    // every other cycle in the strict non-pipelined model: accept at
    // t, deliver at t+1 (memory busy), accept next at t+1 after the
    // transfer finishes within the same tick.
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.pipelined = false;
    Harness h(cfg);
    for (unsigned i = 0; i < 4; ++i)
        h.data.queue.push_back(makeLoad(0x10 + 4 * i, i));
    h.run(9);
    EXPECT_EQ(h.data.loads.size(), 4u);
}

TEST(MemorySystemTest, RestoreMidFlightDeliversToFreshClients)
{
    // Requests are plain values and responses go to whichever client
    // is registered for their class, so a memory system restored
    // into fresh clients must deliver exactly what the original does.
    MemSystemConfig cfg;
    cfg.accessTime = 6;
    cfg.pipelined = true;
    cfg.fpuLatency = 4;
    cfg.dcacheBytes = 64;
    Harness a(cfg);
    a.dataMem.writeWord(0x40, 0x1234);
    a.demand.queue.push_back(makeIFetch(0x200, 16, ReqClass::IFetchDemand));
    a.prefetch.queue.push_back(makeIFetch(0x300, 8, ReqClass::IPrefetch));
    // Program order: a load that misses the data cache (and fills
    // it), a result read blocking on the FPU, a load of the same word
    // that hits the data cache, a store, and the FPU's operand stores.
    a.data.queue.push_back(makeLoad(0x40, 0));
    a.data.queue.push_back(makeLoad(FpuDevice::opResult(FpuOp::Mul), 1));
    a.data.queue.push_back(makeLoad(0x40, 2));
    a.data.queue.push_back(makeStore(0x80, 77));
    a.data.queue.push_back(
        makeStore(FpuDevice::opA(FpuOp::Mul), std::bit_cast<Word>(3.0f)));
    a.data.queue.push_back(
        makeStore(FpuDevice::opB(FpuOp::Mul), std::bit_cast<Word>(5.0f)));
    a.run(8);

    // All four kinds of in-flight work are held at once: the line
    // fetch on the input bus, the first load, the store and the
    // prefetch in the external memory, the FPU read, and the data
    // cache hit waiting for its turn in load order.
    ASSERT_TRUE(a.sys.inputBusBusy());
    EXPECT_EQ(a.sys.externalMemory().inflightCount(), 3u);
    EXPECT_EQ(a.sys.fpu().pendingReads(), 1u);
    std::ostringstream dump;
    a.sys.dumpState(dump);
    EXPECT_NE(dump.str().find("local (dcache hit) responses queued: 1"),
              std::string::npos)
        << dump.str();
    for (FakeClient *c : {&a.data, &a.demand, &a.prefetch})
        EXPECT_TRUE(c->queue.empty());

    StateWriter w;
    a.sys.saveState(w);
    a.dataMem.saveDirtyPages(w);
    const std::vector<std::uint8_t> payload = w.take();

    Harness b(cfg);
    StateReader r(payload, "memory system");
    b.sys.restoreState(r);
    b.dataMem.restoreDirtyPages(r);
    r.expectEnd();
    b.now = a.now;

    a.log.clear();
    a.run(30);
    b.run(30);
    EXPECT_EQ(a.log, b.log);
    EXPECT_TRUE(b.sys.quiescent());

    // The stream really carries every kind of response.
    EXPECT_EQ(b.data.loadSeqs, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(b.data.loads,
              (std::vector<Word>{0x1234, std::bit_cast<Word>(15.0f),
                                 0x1234}));
    EXPECT_EQ(b.demand.completedCount, 1u);
    EXPECT_EQ(b.prefetch.completedCount, 1u);
    EXPECT_EQ(b.prefetch.beats.size(), 2u);
    EXPECT_EQ(b.dataMem.readWord(0x80), 77u);
}
