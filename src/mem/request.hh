/**
 * @file
 * Memory request/response types exchanged between the processor-side
 * requesters (the CPU's data queues and the instruction fetch units)
 * and the memory system.
 */

#ifndef PIPESIM_MEM_REQUEST_HH
#define PIPESIM_MEM_REQUEST_HH

#include <cstdint>
#include <optional>
#include <type_traits>

#include "common/state_io.hh"
#include "common/types.hh"

namespace pipesim
{

/**
 * Arbitration class of a request.  The paper's simulation model
 * "gives precedence to data and instruction loads and stores,
 * followed by multiply results, with instruction prefetches having
 * lowest priority"; additionally the presented results give demand
 * instruction fetches priority over data requests (configurable).
 */
enum class ReqClass : unsigned char
{
    Data,          //!< architectural load/store (LAQ/SAQ drain)
    IFetchDemand,  //!< instruction fetch the decoder is waiting on
    IPrefetch,     //!< speculative instruction prefetch
};

/**
 * One request presented to the memory interface: plain data, with no
 * callbacks and no pointer to its requester.
 *
 * Loads and instruction fetches produce response beats on the input
 * bus; stores complete silently.  The memory system delivers every
 * response to the MemClient registered for the request's class (see
 * MemClient's delivery methods), so a request can be copied, queued
 * and checkpointed as a value.
 */
struct MemRequest
{
    Addr addr = 0;
    unsigned bytes = 0;
    bool isStore = false;
    Word storeData = 0;
    ReqClass cls = ReqClass::Data;

    /**
     * Program-order sequence number for Data-class requests.  The
     * memory system delivers data-load responses strictly in this
     * order so the Load Data Queue (a FIFO the programmer reads as
     * r7) fills correctly.
     */
    std::uint64_t dataSeq = 0;

    /**
     * Extra response latency added by fault injection (set by the
     * memory system at acceptance; 0 when injection is off).
     */
    unsigned extraLatency = 0;

    /**
     * Load value captured when the memory accepts the request
     * (memory system internal), preserving program-order memory
     * semantics.
     */
    Word loadData = 0;
};

static_assert(std::is_trivially_copyable_v<MemRequest>);

/** Serialize a request for a checkpoint (every field is a value). */
inline void
saveMemRequest(StateWriter &w, const MemRequest &req)
{
    w.u32(req.addr);
    w.u32(req.bytes);
    w.b(req.isStore);
    w.u32(req.storeData);
    w.u8(std::uint8_t(req.cls));
    w.u64(req.dataSeq);
    w.u32(req.extraLatency);
    w.u32(req.loadData);
}

/** Rebuild a request saved by saveMemRequest(). */
inline MemRequest
restoreMemRequest(StateReader &r)
{
    MemRequest req;
    req.addr = r.u32();
    req.bytes = r.u32();
    req.isStore = r.b();
    req.storeData = r.u32();
    const std::uint8_t cls = r.u8();
    if (cls > std::uint8_t(ReqClass::IPrefetch))
        r.fail("request class holds ", unsigned(cls));
    req.cls = ReqClass(cls);
    req.dataSeq = r.u64();
    req.extraLatency = r.u32();
    req.loadData = r.u32();
    return req;
}

/** Stable lower-case name for a request class (reports, traces). */
constexpr const char *
reqClassName(ReqClass cls)
{
    switch (cls) {
      case ReqClass::Data: return "data";
      case ReqClass::IFetchDemand: return "ifetch_demand";
      case ReqClass::IPrefetch: return "iprefetch";
    }
    return "unknown";
}

/**
 * A requester as the memory system sees it: a pull interface to
 * collect requests, and delivery methods for their responses.
 *
 * Each requester exposes at most one candidate request per cycle;
 * when the output bus accepts it the memory system calls accepted()
 * and the requester pops its internal queue.  Responses go to the
 * client registered for the request's class (MemorySystem::
 * setDataClient and friends), in the order below; the defaults
 * ignore them, so a client overrides only what it consumes.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** The request this client wants to issue now, if any. */
    virtual std::optional<MemRequest> peek() = 0;

    /** The peeked request was accepted this cycle. */
    virtual void accepted() = 0;

    /** One input-bus beat of a response: (base address, bytes). */
    virtual void beat(Addr, unsigned) {}

    /** A data load's value, delivered strictly in dataSeq order. */
    virtual void loadValue(const MemRequest &, Word) {}

    /** The last beat of the request's response was delivered. */
    virtual void completed(const MemRequest &) {}

    /**
     * Instruction fills only: the transfer was corrupted (an injected
     * fill parity error).  Delivered at end-of-transfer *instead of*
     * completed(); no beat() precedes it, so no corrupt byte ever
     * reaches a cache or the decoder.  The client is expected to
     * discard its fill state and retry.
     */
    virtual void parityError(const MemRequest &) {}
};

} // namespace pipesim

#endif // PIPESIM_MEM_REQUEST_HH
