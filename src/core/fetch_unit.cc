#include "core/fetch_unit.hh"

#include <sstream>

#include "common/abort.hh"
#include "common/log.hh"

namespace pipesim
{

FetchUnit::FetchUnit(const Program &program, MemorySystem &mem)
    : _program(program), _mem(mem),
      _demandPort(*this, ReqClass::IFetchDemand),
      _prefetchPort(*this, ReqClass::IPrefetch)
{
    _mem.setDemandClient(&_demandPort);
    _mem.setPrefetchClient(&_prefetchPort);
}

FetchUnit::~FetchUnit()
{
    _mem.setDemandClient(nullptr);
    _mem.setPrefetchClient(nullptr);
}

isa::Instruction
FetchUnit::decodeAt(Addr addr) const
{
    if (auto inst = _program.decodeAt(addr))
        return *inst;
    // Past the program image: decode the zero parcel (an ALU no-op).
    // The simulation halts before such instructions ever issue; they
    // only exist so prefetch lookahead can run off the end of code.
    return isa::decode(0, 0, _program.mode());
}

void
FetchUnit::offchipAccepted()
{
    PIPESIM_ASSERT(_want, "acceptance with no request outstanding");
    if (_probes && _probes->fetchRequest.active()) {
        _probes->fetchRequest.notify(obs::FetchEvent{
            _obsNow, _want->addr, _want->bytes,
            _want->cls == ReqClass::IFetchDemand});
    }
    _offchipInFlight = true;
    onFillAccepted(*_want);
    _want.reset();
}

unsigned
FetchUnit::instSizeAt(Addr addr) const
{
    return decodeAt(addr).sizeBytes();
}

void
FetchUnit::noteParityError(Addr addr, unsigned bytes)
{
    ++_parityRetries;
    ++_consecutiveParityErrors;
    if (_consecutiveParityErrors >= _parityRetryLimit) {
        std::ostringstream hex;
        hex << std::hex << addr;
        simAbort("instruction fill at 0x", hex.str(), " (", bytes,
                 " B) failed parity ", _consecutiveParityErrors,
                 " consecutive times (retry limit ", _parityRetryLimit,
                 "): giving up");
    }
}

void
FetchUnit::regParityStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".parity_retries", &_parityRetries,
                     "instruction fills retried after an injected "
                     "parity error");
}

} // namespace pipesim
