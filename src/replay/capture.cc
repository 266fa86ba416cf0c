#include "replay/capture.hh"

#include "obs/profiler.hh"
#include "sim/simulator.hh"

namespace pipesim::replay
{

TraceCapture::TraceCapture(Simulator &sim, std::string provenance)
    : _bus(sim.probes())
{
    _trace.meta.entry = sim.program().entry();
    _trace.meta.programSha256 = programSha256(sim.program());
    _trace.meta.provenance = std::move(provenance);
    _id = _bus.retire.connect([this](const obs::RetireEvent &ev) {
        _trace.records.push_back(TraceRecord{ev.outcome, ev.inst.pc});
    });
}

TraceCapture::~TraceCapture()
{
    if (_connected)
        _bus.retire.disconnect(_id);
}

Trace
TraceCapture::finish()
{
    if (_connected) {
        _bus.retire.disconnect(_id);
        _connected = false;
    }
    encodeTrace(_trace); // refresh _trace.sha256
    return std::move(_trace);
}

Trace
captureTrace(const SimConfig &config, const Program &program,
             const std::string &provenance)
{
    obs::ScopedPhase phase("capture", obs::Scope::Coarse);
    Simulator sim(config, program);
    TraceCapture capture(sim, provenance);
    sim.run();
    return capture.finish();
}

} // namespace pipesim::replay
