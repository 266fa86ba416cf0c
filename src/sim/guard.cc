#include "sim/guard.hh"

#include <csignal>
#include <exception>
#include <iostream>

#include "common/abort.hh"
#include "common/log.hh"
#include "obs/profiler.hh"

namespace pipesim
{

namespace detail
{
std::atomic<int> pendingSignalFlag{0};
} // namespace detail

namespace
{

/**
 * Flush pending --profile/--profile-json output on every exit path
 * (success and all the error taxonomies below) so tools never need
 * explicit profiler teardown.
 */
struct ProfileFlusher
{
    ~ProfileFlusher() { obs::flushProfileReport(); }
};

std::string
signalName(int sig)
{
    switch (sig) {
    case SIGINT:
        return "SIGINT";
    case SIGTERM:
        return "SIGTERM";
    default:
        return "signal " + std::to_string(sig);
    }
}

// Async-signal-safe: a single relaxed store, nothing else.  All
// reporting happens later, at a polling site (checkInterrupt()).
extern "C" void
onShutdownSignal(int sig)
{
    detail::pendingSignalFlag.store(sig, std::memory_order_relaxed);
}

/** Install the flag-setting SIGINT/SIGTERM handlers (idempotent). */
void
installSignalGuard()
{
    static const bool installed = [] {
        struct sigaction sa = {};
        sa.sa_handler = &onShutdownSignal;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, nullptr);
        sigaction(SIGTERM, &sa, nullptr);
        return true;
    }();
    (void)installed;
}

} // namespace

InterruptedError::InterruptedError(int sig)
    : std::runtime_error("interrupted by " + signalName(sig)),
      _signal(sig)
{
}

void
requestShutdown(int sig)
{
    detail::pendingSignalFlag.store(sig, std::memory_order_relaxed);
}

void
clearPendingSignal()
{
    detail::pendingSignalFlag.store(0, std::memory_order_relaxed);
}

int
runGuardedMain(const std::function<int()> &body)
{
    installSignalGuard();
    ProfileFlusher flusher;
    try {
        return body();
    } catch (const InterruptedError &e) {
        std::cerr << e.what()
                  << " -- shutting down cleanly; results journaled so "
                     "far are safe (rerun with the same --store-dir "
                     "to resume)\n";
        return 128 + e.signalNumber();
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const SimAbort &e) {
        e.report(std::cerr);
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what()
                  << "\n(internal simulator bug -- please report)\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "unhandled exception: " << e.what() << "\n";
        return 2;
    }
}

} // namespace pipesim
