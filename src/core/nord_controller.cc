/**
 * @file
 * NoRD controller implementation.
 */

#include "core/nord_controller.hh"

#include <algorithm>

#include "ckpt/state_serializer.hh"
#include "ni/network_interface.hh"
#include "router/router.hh"

namespace nord {

NordController::NordController(Router &router, const NocConfig &config,
                               ActivityCounters &counters,
                               NetworkInterface &ni, int wakeupThreshold,
                               int sleepGuard)
    : PgController(router, config, counters),
      ni_(ni),
      threshold_(wakeupThreshold),
      sleepGuard_(sleepGuard),
      window_(static_cast<size_t>(config.nordWakeupWindow), 0)
{
}

void
NordController::requestWakeup(Cycle)
{
    // Decoupling bypass transports the packet instead; no wakeup needed.
}


int
NordController::windowSum() const
{
    return windowSum_;
}

void
NordController::pushSample(int count)
{
    windowSum_ += count - window_[windowPos_];
    window_[windowPos_] = count;
    windowPos_ = (windowPos_ + 1) % window_.size();
}

void
NordController::policy(Cycle now)
{
    switch (state_) {
      case PowerState::kOn:
        // The gated-on -> gated-off transition is only complete once the
        // bypass datapath has drained (Section 4.3); do not re-gate while
        // flows are still live there. The sleep guard is asymmetric like
        // the wakeup threshold: power-centric routers gate almost
        // immediately, performance-centric routers linger.
        if (sleepAllowed(now) && ni_.bypassQuiescent() && wasEmpty_ &&
            now - emptySince_ >= static_cast<Cycle>(sleepGuard_)) {
            beginSleep(now);
            // A stale window must not trigger an immediate re-wake.
            std::fill(window_.begin(), window_.end(), 0);
            windowSum_ = 0;
        }
        break;
      case PowerState::kOff:
        pushSample(ni_.vcRequestsThisCycle());
        if (windowSum_ >= threshold_)
            tryBeginWakeup(now);
        break;
      case PowerState::kWakingUp:
        break;
    }
}

void
NordController::serializeState(StateSerializer &s)
{
    PgController::serializeState(s);
    s.section(StateSerializer::tag4("NRDC"));
    s.ioSequence(window_);
    std::uint64_t pos = windowPos_;
    s.io(pos);
    windowPos_ = static_cast<size_t>(pos);
    s.io(windowSum_);
}

void
NordController::deadPolicy(Cycle now)
{
    // Gate off as soon as the datapath and bypass have drained; once off,
    // never wake again. The bypass ring keeps the node reachable.
    if (state_ == PowerState::kOn && sleepAllowed(now) &&
        ni_.bypassQuiescent()) {
        beginSleep(now);
        std::fill(window_.begin(), window_.end(), 0);
        windowSum_ = 0;
    }
}

}  // namespace nord
