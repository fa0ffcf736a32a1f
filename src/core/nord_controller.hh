/**
 * @file
 * NoRD power-gating controller (Sections 4.3 and 4.4).
 *
 * Under node-router decoupling the router never needs to wake for a single
 * packet: the NI bypass transports traffic while the router sleeps. The
 * controller instead watches the *load* through the NI -- the number of VC
 * requests at the local NI over a sliding window (10 cycles) -- and wakes
 * the router only when that count reaches the router's wakeup threshold.
 * Performance-centric routers get a low threshold (1), power-centric
 * routers a high one (3), implementing asymmetric wakeup thresholds.
 */

#ifndef NORD_CORE_NORD_CONTROLLER_HH
#define NORD_CORE_NORD_CONTROLLER_HH

#include <vector>

#include "common/state_annotations.hh"
#include "powergate/pg_controller.hh"

namespace nord {

class NetworkInterface;

/**
 * NoRD controller: sleep on emptiness, wake on the NI VC-request metric.
 */
class NordController : public PgController
{
  public:
    /**
     * @param wakeupThreshold VC requests within the window that trigger
     *        wakeup (1 = performance-centric, 3 = power-centric)
     */
    NordController(Router &router, const NocConfig &config,
                   ActivityCounters &counters, NetworkInterface &ni,
                   int wakeupThreshold, int sleepGuard);

    /**
     * Neighbors never need to wake a NoRD router (the bypass forwards for
     * them); only the local metric does. Requests are ignored.
     */
    void requestWakeup(Cycle now) override;

    /** The configured wakeup threshold. */
    int wakeupThreshold() const { return threshold_; }

    /** The configured sleep guard (empty cycles before re-gating). */
    int sleepGuard() const { return sleepGuard_; }

    /** Current VC requests summed over the window (for tests). */
    int windowSum() const;

    /** Checkpoint hook: base FSM plus the sliding VC-request window. */
    void serializeState(StateSerializer &s) override;

  protected:
    void policy(Cycle now) override;

    /**
     * Fail gated: a dead NoRD router is just a router that can never wake
     * (Section 4.1's reachability argument doubles as fault tolerance).
     * Drain, gate off, and let the bypass ring serve the node forever.
     */
    void deadPolicy(Cycle now) override;

  private:
    /** Shift the sliding window by one cycle with this cycle's count. */
    void pushSample(int count);

    NetworkInterface &ni_;
    NORD_STATE_EXCLUDE(config, "wakeup threshold fixed at construction")
    int threshold_;
    NORD_STATE_EXCLUDE(config, "sleep guard interval fixed at construction")
    int sleepGuard_;
    std::vector<int> window_;  ///< circular buffer of per-cycle counts
    size_t windowPos_ = 0;
    int windowSum_ = 0;
};

}  // namespace nord

#endif  // NORD_CORE_NORD_CONTROLLER_HH
