/**
 * @file
 * Interface for objects driven by the cycle-based simulation kernel.
 */

#ifndef NORD_SIM_CLOCKED_HH
#define NORD_SIM_CLOCKED_HH

#include <cstddef>
#include <string>

#include "common/state_annotations.hh"
#include "common/types.hh"

namespace nord {

class SimKernel;

/**
 * A component evaluated once per cycle.
 *
 * The kernel calls tick() on all registered objects in registration order;
 * the network assembles components in dataflow order (links, routers, NIs,
 * power-gating controllers, statistics) so that one pass per cycle gives
 * correct pipelined behavior.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Evaluate this component for cycle @p now. */
    virtual void tick(Cycle now) = 0;

    /** Component name for diagnostics. */
    virtual std::string name() const = 0;

    /**
     * True when ticking this component right now would be a provable
     * no-op: no buffered work, no pending protocol obligations, nothing
     * that advances on an empty cycle. A quiescent component may be
     * dropped from the kernel's active set after a tick; any external
     * event that could give it work again MUST call kernelWake() (the
     * producers do: links wake on push, routers wake on flit/local
     * injection, power transitions wake the router and its neighbors).
     * The default is "never quiescent": a component that does not
     * override it is ticked every cycle.
     */
    virtual bool quiescent() const { return false; }

    /**
     * Re-arm this component in its kernel's active set. Safe to call at
     * any time (including mid-cycle from another component's tick, and on
     * a component never registered with a kernel); idempotent when
     * already active. Defined in kernel.cc.
     */
    void kernelWake();

  private:
    friend class SimKernel;

    // Back-pointer + slot bound by SimKernel::add().
    NORD_STATE_EXCLUDE(config,
        "re-established on construction, identical across save/load")
    SimKernel *kernel_ = nullptr;
    NORD_STATE_EXCLUDE(config,
        "re-established on construction, identical across save/load")
    std::size_t kernelSlot_ = 0;
};

}  // namespace nord

#endif  // NORD_SIM_CLOCKED_HH
