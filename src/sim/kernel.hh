/**
 * @file
 * Cycle-driven simulation kernel.
 */

#ifndef NORD_SIM_KERNEL_HH
#define NORD_SIM_KERNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/state_annotations.hh"
#include "common/types.hh"
#include "sim/clocked.hh"

namespace nord {

class StateSerializer;

/**
 * Drives all registered Clocked objects, one pass per cycle, in
 * registration order. Does not own the objects.
 *
 * Idle skipping: the kernel keeps one active bit per component slot.
 * After ticking a component that reports quiescent(), its bit is
 * cleared; subsequent cycles cost it nothing beyond its share of a
 * 64-slot word. Producers re-arm consumers via Clocked::kernelWake(),
 * which sets the bit and tolerates calls in the middle of the current
 * pass: the pass walks set bits in ascending slot order and re-reads the
 * current word after every tick, so a wake for a later slot is ticked
 * this same cycle, exactly as the serial kernel would, while a wake for
 * a slot at or before the one being ticked lands next cycle (a serial
 * tick this cycle would have been a no-op -- the component was
 * quiescent before the event).
 */
class SimKernel
{
  public:
    SimKernel() = default;

    SimKernel(const SimKernel &) = delete;
    SimKernel &operator=(const SimKernel &) = delete;

    /** Register a component; evaluation follows registration order. */
    void add(Clocked *obj);

    /** Current cycle (the cycle being, or about to be, evaluated). */
    Cycle now() const { return now_; }

    /** Advance the simulation by @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Advance until @p done returns true (checked after each cycle) or
     * @p maxCycles have elapsed.
     *
     * @return true if @p done fired, false if the cycle limit was hit.
     */
    bool runUntil(const std::function<bool()> &done, Cycle maxCycles);

    /** Number of registered components. */
    size_t numComponents() const { return objects_.size(); }

    /**
     * Enable/disable idle-component skipping. Disabling (or enabling)
     * re-activates everything so no pending work is stranded.
     */
    void setSkipEnabled(bool enabled);
    bool skipEnabled() const { return skipEnabled_; }

    /** Re-activate every registered component (e.g. after a restore). */
    void wakeAll();

    /** True if @p obj is currently in the active set. */
    bool isActive(const Clocked *obj) const;

    // Perf counters (diagnostics only -- deliberately NOT serialized, so
    // skip-on and skip-off kernels stay bit-identical under stateHash()).
    std::uint64_t tickedLastCycle() const { return tickedLast_; }
    std::uint64_t skippedLastCycle() const { return skippedLast_; }
    std::uint64_t tickedTotal() const { return tickedTotal_; }
    std::uint64_t skippedTotal() const { return skippedTotal_; }

    /** Checkpoint hook: the clock is the kernel's only state. */
    void serializeState(StateSerializer &s);

  private:
    friend class Clocked;

    void stepOne();
    void wake(std::size_t slot);

    NORD_STATE_EXCLUDE(config,
        "component registry; rebuilt by NocSystem::registerAll")
    std::vector<Clocked *> objects_;
    Cycle now_ = 0;

    /** Active set: bit (slot % 64) of word (slot / 64) per component. */
    NORD_STATE_EXCLUDE(cache,
        "derived scheduling state; loadCheckpoint wakes every component")
    std::vector<std::uint64_t> activeBits_;
    NORD_STATE_EXCLUDE(cache,
        "re-entrancy flag; live only inside stepOne")
    bool inTick_ = false;
    NORD_STATE_EXCLUDE(config,
        "skip-on and skip-off kernels must hash and restore identically")
    bool skipEnabled_ = true;

    NORD_STATE_EXCLUDE(perf_counter,
        "diagnostics; including them would split hashes by skip mode")
    std::uint64_t tickedLast_ = 0;
    NORD_STATE_EXCLUDE(perf_counter,
        "diagnostics; including them would split hashes by skip mode")
    std::uint64_t skippedLast_ = 0;
    NORD_STATE_EXCLUDE(perf_counter,
        "diagnostics; including them would split hashes by skip mode")
    std::uint64_t tickedTotal_ = 0;
    NORD_STATE_EXCLUDE(perf_counter,
        "diagnostics; including them would split hashes by skip mode")
    std::uint64_t skippedTotal_ = 0;
};

}  // namespace nord

#endif  // NORD_SIM_KERNEL_HH
