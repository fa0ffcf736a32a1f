/**
 * @file
 * Fault-injection campaign engine.
 *
 * A Clocked component registered *before* every other component, so the
 * faults of cycle N perturb the network state that cycle-N evaluation then
 * observes -- exactly like a glitch on the wire.
 *
 * It draws Bernoulli transients (flit corruption/drop, credit leaks, lost
 * wakeups) each cycle from the dedicated kFaults RNG stream, so traffic
 * replay stays bit-identical with the campaign on or off. One-off faults
 * (a dead router, a suppression window) are direct calls on the system;
 * see fault_config.hh.
 *
 * Every leaked credit is announced to the InvariantAuditor via
 * expectCreditDeficit(), which lets its recover mode repair the counter
 * while still flagging any *unexpected* deficit as a real bug.
 */

#ifndef NORD_FAULT_FAULT_INJECTOR_HH
#define NORD_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "fault/fault_config.hh"
#include "sim/clocked.hh"

namespace nord {

class NocSystem;
class InvariantAuditor;
class StateSerializer;
struct NocConfig;

/**
 * Drives the configured fault campaign against one NocSystem.
 */
class FaultInjector : public Clocked
{
  public:
    /** Injected-fault tallies, by class. */
    struct Counts
    {
        std::uint64_t corrupt = 0;
        std::uint64_t drop = 0;
        std::uint64_t creditLeak = 0;
        std::uint64_t lostWakeup = 0;

        std::uint64_t total() const
        {
            return corrupt + drop + creditLeak + lostWakeup;
        }
    };

    /** Length of the wakeup-suppression window a lost wakeup causes. */
    static constexpr Cycle kLostWakeupStall = 64;

    FaultInjector(NocSystem &sys, const NocConfig &config);

    void tick(Cycle now) override;

    std::string name() const override { return "faults"; }

    /** Wire the auditor that gets notified of expected credit deficits. */
    void setAuditor(InvariantAuditor *auditor) { auditor_ = auditor; }

    /** Faults injected so far. */
    const Counts &counts() const { return counts_; }

    /** Checkpoint hook: RNG position and tallies. */
    void serializeState(StateSerializer &s);

  private:
    NocSystem &sys_;
    const NocConfig &config_;
    NORD_STATE_EXCLUDE(config, "auditor wiring attached by NocSystem")
    InvariantAuditor *auditor_ = nullptr;
    Rng rng_;
    Counts counts_;
};

}  // namespace nord

#endif  // NORD_FAULT_FAULT_INJECTOR_HH
