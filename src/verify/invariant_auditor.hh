/**
 * @file
 * Runtime invariant auditor: the always-available correctness net.
 *
 * Registered with the SimKernel (after every other component, so it sees a
 * settled cycle), the auditor sweeps the whole network every
 * `verify.interval` cycles and on every router power-state transition,
 * mechanically checking the protocol-level invariants NoRD's correctness
 * argument rests on:
 *
 *  1. Flit conservation -- flits injected == flits in router buffers +
 *     links + NI queues/latches + flits ejected, network-wide.
 *  2. Credit conservation -- per (link, VC), upstream credits + credits
 *     in flight + flits in flight + downstream occupancy equals the buffer
 *     depth, including the Section 4.3 credit re-adjustment to the single
 *     NI bypass latch slot while the ring successor is gated.
 *  3. VC state-machine legality -- idle/alloc/active transitions with
 *     head/tail-flit accounting and exclusive output-VC ownership.
 *  4. Power-gating handshake safety -- no flit is delivered into (or in
 *     flight toward) a router that is not fully on except via the NoRD
 *     bypass edge; wakeup requests are never lost; a gated router's
 *     datapath is provably empty.
 *  5. Liveness -- a network-wide progress watchdog (deadlock) and a
 *     per-flit age bound (livelock), both dumping a full stall diagnosis
 *     before aborting.
 *
 * Violations are recorded with a human-readable diagnosis. What a
 * kernel-driven sweep then does is governed by `verify.policy`:
 * `kAbort` dumps state and panics on the first *unexpected* violation,
 * `kDiagnose` prints every new violation and keeps running, and
 * `kRecover` additionally repairs what it can -- credit deficits that a
 * FaultInjector announced via expectCreditDeficit() are restored in place
 * and counted in recoveredFaults(). Injected faults the auditor was told
 * about (announced leaks, suppressed or dead controllers) are marked
 * `expected` and never abort the run, so a fault campaign can measure
 * resilience while the auditor still catches genuine bugs. Direct calls
 * to sweep() only accumulate -- that is what the fault-injection tests
 * use. All inspection goes through cheap const introspection hooks on
 * routers, NIs, links and controllers; with `verify.interval == 0` the
 * per-cycle cost is a single branch.
 */

#ifndef NORD_VERIFY_INVARIANT_AUDITOR_HH
#define NORD_VERIFY_INVARIANT_AUDITOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "network/noc_config.hh"
#include "sim/clocked.hh"

namespace nord {

class NocSystem;
class StateSerializer;

/**
 * Whole-network invariant checker (see file comment).
 */
class InvariantAuditor : public Clocked
{
  public:
    /** Invariant family a violation belongs to. */
    enum class Kind : std::int8_t
    {
        kFlitConservation,
        kCreditConservation,
        kVcState,
        kPgSafety,
        kLiveness,
    };

    /** One detected invariant violation. */
    struct Violation
    {
        Kind kind;
        NodeId node;            ///< primary router involved (-1: global)
        Cycle cycle;            ///< cycle the sweep detected it
        std::string diagnosis;  ///< human-readable description
        bool expected = false;  ///< attributable to an announced fault
    };

    InvariantAuditor(const NocSystem &sys, const VerifyConfig &config);

    /** True when periodic sweeps are configured (interval > 0). */
    bool enabled() const { return config_.interval > 0; }

    /** Kernel hook: watchdog every cycle, full sweep every interval. */
    void tick(Cycle now) override;

    std::string name() const override { return "auditor"; }

    /**
     * Run every check once, recording (but never aborting on) violations.
     *
     * @param controllersSettled true when all PG controllers have ticked
     *        this cycle (end-of-cycle sweeps); transition-triggered sweeps
     *        pass false and skip the lost-wakeup check, which is only
     *        meaningful once every controller has evaluated its policy.
     * @return number of violations found by this sweep
     */
    size_t sweep(Cycle now, bool controllersSettled = true);

    /** PgController transition hook (wired by NocSystem). */
    void onPowerTransition(Cycle now, PowerState from, PowerState to);

    /** All violations recorded so far. */
    const std::vector<Violation> &violations() const { return violations_; }

    /** True when some recorded violation is of kind @p k. */
    bool hasViolation(Kind k) const;

    /** Recorded violations not attributable to an announced fault. */
    size_t unexpectedViolations() const;

    /** Injected faults repaired so far (kRecover policy). */
    std::uint64_t recoveredFaults() const { return recovered_; }

    /**
     * Give the auditor a mutable handle on the system it watches, enabling
     * in-place repair under the kRecover policy. Wired by NocSystem.
     */
    void setRecoveryTarget(NocSystem *sys) { mutableSys_ = sys; }

    /**
     * FaultInjector hook: one credit of link (@p node, @p dir), VC @p vc
     * was deliberately leaked. The matching conservation deficit is marked
     * expected, and kRecover repairs it.
     */
    void expectCreditDeficit(NodeId node, Direction dir, VcId vc);

    /** Forget recorded violations (between fault-injection experiments). */
    void clearViolations() { violations_.clear(); }

    /** Completed sweeps (periodic + transition + manual). */
    std::uint64_t sweepCount() const { return sweeps_; }

    /** Short name of a violation kind. */
    static const char *kindName(Kind k);

    /**
     * Checkpoint hook: recorded violations (with their expected-fault
     * attribution), announced leak expectations, recovery tallies and the
     * progress watchdog, so a restored run neither re-flags repaired
     * faults nor false-alarms on its first post-restore sweep.
     */
    void serializeState(StateSerializer &s);

  private:
    // Individual invariant families.
    void checkFlitConservation(Cycle now);
    void checkCreditConservation(Cycle now);
    void checkVcStates(Cycle now);
    void checkPgSafety(Cycle now, bool controllersSettled);
    void checkFlitAges(Cycle now);

    /** Deadlock watchdog: network-wide forward progress, every cycle. */
    void watchdog(Cycle now);

    /** Sum of all forward-progress events since construction. */
    std::uint64_t progressCounter() const;

    /** Flits currently inside the network fabric. */
    std::uint64_t inNetworkFlits() const;

    /** Occupancy / VC / PG snapshot of every non-idle router. */
    std::string stallDiagnosis(Cycle now) const;

    /** PG states and occupancy along @p flit's minimal route. */
    std::string routeDiagnosis(const Flit &flit, Cycle now) const;

    void report(Kind kind, NodeId node, Cycle now, std::string diagnosis,
                bool expected = false);

    /** Apply the configured policy to a kernel-driven sweep's findings. */
    void applyPolicy(size_t before, Cycle now);

    /** Expected-leak key for (node, output direction, VC). */
    static std::uint64_t leakKey(NodeId node, Direction dir, VcId vc)
    {
        return (static_cast<std::uint64_t>(node) << 16) |
               (static_cast<std::uint64_t>(dirIndex(dir)) << 8) |
               static_cast<std::uint64_t>(vc);
    }

    const NocSystem &sys_;
    NORD_STATE_EXCLUDE(config, "kRecover repair handle wired by NocSystem")
    NocSystem *mutableSys_ = nullptr;
    NORD_STATE_EXCLUDE(config, "audit policy fixed at construction")
    VerifyConfig config_;
    std::vector<Violation> violations_;
    std::uint64_t sweeps_ = 0;

    // Fault bookkeeping.
    std::map<std::uint64_t, int> expectedLeaks_;  ///< leakKey -> credits
    std::uint64_t recovered_ = 0;

    // Watchdog state.
    std::uint64_t lastProgress_ = 0;
    Cycle lastProgressCycle_ = 0;
    bool stallReported_ = false;
};

}  // namespace nord

#endif  // NORD_VERIFY_INVARIANT_AUDITOR_HH
