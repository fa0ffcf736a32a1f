/**
 * @file
 * Runtime invariant auditor: the always-available correctness net.
 *
 * Registered with the SimKernel (after every other component, so it sees a
 * settled cycle), the auditor sweeps the whole network every
 * `verify.interval` cycles, mechanically checking the protocol-level
 * invariants NoRD's correctness argument rests on:
 *
 *  1. Flit conservation -- flits injected == flits in router buffers +
 *     links + NI queues/latches + flits ejected, network-wide.
 *  2. Credit conservation -- per (link, VC), upstream credits + credits
 *     in flight + flits in flight + downstream occupancy equals the buffer
 *     depth, including the Section 4.3 credit re-adjustment to the single
 *     NI bypass latch slot while the ring successor is gated.
 *  3. VC state-machine legality -- idle/alloc/active transitions with
 *     head/tail-flit accounting, exclusive output-VC ownership, and each
 *     router's O(1) occupancy counters agreeing with a scan of its VCs.
 *  4. Power-gating handshake safety -- no flit is delivered into (or in
 *     flight toward) a router that is not fully on except via the NoRD
 *     bypass edge; wakeup requests are never lost; a gated router's
 *     datapath is provably empty.
 *  5. Liveness -- a network-wide progress watchdog (deadlock) and a
 *     per-flit age bound (livelock), both dumping a full stall diagnosis
 *     before aborting.
 *  6. E2E timer bookkeeping -- each end-to-end endpoint's deadline
 *     bound is no later than the earliest pending deadline (a later
 *     bound would skip a due retransmission).
 *
 * A router power-state transition triggers a *scoped* check instead of a
 * sweep: families 2-4 over the transitioning router and its mesh
 * neighbours (each one's output links -- which include every input link
 * of the transitioning router and the NoRD ring edges -- local port, VCs
 * and datapath), plus every link/VC with an announced credit leak. That
 * is everything a transition can break, at about a fifteenth of the cost
 * of an 8x8 sweep. Findings are appended in the sweep's canonical order
 * (family, then node, direction, VC), so whenever a full sweep would find
 * nothing beyond announced leaks -- every correct run -- the recorded
 * violations and repairs, and so the simulation itself, are those a full
 * sweep would have produced. Flit conservation and flit ages are
 * network-wide and stay on the periodic sweep, as does any finding away
 * from a transitioning router: its detection latency is bounded by
 * `verify.interval`.
 *
 * Violations are recorded with a human-readable diagnosis. A
 * kernel-driven sweep prints every new *unexpected* violation, then
 * `verify.policy` decides: `kAbort` dumps state and panics, `kRecover`
 * keeps running and repairs what it can -- credit deficits that a
 * FaultInjector announced via expectCreditDeficit() are restored in place
 * and counted in recoveredFaults(). Injected faults the auditor was told
 * about (announced leaks, suppressed or dead controllers) are marked
 * `expected` and never abort the run, so a fault campaign can measure
 * resilience while the auditor still catches genuine bugs. Direct calls
 * to sweep() only accumulate -- that is what the fault-injection tests
 * use. All inspection goes through cheap const introspection hooks and
 * template visitors on routers, NIs, links and controllers, so a clean
 * sweep allocates nothing; with `verify.interval == 0` the per-cycle cost
 * is a single branch.
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
        kE2eTimers,
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
     * Run every check over the whole network once, recording (but never
     * aborting on) violations. Assumes an end-of-cycle state in which
     * every PG controller has evaluated its policy.
     *
     * @return number of violations found by this sweep
     */
    size_t sweep(Cycle now);

    /**
     * PgController transition hook (wired by NocSystem): the scoped check
     * of what the transition of @p router can break (see file comment).
     */
    void onPowerTransition(Cycle now, NodeId router);

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

    /** Completed full sweeps (periodic + manual). */
    std::uint64_t sweepCount() const { return sweeps_; }

    /** Scoped checks run on power transitions (not checkpointed). */
    std::uint64_t transitionChecks() const { return transitionChecks_; }

    /**
     * Test hook (not a config field, not serialized): before every scoped
     * transition check, run a dry full sweep -- one that records, repairs
     * and counts nothing -- and compare its (kind, node, cycle, expected)
     * findings with the scoped check's.
     */
    void setShadowFullSweep(bool on) { shadowOn_ = on; }

    /** Transition checks whose findings differed from the dry sweep's. */
    std::uint64_t shadowMismatches() const { return shadowMismatches_; }

    /** Both finding lists of the first shadow mismatch ("" if none). */
    const std::string &firstShadowMismatch() const { return shadowFirst_; }

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
    /** Where one audit pass records findings, and whether it may repair. */
    struct Pass
    {
        Cycle now;
        std::vector<Violation> &out;
        bool repair;  ///< false for the shadow hook's dry sweep
    };

    /** Transitioning router and its mesh neighbours, ascending. */
    struct Scope
    {
        NodeId ids[1 + kNumMeshDirs] = {};
        int count = 0;
    };

    /**
     * Families 1-4 network-wide, then flit ages and the E2E timers.
     * @p controllersSettled is
     * false for a mid-cycle (transition-time) sweep, which skips the
     * lost-wakeup check: later controllers have not evaluated yet.
     */
    void fullSweep(Pass &p, bool controllersSettled);

    /** Families 2-4 over @p scope plus every announced-leak link/VC. */
    void scopedCheck(Pass &p, const Scope &scope);

    // Individual invariant families, per router.
    void checkFlitConservation(Pass &p);
    void checkNodeCredits(Pass &p, NodeId id);
    /** Credit conservation of output link (@p id, @p dir): every VC, or
        only @p onlyVc when it is valid. */
    void checkLinkCredits(Pass &p, NodeId id, Direction dir,
                          VcId onlyVc = kInvalidVc);
    void checkVcStates(Pass &p, NodeId id);
    void checkPgSafety(Pass &p, NodeId id, bool controllersSettled);
    void checkFlitAges(Pass &p);
    void checkE2eTimers(Pass &p, NodeId id);

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

    static void report(Pass &p, Kind kind, NodeId node,
                       std::string diagnosis, bool expected = false);

    /** Shadow hook: compare @p dry with violations_ from @p before on. */
    void compareShadow(const std::vector<Violation> &dry, size_t before);

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
    NORD_STATE_EXCLUDE(stat, "host-cost counter; restarts at 0 on restore")
    std::uint64_t transitionChecks_ = 0;

    // Shadow test hook (see setShadowFullSweep).
    NORD_STATE_EXCLUDE(config, "test hook toggled between runs")
    bool shadowOn_ = false;
    NORD_STATE_EXCLUDE(stat, "test-hook tally; dry sweeps record nothing")
    std::uint64_t shadowMismatches_ = 0;
    NORD_STATE_EXCLUDE(stat, "test-hook diagnosis of the first mismatch")
    std::string shadowFirst_;

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
