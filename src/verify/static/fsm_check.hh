/**
 * @file
 * Bounded model checker for the power-gating handshake.
 *
 * The PG handshake's correctness claims -- a wakeup is never lost, a flit
 * is never delivered into a gated router, and the node can always drain its
 * work -- involve three interacting state machines: the PgController power
 * FSM, the NI-side wakeup logic (NoRD's sliding VC-request window or the
 * baselines' WU level signal), and the environment (traffic arrival, link
 * traversal, injected faults). This pass explores the *product* of an
 * abstraction of those machines exhaustively by BFS and checks:
 *
 *  - P1 deadlock-freedom: from every reachable state, a path exists that
 *    drains all outstanding work (weak fairness: the controller keeps
 *    ticking and helpful events may occur);
 *  - P2 no-lost-wakeup: from every reachable state whose wakeup metric has
 *    fired (NoRD: window sum at threshold while off; baselines: WU latched
 *    while off), a path exists to the router being on or ramping;
 *  - P3 no-ST-while-gated: no reachable state holds a flit inside a
 *    gated-off router's pipeline;
 *  - P4 coverage: states of the abstract space never reached are reported
 *    (several, like "gated with a buffered flit", are *supposed* to be
 *    unreachable -- their reachability is exactly a P3 violation).
 *
 * Abstraction and soundness. The model collapses quantities whose exact
 * value cannot change which handshake actions are enabled: the Vdd ramp is
 * shortened to 2 ticks (its length only delays the On transition), sleep
 * guards and emptiness streaks become a nondeterministic sleep-or-defer
 * choice whenever sleeping is legal (every guard refinement picks a subset
 * of those branches), outstanding work is capped at 2 units and the wakeup
 * window at the threshold (both saturate monotonically: more work/requests
 * only enables a superset of transitions). Each abstract event corresponds
 * to a concrete simulator action (see the table in DESIGN.md section 5.7),
 * so a counterexample trace is directly replayable against the live
 * simulator -- tests/test_static_verify.cc does exactly that.
 *
 * Mutations seed known-bad controllers for negative testing: a dead wakeup
 * command input (lost wakeups forever), dropping the incoming-flit guard
 * from the sleep check (drains into a gated router), and skipping the
 * drain check entirely.
 */

#ifndef NORD_VERIFY_STATIC_FSM_CHECK_HH
#define NORD_VERIFY_STATIC_FSM_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nord {

/** Environment / controller events of the abstract product FSM. */
enum class FsmEvent : std::int8_t
{
    kTick = 0,       ///< controller tick, policy declines to sleep
    kTickSleep,      ///< controller tick, policy elects to sleep
    kNewWork,        ///< a head flit starts waiting at the local NI
    kCommitFlit,     ///< sender commits a flit onto the link to the router
    kLandFlit,       ///< the in-flight flit arrives at the router
    kServeWork,      ///< the powered-on router serves the buffered flit
    kBypassServe,    ///< the NI bypass serves waiting work (NoRD, gated)
    kWakeRequest,    ///< neighbor/NI asserts WU (baselines only)
    kSuppressOn,     ///< fault: wakeup command input becomes stuck
    kSuppressOff,    ///< fault clears (absent under kDeafWakeupInput)
    kForcedOff,      ///< fault: rail forced off regardless of policy
    kWatchdogWake,   ///< always-on supervisor forces the ramp
};

/** Name of an event (stable, used in counterexample traces). */
const char *fsmEventName(FsmEvent e);

/** Seeded controller bugs for negative tests. */
enum class FsmMutation : std::int8_t
{
    kNone = 0,
    /**
     * The wakeup command input is permanently deaf: tryBeginWakeup()
     * always loses the command and no suppression-clearing event exists.
     * Models injectWakeupSuppression(forever); must be caught as a lost
     * wakeup (P2), and for baselines also as a deadlock (P1).
     */
    kDeafWakeupInput,
    /**
     * sleepAllowed() forgets to check the incoming-flit (IC) signal: the
     * router may gate off with a flit in flight towards it. Must be
     * caught as a flit delivered into a gated router (P3).
     */
    kDropIcGuard,
    /** sleepAllowed() forgets the datapath-drain check entirely. */
    kNoDrainCheck,
};

/** One abstract state of the product FSM. */
struct FsmState
{
    std::int8_t power = 0;      ///< PowerState numeric value
    std::int8_t ramp = 0;       ///< remaining abstract ramp ticks (0..2)
    std::int8_t wake = 0;       ///< WU level latched (baselines)
    std::int8_t pending = 0;    ///< work units waiting at the NI (0..2)
    std::int8_t window = 0;     ///< NoRD window sum, saturated at threshold
    std::int8_t inFlight = 0;   ///< flit on the link towards the router
    std::int8_t buffered = 0;   ///< flit inside the router datapath
    std::int8_t suppressed = 0; ///< wakeup commands currently lost

    bool operator==(const FsmState &o) const;
    std::string describe() const;
};

/** One step of a counterexample trace. */
struct FsmTraceStep
{
    FsmEvent event;
    FsmState next;  ///< state after the event
};

/** Checked property identifiers. */
enum class FsmProperty : std::int8_t
{
    kDeadlockFree = 0,
    kNoLostWakeup,
    kNoStWhileGated,
};

/** Name of a property. */
const char *fsmPropertyName(FsmProperty p);

/** A property violation with its replayable event trace from the
 *  initial state to the violating state. */
struct FsmCounterexample
{
    FsmProperty property;
    std::string what;            ///< human-readable diagnosis
    std::vector<FsmTraceStep> trace;

    std::string describe() const;
};

/** Model parameters. */
struct FsmOptions
{
    /** Which controller family to model. */
    PgDesign design = PgDesign::kNord;

    /** NoRD wakeup threshold (window sum that must trigger the ramp). */
    int wakeupThreshold = 2;

    /** Model the always-on wakeup watchdog (kWakeupWatchdogCycles). */
    bool watchdog = false;

    /** Seeded controller bug, if any. */
    FsmMutation mutation = FsmMutation::kNone;
};

/** Everything the exploration proved (or refuted). */
struct FsmResult
{
    std::size_t statesReached = 0;
    std::size_t transitions = 0;
    std::size_t stateSpace = 0;        ///< encodable abstract states
    std::size_t unreachableStates = 0; ///< stateSpace - statesReached

    bool deadlockFree = false;   ///< P1
    bool noLostWakeup = false;   ///< P2
    bool noStWhileGated = false; ///< P3

    /** First counterexample found per violated property. */
    std::vector<FsmCounterexample> counterexamples;

    /** A few decoded unreachable states (P4, informational). */
    std::vector<std::string> unreachableSamples;

    bool ok() const
    {
        return deadlockFree && noLostWakeup && noStWhileGated;
    }

    std::string summary() const;
};

/**
 * The checker: builds the reachable product-FSM graph by BFS from the
 * initial state (router on, everything idle) and evaluates P1-P4 by
 * invariant checks plus backward reachability over the explored graph.
 */
class FsmCheck
{
  public:
    explicit FsmCheck(FsmOptions opts);

    /** Exhaustively explore and check. Runs in milliseconds. */
    FsmResult run();

    /**
     * Execute one event on a state, as the model defines it. Exposed so
     * tests can replay counterexample traces step by step and compare
     * each abstract state against the live simulator's. Returns false
     * when the event is not enabled in @p s (state unchanged).
     */
    bool apply(FsmState &s, FsmEvent e) const;

    const FsmOptions &options() const { return opts_; }

  private:
    /** Dense encoding of a state (perfect hash over the field ranges). */
    int encode(const FsmState &s) const;
    FsmState decode(int id) const;

    /** All (event, successor) pairs enabled in @p s. */
    std::vector<std::pair<FsmEvent, FsmState>>
    successors(const FsmState &s) const;

    /** The controller-tick part of the model (policy + ramp + WU). */
    void tick(FsmState &s, bool sleepChoice) const;

    /** Is sleeping legal in @p s under the (possibly mutated) checks? */
    bool sleepLegal(const FsmState &s) const;

    /** Has the wakeup metric fired in @p s (P2 antecedent)? */
    bool metricFired(const FsmState &s) const;

    /** Total outstanding work units in @p s (P1 quantity). */
    int totalWork(const FsmState &s) const;

    FsmOptions opts_;
    int thrCap_;     ///< window saturation value
    int rampLen_;    ///< abstract ramp length in ticks
};

}  // namespace nord

#endif  // NORD_VERIFY_STATIC_FSM_CHECK_HH
