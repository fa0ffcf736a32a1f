/**
 * @file
 * Power-gating controller interface and the shared gated-on/off FSM.
 *
 * Every router owns one controller -- a small always-on circuit block that
 * monitors datapath emptiness and the PG/WU/IC handshake signals
 * (Sections 3.1 and 4.3) and drives the sleep signal. The controller is
 * ticked after routers and NIs each cycle, so wakeup requests raised during
 * the current cycle are seen the same cycle, while a state change becomes
 * visible to neighbors at the next cycle (one cycle of signal propagation).
 */

#ifndef NORD_POWERGATE_PG_CONTROLLER_HH
#define NORD_POWERGATE_PG_CONTROLLER_HH

#include <functional>
#include <string>
#include <utility>

#include "common/state_annotations.hh"
#include "common/types.hh"
#include "network/noc_config.hh"
#include "sim/clocked.hh"

namespace nord {

class Router;
class StateSerializer;
struct ActivityCounters;

/**
 * Base power-gating controller: holds the power-state FSM, residency
 * counters and wakeup bookkeeping. Subclasses implement the sleep and
 * wake policies.
 */
class PgController : public Clocked
{
  public:
    /**
     * Observer of power-state transitions (NocSystem re-arms the router
     * and its neighbours, and the InvariantAuditor checks them).
     * Arguments: cycle, old state, new state.
     */
    using TransitionListener =
        std::function<void(Cycle, PowerState, PowerState)>;

    PgController(Router &router, const NocConfig &config,
                 ActivityCounters &counters);

    /** Current power state of the controlled router. */
    PowerState state() const { return state_; }

    /** PG handshake signal: asserted whenever the router is not fully on. */
    bool pgAsserted() const { return state_ != PowerState::kOn; }

    /** A wakeup request is latched but not yet served. */
    bool wakeRequestPending() const { return wakeRequested_; }

    /** Install the transition observer (one per controller). */
    void setTransitionListener(TransitionListener listener)
    {
        listener_ = std::move(listener);
    }

    /**
     * Fault injection (testing only): force the state to Off regardless of
     * what the policy would decide. Unlike a raw state write, this goes
     * through the controller's transition path -- the listener fires, the
     * sleep counter advances and the router's sleep hook runs when its
     * drain precondition holds -- so neighbors and the auditor observe a
     * coherent (if premature) transition. Forcing off a non-empty router
     * still models the "buggy sleep policy" the auditor must flag.
     */
    void injectForcedOff(Cycle now);

    /**
     * Fault injection: the controller's wakeup command input is stuck
     * until cycle @p until -- wakeup attempts are lost. Models both a
     * stuck-at-off controller and a lost WU signal.
     */
    void injectWakeupSuppression(Cycle until)
    {
        suppressWakeUntil_ = until;
    }

    /** True while an injected fault is eating wakeup commands. */
    bool wakeupSuppressed(Cycle now) const
    {
        return now < suppressWakeUntil_;
    }

    /**
     * Permanently fail this router. From now on deadPolicy() replaces the
     * normal policy: NoRD demotes the router to always-gated (its node
     * falls back to the bypass ring); baselines pin it on and its input
     * stage eats new packets.
     */
    void markDead(Cycle now);

    /** True once markDead() was called. */
    bool dead() const { return dead_; }

    /** Times the wakeup watchdog had to force a wakeup. */
    std::uint64_t watchdogWakes() const { return watchdogWakes_; }

    /**
     * Wakeup (WU) request from a neighbor's allocation stage or the local
     * NI. Ignored while already on or waking.
     */
    virtual void requestWakeup(Cycle now);

    /** Residency accounting plus the subclass policy. */
    void tick(Cycle now) override;

    std::string name() const override;

    // Controllers are always-on hardware: never skipped, so Clocked's
    // default (never quiescent) stands.

    /**
     * Checkpoint hook: the power FSM and wakeup bookkeeping. Subclasses
     * with policy state (NordController's sliding window) extend it.
     */
    virtual void serializeState(StateSerializer &s);

  protected:
    /** Policy hook, called once per cycle after residency accounting. */
    virtual void policy(Cycle now) = 0;

    /**
     * Policy replacement once the router is dead. The default ("fail
     * active") pins the router on: a failed router cannot be trusted to
     * execute the wakeup handshake on demand, so baselines keep it
     * powered and discard what routes into it. NordController overrides
     * this with "fail gated".
     */
    virtual void deadPolicy(Cycle now);

    /**
     * Issue the wakeup command through the (possibly faulty) command
     * path: lost while suppressed, refused once dead. Returns whether the
     * ramp actually started.
     */
    bool tryBeginWakeup(Cycle now);

    /**
     * True when the router may be gated off this cycle: datapath empty,
     * no incoming (IC) flits in flight, no pending wakeup request.
     */
    bool sleepAllowed(Cycle now) const;

    /** Assert the sleep signal: transition On -> Off. */
    void beginSleep(Cycle now);

    /** De-assert the sleep signal: transition Off -> WakingUp. */
    void beginWakeup(Cycle now);

    /** Notify the transition listener (if any). */
    void notifyTransition(Cycle now, PowerState from, PowerState to);

    Router &router_;
    const NocConfig &config_;
    ActivityCounters &counters_;

    PowerState state_ = PowerState::kOn;
    NORD_STATE_EXCLUDE(config, "transition callback wired by NocSystem")
    TransitionListener listener_;
    bool wakeRequested_ = false;
    Cycle wakeDone_ = kNeverCycle;   ///< cycle the Vdd ramp completes
    Cycle emptySince_ = 0;           ///< first cycle of the current empty run
    bool wasEmpty_ = false;

    bool dead_ = false;              ///< permanently failed router
    Cycle suppressWakeUntil_ = 0;    ///< wakeup commands lost before this
    Cycle wakePendingSince_ = kNeverCycle;  ///< first cycle of the current
                                            ///< unserved wakeup request
    std::uint64_t watchdogWakes_ = 0;
};

/** Always-on controller for the No_PG baseline. */
class NoPgController : public PgController
{
  public:
    using PgController::PgController;
    void requestWakeup(Cycle now) override;

  protected:
    void policy(Cycle) override {}
};

/**
 * Conv_PG_OPT: cycles of consecutive emptiness required before gating.
 * Early wakeup lets the router skip gating for idle periods shorter than
 * ~4 cycles (Section 6.2).
 */
inline constexpr int kConvOptSleepGuard = 4;

/**
 * Wakeup watchdog: a gated router whose latched wakeup request has been
 * pending this many cycles is force-woken by an independent supervisor,
 * recovering lost or stuck wakeups. Never fires in a fault-free run (a
 * healthy controller wakes within a cycle).
 */
inline constexpr Cycle kWakeupWatchdogCycles = 128;

/**
 * Conventional power-gating (Conv_PG / Conv_PG_OPT, Section 3.1).
 *
 * Gates off as soon as the router datapath is empty (after @p sleepGuard
 * consecutive empty cycles for the OPT variant) and wakes on a WU request
 * from a neighbor's pipeline or the local NI.
 */
class ConvPgController : public PgController
{
  public:
    /**
     * @param sleepGuard consecutive empty cycles required before gating
     *        (0 for Conv_PG, kConvOptSleepGuard for Conv_PG_OPT)
     */
    ConvPgController(Router &router, const NocConfig &config,
                     ActivityCounters &counters, int sleepGuard);

  protected:
    void policy(Cycle now) override;

  private:
    int sleepGuard_;
};

}  // namespace nord

#endif  // NORD_POWERGATE_PG_CONTROLLER_HH
