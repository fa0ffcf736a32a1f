/**
 * @file
 * Power-gating controller FSM implementation.
 */

#include "powergate/pg_controller.hh"

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "router/router.hh"
#include "stats/network_stats.hh"

namespace nord {

PgController::PgController(Router &router, const NocConfig &config,
                           ActivityCounters &counters)
    : router_(router), config_(config), counters_(counters)
{
}

std::string
PgController::name() const
{
    return "pg" + std::to_string(router_.id());
}


void
PgController::requestWakeup(Cycle now)
{
    if (state_ != PowerState::kOn) {
        if (!wakeRequested_)
            wakePendingSince_ = now;
        wakeRequested_ = true;
    }
}

void
PgController::injectForcedOff(Cycle now)
{
    if (state_ == PowerState::kOff)
        return;
    const PowerState from = state_;
    state_ = PowerState::kOff;
    wakeDone_ = kNeverCycle;
    ++counters_.sleeps;
    // A healthy transition drains first. When the forced transition finds
    // an empty datapath, run the router's sleep hook so downstream state
    // (NoRD bypass enable, quiescence checks) stays coherent; when it
    // does not, the missing drain IS the injected bug -- leave the stale
    // datapath in place for the auditor to flag rather than crash on the
    // hook's precondition.
    if (router_.datapathEmpty())
        router_.onSleep(now);
    notifyTransition(now, from, PowerState::kOff);
}

void
PgController::markDead(Cycle now)
{
    if (dead_)
        return;
    dead_ = true;
    deadPolicy(now);
}

bool
PgController::tryBeginWakeup(Cycle now)
{
    if (dead_)
        return false;
    if (wakeupSuppressed(now))
        return false;  // the command is silently lost in the faulty input
    beginWakeup(now);
    return true;
}

void
PgController::deadPolicy(Cycle now)
{
    // Fail active: pin the router on. Packets that still route into it
    // are eaten at its input stage (Router::acceptFlit).
    if (state_ == PowerState::kOff) {
        // Bypass the (also dead) command path: this models the supervisor
        // forcing the rail on, not a normal WU handshake.
        beginWakeup(now);
    }
}

bool
PgController::sleepAllowed(Cycle now) const
{
    return router_.datapathEmpty() && !router_.icIncoming(now) &&
           !wakeRequested_;
}

void
PgController::notifyTransition(Cycle now, PowerState from, PowerState to)
{
    if (listener_)
        listener_(now, from, to);
}

void
PgController::beginSleep(Cycle now)
{
    NORD_ASSERT(state_ == PowerState::kOn, "sleep from state %s",
                powerStateName(state_));
    state_ = PowerState::kOff;
    ++counters_.sleeps;
    router_.onSleep(now);
    notifyTransition(now, PowerState::kOn, PowerState::kOff);
}

void
PgController::beginWakeup(Cycle now)
{
    NORD_ASSERT(state_ == PowerState::kOff, "wakeup from state %s",
                powerStateName(state_));
    state_ = PowerState::kWakingUp;
    wakeDone_ = now + config_.wakeupLatency;
    ++counters_.wakeups;
    notifyTransition(now, PowerState::kOff, PowerState::kWakingUp);
}

void
PgController::tick(Cycle now)
{
    // Track the length of the current empty run for sleep-guard policies.
    bool empty = router_.datapathEmpty();
    if (empty && !wasEmpty_)
        emptySince_ = now;
    wasEmpty_ = empty;

    // Complete an in-flight Vdd ramp. The WU level stays asserted through
    // the completion cycle so the sleep policy cannot re-gate before the
    // requester has had a cycle to use the router.
    if (state_ == PowerState::kWakingUp && now >= wakeDone_) {
        state_ = PowerState::kOn;
        wakeDone_ = kNeverCycle;
        router_.onWake(now);
        notifyTransition(now, PowerState::kWakingUp, PowerState::kOn);
    }

    if (dead_)
        deadPolicy(now);
    else
        policy(now);

    // Wakeup watchdog: an independent always-on supervisor that notices a
    // latched wakeup request going unserved far longer than a healthy
    // handshake ever takes (the policy wakes within a cycle) and forces
    // the ramp, recovering lost/stuck wakeup commands. Never fires in a
    // fault-free run.
    if (!dead_ && state_ == PowerState::kOff && wakeRequested_ &&
        wakePendingSince_ != kNeverCycle &&
        now - wakePendingSince_ >= kWakeupWatchdogCycles) {
        suppressWakeUntil_ = 0;  // the watchdog path is not suppressible
        beginWakeup(now);
        ++watchdogWakes_;
    }

    // WU is a level signal: requesters re-assert it every cycle they
    // still need the router, so consume it once evaluated while on.
    if (state_ == PowerState::kOn) {
        wakeRequested_ = false;
        wakePendingSince_ = kNeverCycle;
    }

    switch (state_) {
      case PowerState::kOn: ++counters_.onCycles; break;
      case PowerState::kOff: ++counters_.offCycles; break;
      case PowerState::kWakingUp: ++counters_.wakingCycles; break;
    }
}

void
PgController::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("PGC "));
    s.io(state_);
    s.io(wakeRequested_);
    s.io(wakeDone_);
    s.io(emptySince_);
    s.io(wasEmpty_);
    s.io(dead_);
    s.io(suppressWakeUntil_);
    s.io(wakePendingSince_);
    s.io(watchdogWakes_);
}

void
NoPgController::requestWakeup(Cycle)
{
    // Requesters still drive the WU wire; it just has no effect here.
}

ConvPgController::ConvPgController(Router &router, const NocConfig &config,
                                   ActivityCounters &counters,
                                   int sleepGuard)
    : PgController(router, config, counters), sleepGuard_(sleepGuard)
{
}

void
ConvPgController::policy(Cycle now)
{
    switch (state_) {
      case PowerState::kOn:
        if (sleepAllowed(now) && wasEmpty_ &&
            now - emptySince_ >= static_cast<Cycle>(sleepGuard_)) {
            beginSleep(now);
        }
        break;
      case PowerState::kOff:
        if (wakeRequested_)
            tryBeginWakeup(now);
        break;
      case PowerState::kWakingUp:
        break;
    }
}

}  // namespace nord
