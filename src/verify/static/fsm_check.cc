/**
 * @file
 * PG-handshake product-FSM model checker implementation.
 */

#include "verify/static/fsm_check.hh"

#include <algorithm>
#include <deque>

#include "common/log.hh"

namespace nord {

namespace {

// Field ranges of the dense state encoding.
constexpr int kPowerRange = 3;
constexpr int kRampRange = 3;
constexpr int kBoolRange = 2;
constexpr int kPendingRange = 3;

constexpr std::int8_t kOn = static_cast<std::int8_t>(PowerState::kOn);
constexpr std::int8_t kOff = static_cast<std::int8_t>(PowerState::kOff);
constexpr std::int8_t kWaking =
    static_cast<std::int8_t>(PowerState::kWakingUp);

}  // namespace

const char *
fsmEventName(FsmEvent e)
{
    switch (e) {
      case FsmEvent::kTick: return "tick";
      case FsmEvent::kTickSleep: return "tick+sleep";
      case FsmEvent::kNewWork: return "new-work";
      case FsmEvent::kCommitFlit: return "commit-flit";
      case FsmEvent::kLandFlit: return "land-flit";
      case FsmEvent::kServeWork: return "serve-work";
      case FsmEvent::kBypassServe: return "bypass-serve";
      case FsmEvent::kWakeRequest: return "wake-request";
      case FsmEvent::kSuppressOn: return "suppress-on";
      case FsmEvent::kSuppressOff: return "suppress-off";
      case FsmEvent::kForcedOff: return "forced-off";
      case FsmEvent::kWatchdogWake: return "watchdog-wake";
    }
    return "?";
}

const char *
fsmPropertyName(FsmProperty p)
{
    switch (p) {
      case FsmProperty::kDeadlockFree: return "deadlock-freedom";
      case FsmProperty::kNoLostWakeup: return "no-lost-wakeup";
      case FsmProperty::kNoStWhileGated: return "no-ST-while-gated";
    }
    return "?";
}

bool
FsmState::operator==(const FsmState &o) const
{
    return power == o.power && ramp == o.ramp && wake == o.wake &&
           pending == o.pending && window == o.window &&
           inFlight == o.inFlight && buffered == o.buffered &&
           suppressed == o.suppressed;
}

std::string
FsmState::describe() const
{
    std::string s = powerStateName(static_cast<PowerState>(power));
    if (power == kWaking) {
        s += "(";
        s += std::to_string(ramp);
        s += ")";
    }
    s += " pending=";
    s += std::to_string(pending);
    if (window > 0) {
        s += " window=";
        s += std::to_string(window);
    }
    if (wake)
        s += " WU";
    if (inFlight)
        s += " in-flight";
    if (buffered)
        s += " buffered";
    if (suppressed)
        s += " suppressed";
    return s;
}

std::string
FsmCounterexample::describe() const
{
    std::string s = std::string(fsmPropertyName(property)) +
                    " violated: " + what + "\n  trace (" +
                    std::to_string(trace.size()) + " events):\n";
    for (const FsmTraceStep &step : trace) {
        s += "    ";
        s += fsmEventName(step.event);
        s += " -> [";
        s += step.next.describe();
        s += "]\n";
    }
    return s;
}

std::string
FsmResult::summary() const
{
    std::string s = "states=" + std::to_string(statesReached) + "/" +
                    std::to_string(stateSpace) + " transitions=" +
                    std::to_string(transitions);
    s += deadlockFree ? " deadlock-free=yes" : " deadlock-free=NO";
    s += noLostWakeup ? " no-lost-wakeup=yes" : " no-lost-wakeup=NO";
    s += noStWhileGated ? " no-ST-while-gated=yes"
                        : " no-ST-while-gated=NO";
    return s;
}

FsmCheck::FsmCheck(FsmOptions opts) : opts_(opts)
{
    NORD_ASSERT(opts_.wakeupThreshold >= 1, "threshold must be positive");
    thrCap_ = opts_.wakeupThreshold;
    rampLen_ = 2;
}

int
FsmCheck::encode(const FsmState &s) const
{
    int id = s.power;
    id = id * kRampRange + s.ramp;
    id = id * kBoolRange + s.wake;
    id = id * kPendingRange + s.pending;
    id = id * (thrCap_ + 1) + s.window;
    id = id * kBoolRange + s.inFlight;
    id = id * kBoolRange + s.buffered;
    id = id * kBoolRange + s.suppressed;
    return id;
}

FsmState
FsmCheck::decode(int id) const
{
    FsmState s;
    s.suppressed = static_cast<std::int8_t>(id % kBoolRange);
    id /= kBoolRange;
    s.buffered = static_cast<std::int8_t>(id % kBoolRange);
    id /= kBoolRange;
    s.inFlight = static_cast<std::int8_t>(id % kBoolRange);
    id /= kBoolRange;
    s.window = static_cast<std::int8_t>(id % (thrCap_ + 1));
    id /= (thrCap_ + 1);
    s.pending = static_cast<std::int8_t>(id % kPendingRange);
    id /= kPendingRange;
    s.wake = static_cast<std::int8_t>(id % kBoolRange);
    id /= kBoolRange;
    s.ramp = static_cast<std::int8_t>(id % kRampRange);
    id /= kRampRange;
    s.power = static_cast<std::int8_t>(id);
    return s;
}

bool
FsmCheck::sleepLegal(const FsmState &s) const
{
    // PgController::sleepAllowed(): datapath empty, no incoming flit,
    // no pending wakeup request -- minus whatever the mutation drops.
    const bool drainOk = s.buffered == 0 ||
                         opts_.mutation == FsmMutation::kNoDrainCheck;
    const bool icOk = s.inFlight == 0 ||
                      opts_.mutation == FsmMutation::kDropIcGuard ||
                      opts_.mutation == FsmMutation::kNoDrainCheck;
    return drainOk && icOk && !s.wake;
}

bool
FsmCheck::metricFired(const FsmState &s) const
{
    if (s.power != kOff)
        return false;
    if (opts_.design == PgDesign::kNord)
        return s.window >= thrCap_;
    return s.wake != 0;
}

int
FsmCheck::totalWork(const FsmState &s) const
{
    return s.pending + s.inFlight + s.buffered;
}

void
FsmCheck::tick(FsmState &s, bool sleepChoice) const
{
    // 1. Ramp completion (PgController::tick head).
    if (s.power == kWaking) {
        if (s.ramp <= 1) {
            s.power = kOn;
            s.ramp = 0;
        } else {
            --s.ramp;
        }
    }

    // 2. Policy.
    if (s.power == kOn) {
        if (sleepLegal(s) && sleepChoice) {
            s.power = kOff;
            s.ramp = 0;
            if (opts_.design == PgDesign::kNord)
                s.window = 0;  // stale window must not re-wake immediately
        }
    } else if (s.power == kOff) {
        if (opts_.design == PgDesign::kNord) {
            // NordController: sample the NI VC-request count into the
            // sliding window; waiting heads re-assert every cycle.
            s.window = static_cast<std::int8_t>(
                std::min<int>(thrCap_, s.window + s.pending));
            if (s.window >= thrCap_ && !s.suppressed) {
                s.power = kWaking;
                s.ramp = static_cast<std::int8_t>(rampLen_);
            }
        } else if (s.wake && !s.suppressed) {
            s.power = kWaking;
            s.ramp = static_cast<std::int8_t>(rampLen_);
        }
    }

    // 3. WU is a level signal: consumed once evaluated while on.
    if (s.power == kOn)
        s.wake = 0;
}

bool
FsmCheck::apply(FsmState &s, FsmEvent e) const
{
    const bool nord = opts_.design == PgDesign::kNord;
    switch (e) {
      case FsmEvent::kTick:
        tick(s, false);
        return true;
      case FsmEvent::kTickSleep:
        if (s.power != kOn || !sleepLegal(s))
            return false;
        tick(s, true);
        return true;
      case FsmEvent::kNewWork:
        if (s.pending >= kPendingRange - 1)
            return false;
        ++s.pending;
        return true;
      case FsmEvent::kCommitFlit:
        // The sender only commits while it observes the router on; the
        // hazard window (sleep decided with the flit already in flight)
        // is what the IC guard closes.
        if (s.power != kOn || s.pending == 0 || s.inFlight)
            return false;
        --s.pending;
        s.inFlight = 1;
        return true;
      case FsmEvent::kLandFlit:
        if (!s.inFlight || s.buffered)
            return false;
        s.inFlight = 0;
        s.buffered = 1;
        return true;
      case FsmEvent::kServeWork:
        if (s.power != kOn || !s.buffered)
            return false;
        s.buffered = 0;
        return true;
      case FsmEvent::kBypassServe:
        // NoRD decoupling: the NI bypass serves the node while the router
        // is gated; this is why NoRD work can always drain.
        if (!nord || s.power != kOff || s.pending == 0)
            return false;
        --s.pending;
        return true;
      case FsmEvent::kWakeRequest:
        // NordController::requestWakeup is deliberately a no-op.
        if (nord || s.power == kOn || s.wake)
            return false;
        s.wake = 1;
        return true;
      case FsmEvent::kSuppressOn:
        if (s.suppressed)
            return false;
        s.suppressed = 1;
        return true;
      case FsmEvent::kSuppressOff:
        // Under the deaf-input mutation the suppression never clears.
        if (!s.suppressed || opts_.mutation == FsmMutation::kDeafWakeupInput)
            return false;
        s.suppressed = 0;
        return true;
      case FsmEvent::kForcedOff:
        // Model the forced-off fault on an empty router only: forcing the
        // rail off with flits in the datapath deliberately breaks the
        // invariant (that is the injected bug the *runtime* auditor must
        // flag); the handshake logic itself is only responsible for never
        // getting there on its own, which kDropIcGuard/kNoDrainCheck test.
        if (s.power == kOff || s.buffered || s.inFlight)
            return false;
        s.power = kOff;
        s.ramp = 0;
        return true;
      case FsmEvent::kWatchdogWake:
        // The watchdog path is not suppressible (see PgController::tick),
        // but it only observes the *latched* WU request -- which
        // NordController never sets (its policy retries tryBeginWakeup
        // every off-cycle instead of latching). So the watchdog rescues
        // the baselines' lost wakeups, never NoRD's: exactly what the
        // model must reproduce for the deaf-input mutation to be caught.
        if (!opts_.watchdog || s.power != kOff || !s.wake)
            return false;
        s.power = kWaking;
        s.ramp = static_cast<std::int8_t>(rampLen_);
        return true;
    }
    return false;
}

std::vector<std::pair<FsmEvent, FsmState>>
FsmCheck::successors(const FsmState &s) const
{
    static constexpr FsmEvent kAll[] = {
        FsmEvent::kTick,       FsmEvent::kTickSleep,
        FsmEvent::kNewWork,    FsmEvent::kCommitFlit,
        FsmEvent::kLandFlit,   FsmEvent::kServeWork,
        FsmEvent::kBypassServe, FsmEvent::kWakeRequest,
        FsmEvent::kSuppressOn, FsmEvent::kSuppressOff,
        FsmEvent::kForcedOff,  FsmEvent::kWatchdogWake,
    };
    std::vector<std::pair<FsmEvent, FsmState>> out;
    for (FsmEvent e : kAll) {
        FsmState next = s;
        if (apply(next, e) && !(next == s))
            out.emplace_back(e, next);
    }
    return out;
}

FsmResult
FsmCheck::run()
{
    FsmResult result;
    const int space = kPowerRange * kRampRange * kBoolRange *
                      kPendingRange * (thrCap_ + 1) * kBoolRange *
                      kBoolRange * kBoolRange;
    result.stateSpace = static_cast<std::size_t>(space);

    FsmState init;
    init.power = kOn;
    if (opts_.mutation == FsmMutation::kDeafWakeupInput)
        init.suppressed = 1;  // the input is dead from the start

    // Forward BFS: reachable set + spanning tree for trace extraction.
    std::vector<bool> seen(static_cast<size_t>(space), false);
    std::vector<int> parent(static_cast<size_t>(space), -1);
    std::vector<FsmEvent> via(static_cast<size_t>(space), FsmEvent::kTick);
    std::vector<std::vector<int>> radj(static_cast<size_t>(space));
    std::deque<int> queue;

    const int initId = encode(init);
    seen[initId] = true;
    queue.push_back(initId);
    while (!queue.empty()) {
        const int id = queue.front();
        queue.pop_front();
        ++result.statesReached;
        const FsmState s = decode(id);
        for (const auto &[e, next] : successors(s)) {
            const int nid = encode(next);
            radj[nid].push_back(id);
            ++result.transitions;
            if (!seen[nid]) {
                seen[nid] = true;
                parent[nid] = id;
                via[nid] = e;
                queue.push_back(nid);
            }
        }
    }
    result.unreachableStates = result.stateSpace - result.statesReached;

    auto traceTo = [&](int id) {
        std::vector<FsmTraceStep> trace;
        for (int cur = id; parent[cur] >= 0; cur = parent[cur])
            trace.push_back({via[cur], decode(cur)});
        std::reverse(trace.begin(), trace.end());
        return trace;
    };

    // Backward reachability helper over the explored graph.
    auto backwardFrom = [&](auto &&inTarget) {
        std::vector<bool> can(static_cast<size_t>(space), false);
        std::deque<int> bq;
        for (int id = 0; id < space; ++id) {
            if (seen[id] && inTarget(decode(id))) {
                can[id] = true;
                bq.push_back(id);
            }
        }
        while (!bq.empty()) {
            const int id = bq.front();
            bq.pop_front();
            for (int prev : radj[id]) {
                if (!can[prev]) {
                    can[prev] = true;
                    bq.push_back(prev);
                }
            }
        }
        return can;
    };

    // P3 (invariant): no reachable state holds a flit inside a gated
    // router. Report the shortest-trace witness BFS found.
    result.noStWhileGated = true;
    for (int id = 0; id < space && result.noStWhileGated; ++id) {
        if (!seen[id])
            continue;
        const FsmState s = decode(id);
        if (s.power == kOff && s.buffered) {
            result.noStWhileGated = false;
            FsmCounterexample cx;
            cx.property = FsmProperty::kNoStWhileGated;
            cx.what = "a flit sits buffered inside a gated-off router";
            cx.trace = traceTo(id);
            result.counterexamples.push_back(std::move(cx));
        }
    }

    // P1 (liveness): every reachable state can drain all its work.
    const auto canDrain = backwardFrom(
        [&](const FsmState &s) { return totalWork(s) == 0; });
    result.deadlockFree = true;
    for (int id = 0; id < space && result.deadlockFree; ++id) {
        if (!seen[id] || canDrain[id])
            continue;
        result.deadlockFree = false;
        FsmCounterexample cx;
        cx.property = FsmProperty::kDeadlockFree;
        cx.what = "no continuation drains the outstanding work from [" +
                  decode(id).describe() + "]";
        cx.trace = traceTo(id);
        result.counterexamples.push_back(std::move(cx));
    }

    // P2 (liveness): a fired wakeup metric can always be served.
    const auto canWake = backwardFrom(
        [&](const FsmState &s) { return s.power != kOff; });
    result.noLostWakeup = true;
    for (int id = 0; id < space && result.noLostWakeup; ++id) {
        if (!seen[id] || canWake[id])
            continue;
        const FsmState s = decode(id);
        if (!metricFired(s))
            continue;
        result.noLostWakeup = false;
        FsmCounterexample cx;
        cx.property = FsmProperty::kNoLostWakeup;
        cx.what = "wakeup metric fired at [" + s.describe() +
                  "] but no continuation ever powers the router on";
        cx.trace = traceTo(id);
        result.counterexamples.push_back(std::move(cx));
    }

    // P4 (coverage): sample a few unreachable abstract states.
    for (int id = 0; id < space &&
                     result.unreachableSamples.size() < 3; ++id) {
        if (!seen[id])
            result.unreachableSamples.push_back(decode(id).describe());
    }
    return result;
}

}  // namespace nord
