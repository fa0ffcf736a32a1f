/**
 * @file
 * Fault-injection campaign engine implementation.
 */

#include "fault/fault_injector.hh"

#include <algorithm>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "network/noc_system.hh"
#include "verify/invariant_auditor.hh"

namespace nord {

FaultInjector::FaultInjector(NocSystem &sys, const NocConfig &config)
    : sys_(sys),
      config_(config),
      rng_(config.seed, RngStream::kFaults),
      schedule_(config.fault.schedule)
{
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
}

void
FaultInjector::dispatchScheduled(Cycle now)
{
    while (scheduleIdx_ < schedule_.size() &&
           schedule_[scheduleIdx_].at <= now) {
        const FaultEvent &ev = schedule_[scheduleIdx_++];
        PgController &ctl = sys_.controller(ev.node);
        switch (ev.cls) {
          case FaultClass::kDeadRouter:
            ctl.markDead(now);
            ++counts_.dead;
            break;
          case FaultClass::kStuckPg:
            ctl.injectWakeupSuppression(now + ev.duration);
            ++counts_.stuck;
            break;
          case FaultClass::kLostWakeup:
            ctl.injectWakeupSuppression(
                now + (ev.duration > 0 ? ev.duration
                                       : config_.fault.lostWakeupStall));
            ++counts_.lostWakeup;
            break;
          default:
            NORD_PANIC("fault class %s cannot be scheduled",
                       faultClassName(ev.cls));
        }
    }
}

void
FaultInjector::injectTransients(Cycle now)
{
    const FaultConfig &fc = config_.fault;
    const int n = config_.numNodes();

    // Fixed component order (router id, then direction) keeps a campaign
    // reproducible for a given seed and network evolution.
    for (NodeId id = 0; id < n; ++id) {
        Router &r = sys_.router(id);

        if (fc.flitCorruptRate > 0 || fc.flitDropRate > 0) {
            for (int d = 0; d < kNumMeshDirs; ++d) {
                FlitLink *link = r.outputLinkMut(indexDir(d));
                if (!link || link->empty())
                    continue;
                if (fc.flitCorruptRate > 0 &&
                    rng_.bernoulli(fc.flitCorruptRate)) {
                    if (link->injectTransientFault(false, rng_.next64()))
                        ++counts_.corrupt;
                }
                if (fc.flitDropRate > 0 &&
                    rng_.bernoulli(fc.flitDropRate)) {
                    if (link->injectTransientFault(true, 0))
                        ++counts_.drop;
                }
            }
        }

        if (fc.creditLeakRate > 0 && rng_.bernoulli(fc.creditLeakRate)) {
            const Direction dir =
                indexDir(static_cast<int>(rng_.uniformInt(kNumMeshDirs)));
            const VcId vc = static_cast<VcId>(
                rng_.uniformInt(static_cast<std::uint64_t>(config_.numVcs)));
            // Only a held credit can be lost in flight.
            if (r.neighborRouter(dir) && r.creditCount(dir, vc) > 0) {
                r.injectCreditLeak(dir, vc);
                if (auditor_)
                    auditor_->expectCreditDeficit(id, dir, vc);
                ++counts_.creditLeak;
            }
        }

        if (fc.lostWakeupRate > 0) {
            PgController &ctl = sys_.controller(id);
            if (ctl.state() == PowerState::kOff && !ctl.dead() &&
                rng_.bernoulli(fc.lostWakeupRate)) {
                ctl.injectWakeupSuppression(now + fc.lostWakeupStall);
                ++counts_.lostWakeup;
            }
        }
    }
}

void
FaultInjector::tick(Cycle now)
{
    dispatchScheduled(now);
    injectTransients(now);
}

void
FaultInjector::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("FINJ"));
    s.io(rng_);
    std::uint64_t idx = scheduleIdx_;
    s.io(idx);
    scheduleIdx_ = static_cast<size_t>(idx);
    s.io(counts_.corrupt);
    s.io(counts_.drop);
    s.io(counts_.creditLeak);
    s.io(counts_.lostWakeup);
    s.io(counts_.stuck);
    s.io(counts_.dead);
}


}  // namespace nord
