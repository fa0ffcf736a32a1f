/**
 * @file
 * Fault-injection campaign engine implementation.
 */

#include "fault/fault_injector.hh"

#include "ckpt/state_serializer.hh"
#include "network/noc_system.hh"
#include "verify/invariant_auditor.hh"

namespace nord {

FaultInjector::FaultInjector(NocSystem &sys, const NocConfig &config)
    : sys_(sys), config_(config), rng_(config.seed, RngStream::kFaults)
{
}

void
FaultInjector::tick(Cycle now)
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
                ctl.injectWakeupSuppression(now + kLostWakeupStall);
                ++counts_.lostWakeup;
            }
        }
    }
}

void
FaultInjector::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("FINJ"));
    s.io(rng_);
    s.io(counts_.corrupt);
    s.io(counts_.drop);
    s.io(counts_.creditLeak);
    s.io(counts_.lostWakeup);
}

}  // namespace nord
