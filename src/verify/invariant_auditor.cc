/**
 * @file
 * Invariant auditor implementation.
 */

#include "verify/invariant_auditor.hh"

#include <cstdio>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "network/noc_system.hh"

namespace nord {

using detail::formatString;

namespace {

/**
 * Liveness watchdog: cycles without any network-wide forward progress
 * (while flits are in flight) before declaring deadlock.
 */
constexpr Cycle kStallThreshold = 20000;

}  // namespace

InvariantAuditor::InvariantAuditor(const NocSystem &sys,
                                   const VerifyConfig &config)
    : sys_(sys), config_(config)
{
}

const char *
InvariantAuditor::kindName(Kind k)
{
    switch (k) {
      case Kind::kFlitConservation: return "flit-conservation";
      case Kind::kCreditConservation: return "credit-conservation";
      case Kind::kVcState: return "vc-state";
      case Kind::kPgSafety: return "pg-safety";
      case Kind::kLiveness: return "liveness";
      case Kind::kE2eTimers: return "e2e-timers";
    }
    return "unknown";
}

bool
InvariantAuditor::hasViolation(Kind k) const
{
    for (const Violation &v : violations_) {
        if (v.kind == k)
            return true;
    }
    return false;
}

size_t
InvariantAuditor::unexpectedViolations() const
{
    size_t count = 0;
    for (const Violation &v : violations_) {
        if (!v.expected)
            ++count;
    }
    return count;
}

void
InvariantAuditor::expectCreditDeficit(NodeId node, Direction dir, VcId vc)
{
    ++expectedLeaks_[leakKey(node, dir, vc)];
}

void
InvariantAuditor::report(Pass &p, Kind kind, NodeId node,
                         std::string diagnosis, bool expected)
{
    p.out.push_back({kind, node, p.now, std::move(diagnosis), expected});
}

std::uint64_t
InvariantAuditor::inNetworkFlits() const
{
    // Eaten flits (discarded at a dead router's input stage) left the
    // network without being ejected.
    const NetworkStats &stats = sys_.stats();
    return stats.flitsInjected() - stats.flitsEjected() -
           stats.flitsEaten();
}

std::uint64_t
InvariantAuditor::progressCounter() const
{
    const ActivityCounters totals = sys_.stats().totals();
    return totals.linkTraversals + totals.bufferReads +
           totals.bypassForwards + sys_.stats().flitsInjected() +
           sys_.stats().flitsEjected() + sys_.stats().flitsEaten();
}

// --- Invariant 1: flit conservation ---------------------------------------

void
InvariantAuditor::checkFlitConservation(Pass &p)
{
    const int n = sys_.config().numNodes();
    std::uint64_t inBuffers = 0;
    std::uint64_t inLinks = 0;
    std::uint64_t inEjectQs = 0;
    std::uint64_t inLatches = 0;
    std::uint64_t inStage3 = 0;
    for (NodeId id = 0; id < n; ++id) {
        const Router &r = sys_.router(id);
        const NetworkInterface &ni = sys_.ni(id);
        inBuffers += static_cast<std::uint64_t>(r.bufferedFlits());
        inEjectQs += ni.ejectQueueDepth();
        inLatches += static_cast<std::uint64_t>(ni.latchOccupancy());
        inStage3 += ni.stage3Depth();
        for (int d = 0; d < kNumMeshDirs; ++d) {
            const FlitLink *link = r.outputLink(indexDir(d));
            if (link)
                inLinks += link->inFlight();
        }
    }
    const std::uint64_t counted =
        inBuffers + inLinks + inEjectQs + inLatches + inStage3;
    const std::uint64_t expected = inNetworkFlits();
    if (counted != expected) {
        report(p, Kind::kFlitConservation, kInvalidNode,
               formatString(
                   "flit conservation broken: %llu flits in network "
                   "(injected %llu - ejected %llu - eaten %llu) but %llu "
                   "accounted for "
                   "(buffers %llu, links %llu, eject queues %llu, bypass "
                   "latches %llu, stage-3 %llu); %llu flit(s) %s",
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(
                       sys_.stats().flitsInjected()),
                   static_cast<unsigned long long>(
                       sys_.stats().flitsEjected()),
                   static_cast<unsigned long long>(
                       sys_.stats().flitsEaten()),
                   static_cast<unsigned long long>(counted),
                   static_cast<unsigned long long>(inBuffers),
                   static_cast<unsigned long long>(inLinks),
                   static_cast<unsigned long long>(inEjectQs),
                   static_cast<unsigned long long>(inLatches),
                   static_cast<unsigned long long>(inStage3),
                   static_cast<unsigned long long>(
                       counted > expected ? counted - expected
                                          : expected - counted),
                   counted > expected ? "duplicated" : "lost"));
    }
}

// --- Invariant 2: credit conservation -------------------------------------

void
InvariantAuditor::checkLinkCredits(Pass &p, NodeId id, Direction dir,
                                   VcId onlyVc)
{
    const NocConfig &cfg = sys_.config();
    const Router &up = sys_.router(id);
    const Router *down = up.neighborRouter(dir);
    if (!down)
        return;
    const FlitLink *flink = up.outputLink(dir);
    const CreditLink *clink = down->creditReturnLink(opposite(dir));
    const bool ringEdge = cfg.design == PgDesign::kNord &&
                          dir == sys_.ring().bypassOutport(id);
    // Section 4.3 credit re-adjustment: while the upstream sees the ring
    // successor as gated, its credit view shrinks to the single NI bypass
    // latch slot per VC.
    const int expected = ringEdge && up.outputGatedView(dir)
        ? 1 : cfg.bufferDepth;
    const NetworkInterface &upNi = sys_.ni(id);
    const NetworkInterface &downNi = sys_.ni(down->id());

    const VcId first = onlyVc == kInvalidVc ? 0 : onlyVc;
    const VcId last = onlyVc == kInvalidVc ? cfg.numVcs - 1 : onlyVc;
    for (VcId v = first; v <= last; ++v) {
        int sum = up.creditCount(dir, v);
        if (clink)
            sum += clink->inFlightForVc(v);
        sum += flink->inFlightForVc(v);
        sum += down->probeVc(opposite(dir), v).occupancy;
        if (ringEdge) {
            // Flits redirected into the successor's bypass latch, plus
            // flits staged in this NI that already reserved a credit of
            // this link but have not hit the wire.
            sum += static_cast<int>(downNi.latchSlotDepth(v));
            sum += upNi.stage3CountForVc(v);
        }
        if (sum == expected)
            continue;
        // A deficit the FaultInjector announced is an expected consequence
        // of the campaign, not a bug; the recover policy restores the
        // upstream counter in place.
        bool announced = false;
        bool repaired = false;
        if (sum < expected) {
            const int deficit = expected - sum;
            auto it = expectedLeaks_.find(leakKey(id, dir, v));
            if (it != expectedLeaks_.end() && it->second >= deficit) {
                announced = true;
                if (p.repair && config_.policy == AuditPolicy::kRecover &&
                    mutableSys_) {
                    mutableSys_->router(id).repairCredits(dir, v, deficit);
                    it->second -= deficit;
                    if (it->second == 0)
                        expectedLeaks_.erase(it);
                    recovered_ += static_cast<std::uint64_t>(deficit);
                    repaired = true;
                }
            }
        }
        report(p, Kind::kCreditConservation, id,
               formatString(
                   "credit conservation broken on link %d->%d (%s) vc %d: "
                   "credits %d + in-flight credits %d + in-flight flits %d "
                   "+ downstream occupancy %d%s = %d, expected %d "
                   "(gatedView=%d ringEdge=%d)%s",
                   id, down->id(), dirName(dir), v, up.creditCount(dir, v),
                   clink ? clink->inFlightForVc(v) : 0,
                   flink->inFlightForVc(v),
                   down->probeVc(opposite(dir), v).occupancy,
                   ringEdge ? " + latch/stage3" : "", sum, expected,
                   up.outputGatedView(dir) ? 1 : 0, ringEdge ? 1 : 0,
                   repaired ? " [injected leak, repaired]"
                   : announced ? " [injected leak]" : ""),
               announced);
    }
}

void
InvariantAuditor::checkNodeCredits(Pass &p, NodeId id)
{
    for (int d = 0; d < kNumMeshDirs; ++d)
        checkLinkCredits(p, id, indexDir(d));

    // Local injection port: the NI's credit counter plus the local input
    // VC occupancy must equal the buffer depth (credit return is
    // combinational, so no in-flight term).
    const NocConfig &cfg = sys_.config();
    const Router &r = sys_.router(id);
    const NetworkInterface &ni = sys_.ni(id);
    for (VcId v = 0; v < cfg.numVcs; ++v) {
        const int sum =
            ni.localCredit(v) + r.probeVc(Direction::kLocal, v).occupancy;
        if (sum != cfg.bufferDepth) {
            report(p, Kind::kCreditConservation, id,
                   formatString(
                       "local-port credit conservation broken at router "
                       "%d vc %d: NI credits %d + local buffer occupancy "
                       "%d != depth %d",
                       id, v, ni.localCredit(v),
                       r.probeVc(Direction::kLocal, v).occupancy,
                       cfg.bufferDepth));
        }
    }
}

// --- Invariant 3: VC state-machine legality --------------------------------

void
InvariantAuditor::checkVcStates(Pass &p, NodeId id)
{
    const NocConfig &cfg = sys_.config();
    const bool isNord = cfg.design == PgDesign::kNord;
    const Router &r = sys_.router(id);

    // holders[o][v]: active input VCs that claim output VC (o, v)
    // (NocConfig::problems() bounds numVcs at 64).
    int holders[kNumPorts][64] = {};
    // Full-scan occupancy, against the router's O(1) counters below.
    int scanBuffered = 0;
    bool scanEmpty = true;

    for (int port = 0; port < kNumPorts; ++port) {
        // Full-scan work masks, against the router's per-stage masks.
        Router::WorkMasks scan;
        for (VcId v = 0; v < cfg.numVcs; ++v) {
            const Router::VcProbe vc = r.probeVc(indexDir(port), v);
            scanBuffered += vc.occupancy;
            scanEmpty = scanEmpty && vc.occupancy == 0 &&
                        vc.state == Router::VcState::kIdle;
            const std::uint64_t bit = std::uint64_t{1} << v;
            if (vc.state == Router::VcState::kIdle && vc.occupancy > 0)
                scan.rc |= bit;
            if (vc.state == Router::VcState::kVcAlloc)
                scan.va |= bit;
            if (vc.state == Router::VcState::kActive && vc.occupancy > 0)
                scan.sa |= bit;
            switch (vc.state) {
              case Router::VcState::kIdle:
                if (vc.outVc != kInvalidVc || vc.sentAny) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d idle but "
                               "outVc=%d sentAny=%d",
                               id, dirName(indexDir(port)), v, vc.outVc,
                               vc.sentAny ? 1 : 0));
                }
                // A freshly arrived packet may sit one cycle in an
                // idle VC before RC; its front flit must be a head.
                if (vc.occupancy > 0 && !vc.frontIsHead) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d idle with a "
                               "non-head flit buffered (orphaned "
                               "body/tail)",
                               id, dirName(indexDir(port)), v));
                }
                break;
              case Router::VcState::kRouting:
                report(p, Kind::kVcState, id,
                       formatString(
                           "router %d port %s vc %d in unreachable "
                           "state kRouting",
                           id, dirName(indexDir(port)), v));
                break;
              case Router::VcState::kVcAlloc:
                if (vc.occupancy == 0 || !vc.frontIsHead ||
                    vc.outVc != kInvalidVc || vc.sentAny) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d in VcAlloc "
                               "with occupancy=%d frontIsHead=%d "
                               "outVc=%d sentAny=%d",
                               id, dirName(indexDir(port)), v,
                               vc.occupancy, vc.frontIsHead ? 1 : 0,
                               vc.outVc, vc.sentAny ? 1 : 0));
                }
                break;
              case Router::VcState::kActive: {
                if (vc.outVc < 0 || vc.outVc >= cfg.numVcs) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d active with "
                               "invalid output VC %d",
                               id, dirName(indexDir(port)), v, vc.outVc));
                    break;
                }
                ++holders[dirIndex(vc.outPort)][vc.outVc];
                if (!r.outVcBusy(vc.outPort, vc.outVc)) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d holds output "
                               "VC %s/%d that is not marked busy",
                               id, dirName(indexDir(port)), v,
                               dirName(vc.outPort), vc.outVc));
                }
                // Tail-flit accounting: before the first flit leaves
                // the front must be the head; afterwards the head is
                // gone and only body/tail flits may be buffered.
                if (vc.occupancy > 0 &&
                    vc.frontIsHead == vc.sentAny) {
                    report(p, Kind::kVcState, id,
                           formatString(
                               "router %d port %s vc %d active with "
                               "sentAny=%d but frontIsHead=%d (tail "
                               "accounting broken)",
                               id, dirName(indexDir(port)), v,
                               vc.sentAny ? 1 : 0,
                               vc.frontIsHead ? 1 : 0));
                }
                break;
              }
            }
        }
        const Router::WorkMasks kept = r.workMasks(indexDir(port));
        if (kept.rc != scan.rc || kept.va != scan.va || kept.sa != scan.sa) {
            report(p, Kind::kVcState, id,
                   formatString(
                       "router %d port %s work masks out of sync: "
                       "rc/va/sa = %#llx/%#llx/%#llx, but its VCs give "
                       "%#llx/%#llx/%#llx",
                       id, dirName(indexDir(port)),
                       static_cast<unsigned long long>(kept.rc),
                       static_cast<unsigned long long>(kept.va),
                       static_cast<unsigned long long>(kept.sa),
                       static_cast<unsigned long long>(scan.rc),
                       static_cast<unsigned long long>(scan.va),
                       static_cast<unsigned long long>(scan.sa)));
        }
    }

    if (r.bufferedFlits() != scanBuffered ||
        r.datapathEmpty() != scanEmpty) {
        report(p, Kind::kVcState, id,
               formatString(
                   "router %d occupancy counters out of sync: "
                   "bufferedFlits()=%d datapathEmpty()=%d, but its VCs "
                   "hold %d flit(s) and are %s",
                   id, r.bufferedFlits(), r.datapathEmpty() ? 1 : 0,
                   scanBuffered, scanEmpty ? "all idle and empty"
                                           : "not all idle and empty"));
    }

    // Output-VC ownership: held at most once; every busy VC has an
    // owner (pipeline input VC, or the NI bypass datapath on the
    // Bypass Outport).
    for (int o = 0; o < kNumPorts; ++o) {
        const Direction dir = indexDir(o);
        const bool bypassOut =
            isNord && dir == sys_.ring().bypassOutport(id);
        for (VcId v = 0; v < cfg.numVcs; ++v) {
            if (holders[o][v] > 1) {
                report(p, Kind::kVcState, id,
                       formatString(
                           "router %d output VC %s/%d held by %d "
                           "input VCs simultaneously",
                           id, dirName(dir), v, holders[o][v]));
            }
            if (r.outVcBusy(dir, v) && holders[o][v] == 0 &&
                !(bypassOut && sys_.ni(id).holdsBypassOutVc(v))) {
                report(p, Kind::kVcState, id,
                       formatString(
                           "router %d leaked output VC %s/%d (busy "
                           "with no owner)",
                           id, dirName(dir), v));
            }
        }
    }
}

// --- Invariant 4: power-gating handshake safety ----------------------------

void
InvariantAuditor::checkPgSafety(Pass &p, NodeId id, bool controllersSettled)
{
    const NocConfig &cfg = sys_.config();
    const bool isNord = cfg.design == PgDesign::kNord;
    const Router &r = sys_.router(id);
    const PowerState st = r.powerState();

    // A kDrain->off transition (and the whole gated residency) is
    // only legal with a provably empty datapath.
    if (st != PowerState::kOn && !r.datapathEmpty()) {
        report(p, Kind::kPgSafety, id,
               formatString(
                   "router %d is %s with %d flit(s) still buffered in "
                   "its datapath (gated while non-empty)",
                   id, powerStateName(st), r.bufferedFlits()));
    }

    // No flit may be in flight toward a router that is not fully on,
    // except on the NoRD bypass-ring edge (which the downstream NI
    // latches without powering the router).
    for (int d = 0; d < kNumMeshDirs; ++d) {
        const Direction dir = indexDir(d);
        const Router *down = r.neighborRouter(dir);
        const FlitLink *link = r.outputLink(dir);
        if (!down || !link || link->empty())
            continue;
        if (down->powerState() == PowerState::kOn)
            continue;
        const bool bypassEdge =
            isNord && dir == sys_.ring().bypassOutport(id);
        if (!bypassEdge) {
            report(p, Kind::kPgSafety, id,
                   formatString(
                       "%zu flit(s) in flight from router %d toward "
                       "router %d (%s) which is %s -- they would "
                       "arrive at a gated pipeline",
                       link->inFlight(), id, down->id(), dirName(dir),
                       powerStateName(down->powerState())));
        }
    }

    // Lost wakeup: once every controller has evaluated its policy
    // this cycle, a latched WU request on a gated conventional router
    // must have started the Vdd ramp. (NoRD ignores WU by design --
    // the bypass transports the packet instead.)
    if (controllersSettled && (cfg.design == PgDesign::kConvPg ||
                               cfg.design == PgDesign::kConvPgOpt)) {
        const PgController &ctl = sys_.controller(id);
        if (ctl.state() == PowerState::kOff &&
            ctl.wakeRequestPending()) {
            // An injected suppression (or a dead controller) explains
            // the lost wakeup; the watchdog recovers the former.
            const bool injected =
                ctl.dead() || ctl.wakeupSuppressed(p.now);
            report(p, Kind::kPgSafety, id,
                   formatString(
                       "router %d has a pending wakeup request but "
                       "its controller stayed off (wakeup lost)%s",
                       id,
                       injected ? " [injected fault; watchdog "
                                  "pending]" : ""),
                   injected);
        }
    }
}

// --- Invariant 5: liveness -------------------------------------------------

std::string
InvariantAuditor::routeDiagnosis(const Flit &flit, Cycle now) const
{
    const MeshTopology &mesh = sys_.mesh();
    std::string out = formatString(
        "packet %llu seq %d (%d->%d, hops %d, misroutes %d, escape %d, "
        "injected at %llu, age %llu):",
        static_cast<unsigned long long>(flit.packet), flit.seq, flit.src,
        flit.dst, flit.hops, flit.misroutes, flit.onEscape ? 1 : 0,
        static_cast<unsigned long long>(flit.injectedAt),
        static_cast<unsigned long long>(now - flit.injectedAt));
    // Walk the minimal XY path: the canonical route the packet would take
    // with everything powered on; the PG states along it explain most
    // stalls even for adaptively routed packets.
    NodeId at = flit.src;
    for (int hop = 0; hop < mesh.numNodes(); ++hop) {
        const Router &r = sys_.router(at);
        out += formatString(" [%d %s occ=%d]", at,
                            powerStateName(r.powerState()),
                            r.bufferedFlits());
        if (at == flit.dst)
            break;
        if (mesh.colOf(at) != mesh.colOf(flit.dst)) {
            at = mesh.neighbor(at, mesh.colOf(flit.dst) > mesh.colOf(at)
                                       ? Direction::kEast
                                       : Direction::kWest);
        } else {
            at = mesh.neighbor(at, mesh.rowOf(flit.dst) > mesh.rowOf(at)
                                       ? Direction::kSouth
                                       : Direction::kNorth);
        }
    }
    // The route the flit *actually* took (every router and NI it touched,
    // newest last), which the minimal-path walk above cannot show for
    // adaptively routed or bypassing packets.
    out += formatString("; route history (%slast %d):",
                        flit.visitedCount >= kRouteHistoryDepth
                            ? "truncated, " : "",
                        static_cast<int>(flit.visitedCount));
    for (int i = 0; i < flit.visitedCount; ++i)
        out += formatString(" %d", static_cast<int>(flit.visited[i]));
    return out;
}

std::string
InvariantAuditor::stallDiagnosis(Cycle now) const
{
    const int n = sys_.config().numNodes();
    std::string out = formatString(
        "%llu flit(s) in network at cycle %llu; non-idle routers:",
        static_cast<unsigned long long>(inNetworkFlits()),
        static_cast<unsigned long long>(now));
    for (NodeId id = 0; id < n; ++id) {
        const Router &r = sys_.router(id);
        const NetworkInterface &ni = sys_.ni(id);
        const int held = r.bufferedFlits() + ni.latchOccupancy() +
                         static_cast<int>(ni.stage3Depth());
        if (held == 0 && r.powerState() == PowerState::kOn)
            continue;
        out += formatString(" [%d %s buf=%d latch=%d s3=%zu]", id,
                            powerStateName(r.powerState()),
                            r.bufferedFlits(), ni.latchOccupancy(),
                            ni.stage3Depth());
    }
    return out;
}

void
InvariantAuditor::checkFlitAges(Pass &p)
{
    const Cycle now = p.now;
    const int n = sys_.config().numNodes();
    bool found = false;
    Flit oldest;
    Cycle oldestAge = 0;
    const auto consider = [&](const Flit &f) {
        const Cycle age = now >= f.injectedAt ? now - f.injectedAt : 0;
        if (!found || age > oldestAge) {
            found = true;
            oldest = f;
            oldestAge = age;
        }
    };
    for (NodeId id = 0; id < n; ++id) {
        const Router &r = sys_.router(id);
        r.forEachBufferedFlit(
            [&](Direction, VcId, const Flit &f) { consider(f); });
        sys_.ni(id).forEachPendingFlit(consider);
        for (int d = 0; d < kNumMeshDirs; ++d) {
            const FlitLink *link = r.outputLink(indexDir(d));
            if (link)
                link->forEachInFlight(consider);
        }
    }
    if (found && oldestAge > config_.maxFlitAge) {
        report(p, Kind::kLiveness, oldest.src,
               formatString("flit exceeded the age bound of %llu cycles "
                            "(livelock suspected); ",
                            static_cast<unsigned long long>(
                                config_.maxFlitAge)) +
                   routeDiagnosis(oldest, now));
    }
}

// --- Invariant 6: E2E timer bookkeeping -------------------------------------

void
InvariantAuditor::checkE2eTimers(Pass &p, NodeId id)
{
    const E2eEndpoint *e2e = sys_.ni(id).e2e();
    if (!e2e)
        return;
    const E2eEndpoint::TimerProbe t = e2e->probeTimers();
    if (t.keptBound > t.scanEarliest) {
        report(p, Kind::kE2eTimers, id,
               formatString(
                   "node %d E2E timers out of sync: deadline bound %llu, "
                   "but its retransmission buffer has one due at %llu",
                   id, static_cast<unsigned long long>(t.keptBound),
                   static_cast<unsigned long long>(t.scanEarliest)));
    }
}

void
InvariantAuditor::watchdog(Cycle now)
{
    const std::uint64_t progress = progressCounter();
    if (inNetworkFlits() == 0 || progress != lastProgress_) {
        lastProgress_ = progress;
        lastProgressCycle_ = now;
        stallReported_ = false;
        return;
    }
    if (!stallReported_ && now - lastProgressCycle_ > kStallThreshold) {
        stallReported_ = true;
        violations_.push_back(
            {Kind::kLiveness, kInvalidNode, now,
             formatString("no forward progress for %llu cycles "
                          "(deadlock suspected); ",
                          static_cast<unsigned long long>(
                              now - lastProgressCycle_)) +
                 stallDiagnosis(now)});
    }
}

// --- Driver ----------------------------------------------------------------

void
InvariantAuditor::fullSweep(Pass &p, bool controllersSettled)
{
    const int n = sys_.config().numNodes();
    checkFlitConservation(p);
    for (NodeId id = 0; id < n; ++id)
        checkNodeCredits(p, id);
    for (NodeId id = 0; id < n; ++id)
        checkVcStates(p, id);
    for (NodeId id = 0; id < n; ++id)
        checkPgSafety(p, id, controllersSettled);
    checkFlitAges(p);
    for (NodeId id = 0; id < n; ++id)
        checkE2eTimers(p, id);
}

void
InvariantAuditor::scopedCheck(Pass &p, const Scope &scope)
{
    // Credit conservation over the scope's routers, merged in node order
    // with the announced-leak links elsewhere (expectedLeaks_ iterates in
    // (node, dir, VC) order), so findings land where a full sweep would
    // put them. The cursor moves past a key before its check, which may
    // erase that key on repair.
    auto leak = expectedLeaks_.begin();
    const auto leakNode = [](std::uint64_t key) {
        return static_cast<NodeId>(key >> 16);
    };
    const auto checkLeaksBefore = [&](NodeId bound) {
        while (leak != expectedLeaks_.end() && leakNode(leak->first) < bound) {
            const std::uint64_t key = (leak++)->first;
            checkLinkCredits(p, leakNode(key),
                             indexDir(static_cast<int>((key >> 8) & 0xff)),
                             static_cast<VcId>(key & 0xff));
        }
    };
    for (int i = 0; i < scope.count; ++i) {
        const NodeId id = scope.ids[i];
        checkLeaksBefore(id);
        while (leak != expectedLeaks_.end() && leakNode(leak->first) == id)
            ++leak;  // this router's links are all checked below
        checkNodeCredits(p, id);
    }
    checkLeaksBefore(sys_.config().numNodes());

    for (int i = 0; i < scope.count; ++i)
        checkVcStates(p, scope.ids[i]);
    // Mid-cycle: later controllers have not evaluated their policies yet,
    // so the lost-wakeup check would raise false alarms.
    for (int i = 0; i < scope.count; ++i)
        checkPgSafety(p, scope.ids[i], false);
}

size_t
InvariantAuditor::sweep(Cycle now)
{
    const size_t before = violations_.size();
    ++sweeps_;
    Pass p{now, violations_, true};
    fullSweep(p, true);
    return violations_.size() - before;
}

void
InvariantAuditor::applyPolicy(size_t before, Cycle now)
{
    if (violations_.size() == before)
        return;
    const Violation *firstUnexpected = nullptr;
    size_t newUnexpected = 0;
    for (size_t i = before; i < violations_.size(); ++i) {
        const Violation &v = violations_[i];
        // Expected violations are part of the configured fault campaign:
        // narrate only what could not be attributed or repaired.
        if (v.expected)
            continue;
        ++newUnexpected;
        if (!firstUnexpected)
            firstUnexpected = &v;
        std::fprintf(diagStream(), "[auditor] %s: %s\n", kindName(v.kind),
                     v.diagnosis.c_str());
    }
    if (config_.policy != AuditPolicy::kAbort || newUnexpected == 0)
        return;
    sys_.dumpState(diagStream());
    NORD_PANIC("invariant audit failed at cycle %llu with %zu new "
               "unexpected violation(s); first: [%s] %s",
               static_cast<unsigned long long>(now),
               newUnexpected, kindName(firstUnexpected->kind),
               firstUnexpected->diagnosis.c_str());
}

void
InvariantAuditor::tick(Cycle now)
{
    if (!enabled())
        return;
    const size_t before = violations_.size();
    watchdog(now);
    if (now % config_.interval == 0)
        sweep(now);
    applyPolicy(before, now);
}

void
InvariantAuditor::onPowerTransition(Cycle now, NodeId router)
{
    if (!enabled())
        return;
    Scope scope;
    scope.ids[scope.count++] = router;
    for (int d = 0; d < kNumMeshDirs; ++d) {
        const NodeId nb = sys_.mesh().neighbor(router, indexDir(d));
        if (nb == kInvalidNode)
            continue;
        int i = scope.count++;  // insertion keeps the ids ascending
        for (; i > 0 && scope.ids[i - 1] > nb; --i)
            scope.ids[i] = scope.ids[i - 1];
        scope.ids[i] = nb;
    }

    std::vector<Violation> dry;
    if (shadowOn_) {
        Pass shadowPass{now, dry, false};
        fullSweep(shadowPass, false);
    }
    const size_t before = violations_.size();
    ++transitionChecks_;
    Pass p{now, violations_, true};
    scopedCheck(p, scope);
    if (shadowOn_)
        compareShadow(dry, before);
    applyPolicy(before, now);
}

void
InvariantAuditor::compareShadow(const std::vector<Violation> &dry,
                                size_t before)
{
    const auto same = [](const Violation &a, const Violation &b) {
        return a.kind == b.kind && a.node == b.node && a.cycle == b.cycle &&
               a.expected == b.expected;
    };
    const size_t scoped = violations_.size() - before;
    bool equal = dry.size() == scoped;
    for (size_t i = 0; equal && i < scoped; ++i)
        equal = same(dry[i], violations_[before + i]);
    if (equal)
        return;
    if (shadowMismatches_++ > 0)
        return;
    const auto list = [](const Violation *v, size_t count) {
        std::string out;
        for (size_t i = 0; i < count; ++i)
            out += formatString(" (%s, %d, %llu, %d)", kindName(v[i].kind),
                                v[i].node,
                                static_cast<unsigned long long>(v[i].cycle),
                                v[i].expected ? 1 : 0);
        return out;
    };
    shadowFirst_ = "full sweep:" + list(dry.data(), dry.size()) +
                    "; scoped check:" +
                    list(violations_.data() + before, scoped);
}

void
InvariantAuditor::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("AUDT"));
    s.ioSequence(violations_, [&s](Violation &v) {
        s.io(v.kind);
        s.io(v.node);
        s.io(v.cycle);
        s.io(v.diagnosis);
        s.io(v.expected);
    });
    s.io(sweeps_);
    s.ioMap(expectedLeaks_);
    s.io(recovered_);
    s.io(lastProgress_);
    s.io(lastProgressCycle_);
    s.io(stallReported_);
}


}  // namespace nord
