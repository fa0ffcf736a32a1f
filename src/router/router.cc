/**
 * @file
 * Wormhole VC router pipeline implementation.
 */

#include "router/router.hh"

#include <algorithm>
#include <bit>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "ni/network_interface.hh"

namespace nord {

namespace {

/**
 * Adaptive heads that fail VC allocation this many consecutive cycles
 * request an escape VC as well (guarantees Duato forward progress); a
 * credit-blocked head releases its adaptive VC after as many SA tries.
 */
constexpr int kEscapeAfterBlockedCycles = 8;

}  // namespace

Router::Router(NodeId id, const NocConfig &config, const MeshTopology &mesh,
               const BypassRing &ring, NetworkStats &stats, PoolArena *arena)
    : id_(id), config_(config), mesh_(mesh), ring_(ring), stats_(stats),
      counters_(stats.router(id))
{
    NORD_ASSERT(config_.numVcs <= 64,
                "router %d: %d VCs do not fit the 64-bit work masks", id_,
                config_.numVcs);
    const ArenaAllocator<Flit> alloc(arena);
    for (auto &ip : inputs_)
        ip.vcs.assign(static_cast<size_t>(config_.numVcs),
                      VirtualChannel(alloc, config_.bufferDepth));
    for (auto &op : outputs_) {
        op.credits.assign(static_cast<size_t>(config_.numVcs),
                          config_.bufferDepth);
        op.outVcBusy.assign(static_cast<size_t>(config_.numVcs), false);
    }
    // The local "output" is the ejection path into the NI, which always
    // accepts one flit per cycle; model it as an infinite sink.
    outputs_[dirIndex(Direction::kLocal)].credits.assign(
        static_cast<size_t>(config_.numVcs), 1 << 20);
}

std::string
Router::name() const
{
    return "router" + std::to_string(id_);
}


void
Router::connectOutput(Direction d, Router *neighbor, FlitLink *link)
{
    OutputPort &op = outputs_[dirIndex(d)];
    op.neighbor = neighbor;
    op.link = link;
}

void
Router::connectCreditReturn(Direction inPort, CreditLink *link)
{
    inputs_[dirIndex(inPort)].creditReturn = link;
}

void
Router::connectInput(Direction inPort, FlitLink *link)
{
    inputs_[dirIndex(inPort)].inLink = link;
}

void
Router::setController(PgController *controller)
{
    controller_ = controller;
}

bool
Router::datapathEmpty() const
{
    return buffered_ == 0 && nonIdle_ == 0;
}

void
Router::recountOccupancy()
{
    buffered_ = 0;
    nonIdle_ = 0;
    for (auto &ip : inputs_) {
        for (int v = 0; v < config_.numVcs; ++v) {
            const VirtualChannel &vc = ip.vcs[v];
            buffered_ += static_cast<int>(vc.buffer.size());
            if (vc.state != VcState::kIdle)
                ++nonIdle_;
            refreshVcBits(ip, v);
        }
    }
}

void
Router::refreshVcBits(InputPort &ip, int v)
{
    const VirtualChannel &vc = ip.vcs[v];
    const std::uint64_t bit = std::uint64_t{1} << v;
    const bool buffered = !vc.buffer.empty();
    const auto bitIf = [bit](bool on) { return on ? bit : 0; };
    ip.rcMask = (ip.rcMask & ~bit) |
                bitIf(vc.state == VcState::kIdle && buffered);
    ip.vaMask = (ip.vaMask & ~bit) | bitIf(vc.state == VcState::kVcAlloc);
    ip.saMask = (ip.saMask & ~bit) |
                bitIf(vc.state == VcState::kActive && buffered);
}

bool
Router::allCreditsHome(Direction d) const
{
    const OutputPort &op = outputs_[dirIndex(d)];
    if (!op.neighbor)
        return true;
    for (VcId v = 0; v < config_.numVcs; ++v) {
        if (op.credits[v] != config_.bufferDepth)
            return false;
    }
    return true;
}

bool
Router::icIncoming(Cycle now) const
{
    for (int d = 0; d < kNumMeshDirs; ++d) {
        const Direction dir = indexDir(d);
        const Router *nb = outputs_[d].neighbor;
        if (nb && nb->icUntil(opposite(dir)) >= now)
            return true;
        // A neighbor holding any credit of ours has committed (or may
        // still commit) flits towards us: stay awake until they are home.
        if (nb && !nb->allCreditsHome(opposite(dir)))
            return true;
        const FlitLink *inLink = inputs_[d].inLink;
        if (inLink && !inLink->empty())
            return true;
    }
    return false;
}

Router::VcProbe
Router::probeVc(Direction inPort, VcId vc) const
{
    const VirtualChannel &v = inputs_[dirIndex(inPort)].vcs[vc];
    VcProbe probe;
    probe.state = v.state;
    probe.occupancy = static_cast<int>(v.buffer.size());
    probe.outPort = v.outPort;
    probe.outVc = v.outVc;
    probe.sentAny = v.sentAny;
    probe.frontIsHead = !v.buffer.empty() && flitIsHead(v.buffer.front());
    return probe;
}

void
Router::injectCreditLeak(Direction outPort, VcId vc)
{
    --outputs_[dirIndex(outPort)].credits[vc];
}

void
Router::repairCredits(Direction outPort, VcId vc, int count)
{
    OutputPort &op = outputs_[dirIndex(outPort)];
    op.credits[vc] += count;
    NORD_ASSERT(op.credits[vc] <= config_.bufferDepth,
                "credit repair overflow at router %d port %s vc %d", id_,
                dirName(outPort), vc);
}

void
Router::eatFlit(Direction inPort, const Flit &flit, Cycle now)
{
    InputPort &ip = inputs_[dirIndex(inPort)];
    VirtualChannel &vc = ip.vcs[flit.vc];
    tracePacket(flit.packet, now, "eaten at dead router %d port %s seq %d",
                id_, dirName(inPort), flit.seq);
    if (flitIsHead(flit)) {
        vc.eating = true;
        // Without the E2E layer nobody else will account for the loss.
        if (!config_.fault.e2e && flit.kind == E2eKind::kData)
            stats_.packetFailed();
    }
    if (flitIsTail(flit))
        vc.eating = false;
    stats_.flitEaten(now);
    // Return the credit with normal buffer-read timing so the upstream
    // counter stays coherent.
    if (ip.creditReturn)
        ip.creditReturn->push(flit.vc, now + 1);
    else
        ni_->localCreditReturn(flit.vc);
}

void
Router::acceptFlit(Direction inPort, const Flit &arrived, Cycle now)
{
    kernelWake();
    Flit flit = arrived;
    recordVisit(flit, id_);

    // NoRD: ring traffic bound for the NI bypass latch while this router
    // is gated off (or still draining a bypass packet after waking).
    if (config_.design == PgDesign::kNord &&
        inPort == ring_.bypassInport(id_) &&
        ni_->claimForBypass(flit)) {
        tracePacket(flit.packet, now, "latch write at %d seq %d vc %d",
                    id_, flit.seq, flit.vc);
        ni_->bypassLatchWrite(flit, now);
        return;
    }

    // A permanently dead non-NoRD router is pinned on but untrusted: new
    // packets reaching its input stage are eaten (head and the body flits
    // that follow it), while wormholes accepted before the failure drain
    // through the still-running pipeline.
    if (controller_->dead() && config_.design != PgDesign::kNord) {
        const VirtualChannel &vc = inputs_[dirIndex(inPort)].vcs[flit.vc];
        if (flitIsHead(flit) || vc.eating) {
            eatFlit(inPort, flit, now);
            return;
        }
    }

    tracePacket(flit.packet, now, "buffer write at %d port %s seq %d vc %d",
                id_, dirName(inPort), flit.seq, flit.vc);

    NORD_ASSERT(powerState() == PowerState::kOn,
                "router %d received flit of packet %llu (type %d seq %d "
                "src %d dst %d vc %d) on port %s while %s",
                id_, static_cast<unsigned long long>(flit.packet),
                static_cast<int>(flit.type), flit.seq, flit.src, flit.dst,
                flit.vc, dirName(inPort), powerStateName(powerState()));
    InputPort &ip = inputs_[dirIndex(inPort)];
    NORD_DCHECK(flit.vc >= 0 && flit.vc < config_.numVcs, "bad vc %d",
                flit.vc);
    VirtualChannel &vc = ip.vcs[flit.vc];
    NORD_ASSERT(static_cast<int>(vc.buffer.size()) < config_.bufferDepth,
                "buffer overflow at router %d port %s vc %d", id_,
                dirName(inPort), flit.vc);
    vc.buffer.push_back(flit);
    refreshVcBits(ip, flit.vc);
    ++buffered_;
    ++counters_.bufferWrites;
}

void
Router::acceptCredit(Direction outPort, VcId vc, Cycle)
{
    OutputPort &op = outputs_[dirIndex(outPort)];
    ++op.credits[vc];
    NORD_DCHECK(op.credits[vc] <= config_.bufferDepth,
                "credit overflow at router %d port %s vc %d", id_,
                dirName(outPort), vc);
}

void
Router::enqueueLocal(const Flit &flit, Cycle)
{
    kernelWake();
    NORD_ASSERT(powerState() == PowerState::kOn,
                "NI injected into gated router %d", id_);
    InputPort &ip = inputs_[dirIndex(Direction::kLocal)];
    VirtualChannel &vc = ip.vcs[flit.vc];
    NORD_ASSERT(static_cast<int>(vc.buffer.size()) < config_.bufferDepth,
                "local buffer overflow at router %d vc %d", id_, flit.vc);
    vc.buffer.push_back(flit);
    refreshVcBits(ip, flit.vc);
    ++buffered_;
    ++counters_.bufferWrites;
}

bool
Router::localVcIdle(VcId vc) const
{
    const auto &v = inputs_[dirIndex(Direction::kLocal)].vcs[vc];
    return v.state == VcState::kIdle && v.buffer.empty();
}

void
Router::onSleep(Cycle now)
{
    NORD_ASSERT(datapathEmpty(), "router %d gated off while non-empty",
                id_);
    if (config_.design == PgDesign::kNord)
        ni_->enableBypass(now);
}

void
Router::onWake(Cycle now)
{
    if (config_.design == PgDesign::kNord)
        ni_->beginBypassDrain(now);
}

void
Router::observeNeighborPower(Cycle)
{
    const Direction ringOut = ring_.bypassOutport(id_);
    for (int d = 0; d < kNumMeshDirs; ++d) {
        OutputPort &op = outputs_[d];
        if (!op.neighbor)
            continue;
        const bool pg = op.neighbor->pgAsserted();
        if (pg == op.gatedView)
            continue;
        op.gatedView = pg;
        const bool isRingEdge = config_.design == PgDesign::kNord &&
                                indexDir(d) == ringOut;
        if (pg) {
            // Downstream gated off: heads committed to this output restart
            // from RC (Section 4.3); the ring predecessor drops its credit
            // view to the single NI bypass latch slot per VC.
            if (!isRingEdge)
                restartHeadsOn(indexDir(d));
            if (isRingEdge) {
                for (VcId v = 0; v < config_.numVcs; ++v) {
                    NORD_ASSERT(op.credits[v] == config_.bufferDepth,
                                "router %d: credits not home when %d gated",
                                id_, op.neighbor->id());
                    op.credits[v] = 1;
                }
            }
        } else {
            // Downstream woke up: restore the credit view.
            for (VcId v = 0; v < config_.numVcs; ++v) {
                if (isRingEdge) {
                    op.credits[v] += config_.bufferDepth - 1;
                    NORD_ASSERT(op.credits[v] <= config_.bufferDepth,
                                "credit overflow on wake at router %d", id_);
                } else {
                    op.credits[v] = config_.bufferDepth;
                }
            }
        }
    }
}

void
Router::restartHeadsOn(Direction d)
{
    for (auto &ip : inputs_) {
        for (int v = 0; v < config_.numVcs; ++v) {
            VirtualChannel &vc = ip.vcs[v];
            if (vc.state == VcState::kActive &&
                vc.outPort == d) {
                NORD_ASSERT(!vc.sentAny,
                            "router %d: neighbor gated mid-packet", id_);
                outputs_[dirIndex(d)].outVcBusy[vc.outVc] = false;
                vc.outVc = kInvalidVc;
                vc.state = VcState::kVcAlloc;
                refreshVcBits(ip, v);
            }
        }
    }
}

bool
Router::outputUsable(Direction d) const
{
    if (d == Direction::kLocal)
        return true;
    const OutputPort &op = outputs_[dirIndex(d)];
    if (!op.gatedView)
        return true;
    // Gated downstream: NoRD may still use the ring edge into the
    // neighbor's NI bypass latch; conventional designs must wait for it
    // to wake up.
    return config_.design == PgDesign::kNord &&
           d == ring_.bypassOutport(id_);
}

bool
Router::outputAllocatable(Direction) const
{
    // VA never needs to hold back: bypass-drain flits and pipeline flits
    // share the Bypass Outport cycle-by-cycle in SA (see outputUsable),
    // so allocation hoarding cannot deadlock the drain.
    return true;
}

VcId
Router::bypassAllocOutVc(VcClass cls, int escLevel)
{
    OutputPort &op = outputs_[dirIndex(ring_.bypassOutport(id_))];
    VcId first;
    VcId last;
    if (cls == VcClass::kEscape) {
        NORD_ASSERT(escLevel >= 0, "ring escape needs an explicit level");
        first = config_.firstVcOf(VcClass::kEscape) + escLevel;
        last = first;
    } else {
        first = config_.firstVcOf(VcClass::kAdaptive);
        last = first + config_.numVcsOf(VcClass::kAdaptive) - 1;
    }
    for (VcId v = first; v <= last; ++v) {
        if (!op.outVcBusy[v] && op.credits[v] > 0) {
            // Stage 2 allocates the VC and reserves the credit together
            // (Section 4.2 step 2), so a committed flit never blocks.
            op.outVcBusy[v] = true;
            --op.credits[v];
            return v;
        }
    }
    return kInvalidVc;
}

bool
Router::bypassCreditAvailable(VcId outVc) const
{
    const OutputPort &op = outputs_[dirIndex(ring_.bypassOutport(id_))];
    return op.credits[outVc] > 0;
}

void
Router::bypassReserveCredit(VcId outVc)
{
    OutputPort &op = outputs_[dirIndex(ring_.bypassOutport(id_))];
    --op.credits[outVc];
    NORD_DCHECK(op.credits[outVc] >= 0, "negative bypass credits at %d",
                id_);
}

void
Router::bypassSendFlit(Flit flit, VcId outVc, Cycle now)
{
    OutputPort &op = outputs_[dirIndex(ring_.bypassOutport(id_))];
    // The credit was reserved in stage 2.
    flit.vc = outVc;
    flit.hops = static_cast<std::int16_t>(flit.hops + 1);
    tracePacket(flit.packet, now, "bypass send at %d seq %d outvc %d", id_,
                flit.seq, outVc);
    op.link->push(flit, now + 1);
    op.icUntil = std::max(op.icUntil, now + 1);
    ++counters_.bypassForwards;
    ++counters_.linkTraversals;
    if (flitIsTail(flit))
        op.outVcBusy[outVc] = false;
}

void
Router::bypassCreditReturn(VcId slot, Cycle now)
{
    CreditLink *cl =
        inputs_[dirIndex(ring_.bypassInport(id_))].creditReturn;
    NORD_ASSERT(cl != nullptr, "no credit return on bypass inport of %d",
                id_);
    cl->push(slot, now + 1);
}

bool
Router::tryAllocOutVc(VirtualChannel &vc, Direction outPort, VcClass cls,
                      int escLevel)
{
    OutputPort &op = outputs_[dirIndex(outPort)];
    VcId first;
    VcId last;  // inclusive
    if (cls == VcClass::kEscape) {
        if (escLevel >= 0) {
            first = config_.firstVcOf(VcClass::kEscape) + escLevel;
            last = first;
        } else {
            first = config_.firstVcOf(VcClass::kEscape);
            last = first + config_.numVcsOf(VcClass::kEscape) - 1;
        }
    } else {
        first = config_.firstVcOf(VcClass::kAdaptive);
        last = first + config_.numVcsOf(VcClass::kAdaptive) - 1;
    }
    for (VcId v = first; v <= last; ++v) {
        if (!op.outVcBusy[v]) {
            op.outVcBusy[v] = true;
            vc.outPort = outPort;
            vc.outVc = v;
            vc.state = VcState::kActive;
            return true;
        }
    }
    return false;
}

void
Router::vcAllocation(Cycle now)
{
    for (int p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        const Direction inDir = indexDir(p);
        // Ascending VC order, as the full scan visited them; only the
        // visited VC changes state, so a snapshot of the mask suffices.
        for (std::uint64_t m = ip.vaMask; m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            VirtualChannel &vc = ip.vcs[v];
            if (vc.vaEarliest > now)
                continue;
            NORD_DCHECK(!vc.buffer.empty() && flitIsHead(vc.buffer.front()),
                        "VcAlloc state without a head flit at router %d",
                        id_);
            Flit &head = vc.buffer.front();
            RouteRequest req = policy_->route(id_, head, inDir, *this);

            bool granted = false;
            RouteCandidate taken{};
            if (!req.mustEscape) {
                for (const RouteCandidate &cand : req.adaptive) {
                    if (!outputAllocatable(cand.dir))
                        continue;
                    if (tryAllocOutVc(vc, cand.dir, VcClass::kAdaptive,
                                      -1)) {
                        granted = true;
                        taken = cand;
                        break;
                    }
                }
            }
            if (granted) {
                if (taken.nonMinimal)
                    ++head.misroutes;
            } else {
                // Duato escape path: forced, or adaptive starved too long.
                ++vc.blockedCycles;
                const bool tryEscape = req.mustEscape ||
                    req.adaptive.empty() ||
                    vc.blockedCycles >= kEscapeAfterBlockedCycles;
                if (tryEscape && outputAllocatable(req.escapeDir)) {
                    int level = policy_->escapeVcLevel(id_, req.escapeDir,
                                                       head);
                    if (tryAllocOutVc(vc, req.escapeDir, VcClass::kEscape,
                                      level)) {
                        granted = true;
                        head.onEscape = true;
                        if (level >= 0)
                            head.escLevel = static_cast<std::int8_t>(level);
                    }
                }
            }
            if (granted) {
                vc.saEarliest = now + 1;
                vc.blockedCycles = 0;
                ++counters_.vcAllocs;
                refreshVcBits(ip, v);
            }
        }
    }
}

int
Router::nominate(InputPort &ip, std::uint64_t candidates, int yieldOut,
                 Cycle now)
{
    for (; candidates != 0; candidates &= candidates - 1) {
        const int v = std::countr_zero(candidates);
        VirtualChannel &vc = ip.vcs[v];
        if (vc.saEarliest > now)
            continue;
        const int op = dirIndex(vc.outPort);
        if (op == yieldOut) {
            // The NI bypass re-injection owns the Bypass Outport mux
            // this cycle; retry next cycle.
            continue;
        }
        if (!outputUsable(vc.outPort)) {
            // Conventional designs: the SA request to a gated neighbor
            // raises the WU signal and the flit stalls (Section 3.1).
            if (outputs_[op].neighbor)
                outputs_[op].neighbor->controller().requestWakeup(now);
            continue;
        }
        if (vc.outPort != Direction::kLocal &&
            outputs_[op].credits[vc.outVc] <= 0) {
            // Duato's escape guarantee requires a blocked head to be
            // able to reach escape resources: a head that committed
            // to an adaptive output VC but has not sent a flit yet
            // releases it after a while and re-routes (possibly onto
            // escape), breaking adaptive credit cycles.
            if (!vc.sentAny && flitIsHead(vc.buffer.front()) &&
                ++vc.saBlocked >= kEscapeAfterBlockedCycles) {
                outputs_[op].outVcBusy[vc.outVc] = false;
                vc.outVc = kInvalidVc;
                vc.state = VcState::kVcAlloc;
                vc.vaEarliest = now + 1;
                vc.blockedCycles = kEscapeAfterBlockedCycles;
                vc.saBlocked = 0;
                refreshVcBits(ip, v);
            }
            continue;
        }
        vc.saBlocked = 0;
        return v;
    }
    return -1;
}

void
Router::switchAllocation(Cycle now)
{
    std::uint64_t anyReady = 0;
    for (const InputPort &ip : inputs_)
        anyReady |= ip.saMask;
    if (anyReady == 0)
        return;

    // NoRD: the output the NI bypass re-injection drives this cycle.
    const int yieldOut =
        config_.design == PgDesign::kNord && ni_->stage3Pending(now)
        ? dirIndex(ring_.bypassOutport(id_)) : -1;

    // Stage 1: each input port nominates one ready VC, round-robin from
    // rrVc: the candidates at or above the pointer, then those below.
    // reqIn[o] collects the input ports whose nominee bids for output o.
    std::array<int, kNumPorts> nominee;
    std::array<unsigned, kNumPorts> reqIn{};
    unsigned reqOut = 0;
    for (int p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        nominee[p] = -1;
        if (ip.saMask == 0)
            continue;
        const std::uint64_t upper = ~std::uint64_t{0} << ip.rrVc;
        int v = nominate(ip, ip.saMask & upper, yieldOut, now);
        if (v < 0)
            v = nominate(ip, ip.saMask & ~upper, yieldOut, now);
        if (v < 0)
            continue;
        nominee[p] = v;
        const int o = dirIndex(ip.vcs[v].outPort);
        reqIn[o] |= 1u << p;
        reqOut |= 1u << o;
    }

    // Stage 2: each requested output port grants one nominee,
    // round-robin from rrInput (ascending output order, as before).
    const int numVcs = config_.numVcs;
    for (; reqOut != 0; reqOut &= reqOut - 1) {
        const int o = std::countr_zero(reqOut);
        OutputPort &op = outputs_[o];
        const unsigned req = reqIn[o];
        const unsigned upper = req & (~0u << op.rrInput);
        const int winner = std::countr_zero(upper != 0 ? upper : req);
        op.rrInput = winner + 1 == kNumPorts ? 0 : winner + 1;
        const int v = nominee[winner];
        inputs_[winner].rrVc = v + 1 == numVcs ? 0 : v + 1;
        sendFlit(winner, v, now);
    }
}

void
Router::sendFlit(int ipIdx, int v, Cycle now)
{
    InputPort &ip = inputs_[ipIdx];
    VirtualChannel &vc = ip.vcs[v];
    Flit flit = vc.buffer.front();
    tracePacket(flit.packet, now, "SA at %d seq %d -> %s outvc %d", id_,
                flit.seq, dirName(vc.outPort), vc.outVc);
    const VcId inVc = flit.vc;
    vc.buffer.pop_front();
    --buffered_;
    ++counters_.bufferReads;
    ++counters_.swAllocs;
    ++counters_.xbarTraversals;

    flit.vc = vc.outVc;
    flit.hops = static_cast<std::int16_t>(flit.hops + 1);

    // Return the buffer credit upstream (1-cycle credit link).
    if (ip.creditReturn) {
        ip.creditReturn->push(inVc, now + 1);
    } else if (indexDir(ipIdx) == Direction::kLocal) {
        ni_->localCreditReturn(inVc);
    }

    const int o = dirIndex(vc.outPort);
    OutputPort &op = outputs_[o];
    if (vc.outPort == Direction::kLocal) {
        // ST this cycle, LT next; ejection reaches the NI two cycles on.
        ni_->acceptEjection(flit, now + 3);
    } else {
        --op.credits[flit.vc];
        NORD_DCHECK(op.credits[flit.vc] >= 0, "negative credits at %d",
                    id_);
        op.link->push(flit, now + 3);
        op.icUntil = std::max(op.icUntil, now + 3);
        ++counters_.linkTraversals;
    }

    if (flitIsTail(flit)) {
        op.outVcBusy[vc.outVc] = false;
        vc.state = VcState::kIdle;
        --nonIdle_;
        vc.outVc = kInvalidVc;
        vc.sentAny = false;
    } else {
        vc.sentAny = true;
    }
    vc.saEarliest = now + 1;
    refreshVcBits(ip, v);
}

void
Router::routeNewHeads(Cycle now)
{
    for (int p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        for (std::uint64_t m = ip.rcMask; m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            VirtualChannel &vc = ip.vcs[v];
            NORD_DCHECK(flitIsHead(vc.buffer.front()),
                        "non-head flit at idle VC of router %d", id_);
            vc.state = VcState::kVcAlloc;
            refreshVcBits(ip, v);
            ++nonIdle_;
            vc.vaEarliest = now + 1;
            vc.blockedCycles = 0;

            if (config_.design == PgDesign::kConvPgOpt) {
                // Early wakeup: fire WU as soon as the output port is
                // computed (RC), ahead of the SA stall (Section 3.3).
                const Flit &head = vc.buffer.front();
                RouteRequest req =
                    policy_->route(id_, head, indexDir(p), *this);
                bool anyUsable = false;
                for (const RouteCandidate &cand : req.adaptive)
                    anyUsable |= outputUsable(cand.dir);
                if (!anyUsable) {
                    Direction target = req.adaptive.empty()
                        ? req.escapeDir : req.adaptive.front().dir;
                    Router *nb = outputs_[dirIndex(target)].neighbor;
                    if (nb && nb->pgAsserted())
                        nb->controller().requestWakeup(now);
                }
            }
        }
    }
}

void
Router::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("RTR "));
    std::int32_t id = id_;
    s.io(id);
    if (s.loading() && id != id_) {
        s.fail("checkpoint router id mismatch: expected " +
               std::to_string(id_) + ", found " + std::to_string(id));
        return;
    }
    for (InputPort &ip : inputs_) {
        s.io(ip.rrVc);
        // In place, as the NI latch: the VC count is fixed at
        // construction, and keeping the VCs keeps each buffer's arena
        // storage across a load (same bytes as ioSequence).
        std::uint64_t numVcs = ip.vcs.size();
        s.io(numVcs);
        if (s.loading() && numVcs != ip.vcs.size()) {
            s.fail("checkpoint VC count mismatch at router " +
                   std::to_string(id_));
            return;
        }
        for (VirtualChannel &vc : ip.vcs) {
            s.ioSequence(vc.buffer);
            s.io(vc.state);
            s.io(vc.outPort);
            s.io(vc.outVc);
            s.io(vc.vaEarliest);
            s.io(vc.saEarliest);
            s.io(vc.blockedCycles);
            s.io(vc.saBlocked);
            s.io(vc.sentAny);
            s.io(vc.eating);
        }
    }
    for (OutputPort &op : outputs_) {
        s.ioSequence(op.credits);
        s.io(op.outVcBusy);
        s.io(op.gatedView);
        s.io(op.icUntil);
        s.io(op.rrInput);
    }
}

void
Router::dumpState(std::FILE *out) const
{
    std::fprintf(out, "router %d state=%s empty=%d\n", id_,
                 powerStateName(powerState()), datapathEmpty() ? 1 : 0);
    for (int p = 0; p < kNumPorts; ++p) {
        for (int v = 0; v < config_.numVcs; ++v) {
            const VirtualChannel &vc = inputs_[p].vcs[v];
            if (vc.state == VcState::kIdle &&
                vc.buffer.empty()) {
                continue;
            }
            std::fprintf(out,
                "  in %s vc%d state=%d buf=%zu out=%s outvc=%d sent=%d",
                dirName(indexDir(p)), v, static_cast<int>(vc.state),
                vc.buffer.size(), dirName(vc.outPort), vc.outVc,
                vc.sentAny ? 1 : 0);
            if (!vc.buffer.empty()) {
                const Flit &f = vc.buffer.front();
                std::fprintf(out,
                    " | front pkt=%llu t=%d seq=%d dst=%d esc=%d mis=%d",
                    static_cast<unsigned long long>(f.packet),
                    static_cast<int>(f.type), f.seq, f.dst,
                    f.onEscape ? 1 : 0, f.misroutes);
            }
            std::fprintf(out, "\n");
        }
    }
    for (int o = 0; o < kNumPorts; ++o) {
        const OutputPort &op = outputs_[o];
        std::fprintf(out, "  out %s gated=%d credits", dirName(indexDir(o)),
                     op.gatedView ? 1 : 0);
        for (int v = 0; v < config_.numVcs; ++v)
            std::fprintf(out, " %d%s", op.credits[v],
                         op.outVcBusy[v] ? "B" : "");
        std::fprintf(out, "\n");
    }
}

void
Router::checkQuiescent() const
{
    for (int p = 0; p < kNumPorts; ++p) {
        for (int v = 0; v < config_.numVcs; ++v) {
            const VirtualChannel &vc = inputs_[p].vcs[v];
            NORD_ASSERT(vc.buffer.empty() &&
                            vc.state == VcState::kIdle,
                        "router %d port %s vc %d not idle after drain",
                        id_, dirName(indexDir(p)), v);
        }
    }
    for (int o = 0; o < kNumMeshDirs; ++o) {
        const OutputPort &op = outputs_[o];
        if (!op.neighbor)
            continue;
        for (int v = 0; v < config_.numVcs; ++v) {
            NORD_ASSERT(!op.outVcBusy[v],
                        "router %d leaked output VC %s/%d", id_,
                        dirName(indexDir(o)), v);
            // A gated downstream shrinks the ring predecessor's credit
            // view to the single latch slot; otherwise all buffer
            // credits must be home.
            const int expect = op.gatedView &&
                config_.design == PgDesign::kNord &&
                indexDir(o) == ring_.bypassOutport(id_)
                ? 1 : config_.bufferDepth;
            if (!op.gatedView || expect == 1) {
                NORD_ASSERT(op.credits[v] == expect,
                            "router %d credits %s/%d = %d (expect %d)",
                            id_, dirName(indexDir(o)), v, op.credits[v],
                            expect);
            }
        }
    }
}

bool
Router::quiescent() const
{
    if (!datapathEmpty())
        return false;
    // A stale neighbor power view means the next tick does real work
    // (credit-view adjustment, head restarts) -- stay in the active set
    // until observeNeighborPower has caught up.
    for (int d = 0; d < kNumMeshDirs; ++d) {
        const OutputPort &op = outputs_[d];
        if (op.neighbor != nullptr &&
            op.gatedView != op.neighbor->pgAsserted()) {
            return false;
        }
    }
    return true;
}

void
Router::tick(Cycle now)
{
    observeNeighborPower(now);
    if (powerState() == PowerState::kOn) {
        switchAllocation(now);
        vcAllocation(now);
        routeNewHeads(now);
    } else {
        NORD_DCHECK(datapathEmpty(),
                    "router %d has buffered flits while %s", id_,
                    powerStateName(powerState()));
    }
    stats_.routerIdleSample(id_, datapathEmpty(), now);
}

}  // namespace nord
