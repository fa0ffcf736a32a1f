/**
 * @file
 * Network interface implementation.
 */

#include "ni/network_interface.hh"

#include <algorithm>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "router/router.hh"
#include "routing/routing_policy.hh"

namespace nord {

NetworkInterface::NetworkInterface(NodeId id, const NocConfig &config,
                                   NetworkStats &stats, PoolArena *arena)
    : id_(id), config_(config), stats_(stats), counters_(stats.router(id)),
      injectQ_(ArenaAllocator<Flit>(arena)),
      localCredits_(static_cast<size_t>(config.numVcs), config.bufferDepth),
      ejectQ_(ArenaAllocator<EjectEntry>(arena)),
      latch_(static_cast<size_t>(config.numVcs),
             ArenaRing<LatchEntry>(ArenaAllocator<LatchEntry>(arena))),
      fwd_(static_cast<size_t>(config.numVcs)),
      stage3_(ArenaAllocator<StagedFlit>(arena))
{
    // The router ejects at most one flit a cycle, each due 3 cycles
    // later. The injection backlog has no bound: 16 flits hold a burst
    // of three 5-flit packets, past which (near saturation) the ring
    // doubles.
    ejectQ_.reserve(4);
    injectQ_.reserve(16);
    // NoRD's bypass: a latch slot holds at most a buffer's worth
    // (bypassLatchWrite); stage 2 stages one flit a cycle and stage 3
    // sends it the next. The other designs never use either queue.
    if (isNord()) {
        for (auto &slot : latch_)
            slot.reserve(static_cast<size_t>(config.bufferDepth));
        stage3_.reserve(2);
    }
    // One live flow per latch slot; only stale claims under faults
    // (a dropped tail never releases its flow) can grow it further.
    claimed_.reserve(static_cast<size_t>(config.numVcs));
    if (config.fault.e2e)
        e2e_ = std::make_unique<E2eEndpoint>(id, config, stats, arena);
}

std::string
NetworkInterface::name() const
{
    return "ni" + std::to_string(id_);
}


void
NetworkInterface::packetize(const PacketDescriptor &desc,
                            std::uint32_t e2eSeq, E2eKind kind,
                            std::uint8_t faultFlags)
{
    const PacketId pid = stats_.allocPacketId();
    for (int i = 0; i < desc.length; ++i) {
        Flit f;
        f.packet = pid;
        f.src = desc.src;
        f.dst = desc.dst;
        f.length = static_cast<std::int16_t>(desc.length);
        f.seq = static_cast<std::int16_t>(i);
        f.createdAt = desc.createdAt;
        f.tag = desc.tag;
        f.kind = kind;
        f.faultFlags = faultFlags;
        f.e2eSeq = e2eSeq;
        f.payload = flitPayload(desc.src, desc.dst, e2eSeq, f.seq,
                                desc.tag);
        f.checksum = flitChecksum(f.payload);
        recordVisit(f, id_);
        if (desc.length == 1) {
            f.type = FlitType::kHeadTail;
        } else if (i == 0) {
            f.type = FlitType::kHead;
        } else if (i == desc.length - 1) {
            f.type = FlitType::kTail;
        } else {
            f.type = FlitType::kBody;
        }
        if (e2e_ && kind == E2eKind::kData && i == 0 && desc.dst != id_)
            e2e_->attachPiggyback(f);
        injectQ_.push_back(f);
    }
}

void
NetworkInterface::enqueuePacket(const PacketDescriptor &desc)
{
    NORD_ASSERT(desc.length >= 1, "packet with %d flits", desc.length);
    NORD_ASSERT(desc.src == id_, "packet source %d enqueued at NI %d",
                desc.src, id_);
    std::uint32_t e2eSeq = 0;
    if (e2e_ && desc.dst != id_)
        e2eSeq = e2e_->registerSend(desc);
    packetize(desc, e2eSeq, E2eKind::kData, 0);
    stats_.packetCreated(desc);
}

void
NetworkInterface::acceptEjection(const Flit &flit, Cycle due)
{
    ejectQ_.push_back({flit, due});
}

void
NetworkInterface::localCreditReturn(VcId vc)
{
    ++localCredits_[vc];
    NORD_DCHECK(localCredits_[vc] <= config_.bufferDepth,
                "local credit overflow at NI %d vc %d", id_, vc);
}

void
NetworkInterface::deliverFlit(const Flit &flit, Cycle now)
{
    stats_.flitEjected(now);
    if (e2e_) {
        // The protocol layer filters damaged, duplicate and out-of-order
        // copies; only tails it releases count as logical deliveries.
        deliverBuf_.clear();
        e2e_->onFlitArrived(flit, now, deliverBuf_);
        for (const Flit &tail : deliverBuf_) {
            ++packetsReceived_;
            stats_.packetDelivered(tail, now);
            if (onDelivery_)
                onDelivery_(tail, now);
        }
        return;
    }
    if (flitIsTail(flit)) {
        ++packetsReceived_;
        stats_.packetDelivered(flit, now);
        if (onDelivery_)
            onDelivery_(flit, now);
    }
}

void
NetworkInterface::e2eService(Cycle now)
{
    resendBuf_.clear();
    ackBuf_.clear();
    e2e_->service(now, resendBuf_, ackBuf_);
    for (const E2eEndpoint::Resend &r : resendBuf_) {
        // A retransmitted copy keeps its logical identity (sequence
        // number, creation time -- so latency includes recovery) but is a
        // fresh physical packet.
        packetize(r.desc, r.seq, E2eKind::kData, kFaultRetransmit);
    }
    for (const E2eEndpoint::AckSend &a : ackBuf_) {
        PacketDescriptor ack;
        ack.src = id_;
        ack.dst = a.dst;
        ack.length = 1;
        ack.createdAt = now;
        packetize(ack, 0, E2eKind::kAck, 0);
        // Stamp the protocol fields onto the single flit just queued.
        Flit &f = injectQ_.back();
        f.ackSeq = a.ackSeq;
        f.nackSeq = a.nackSeq;
        stats_.controlPacketCreated();
    }
}

void
NetworkInterface::processEjection(Cycle now)
{
    while (!ejectQ_.empty() && ejectQ_.front().due <= now) {
        deliverFlit(ejectQ_.front().flit, now);
        ejectQ_.pop_front();
    }
}

// --- NoRD bypass ----------------------------------------------------------

bool
NetworkInterface::claimForBypass(const Flit &flit)
{
    if (!isNord())
        return false;
    // A bypass flow is one packet traversal on one input VC: a misrouted
    // packet may lap the ring and revisit this router on another VC while
    // flits of the earlier visit are still draining, so the packet id
    // alone would be ambiguous.
    const std::uint64_t key = flowKey(flit);
    const auto it = std::lower_bound(claimed_.begin(), claimed_.end(), key);
    const bool mine = it != claimed_.end() && *it == key;
    if (flitIsHead(flit)) {
        const bool claim = router_->powerState() != PowerState::kOn;
        if (claim && !flitIsTail(flit) && !mine)
            claimed_.insert(it, key);
        tracePacket(flit.packet, 0, "claim head at NI %d vc %d -> %d", id_,
                    flit.vc, claim ? 1 : 0);
        return claim;
    }
    tracePacket(flit.packet, 0, "claim body seq %d at NI %d vc %d -> %d",
                flit.seq, id_, flit.vc, mine ? 1 : 0);
    if (mine && flitIsTail(flit))
        claimed_.erase(it);
    return mine;
}

void
NetworkInterface::bypassLatchWrite(const Flit &flit, Cycle now)
{
    const int slot = flit.vc;
    NORD_DCHECK(slot >= 0 && slot < config_.numVcs, "bad latch slot %d",
                slot);
    // While the router is gated off the upstream credit of 1 bounds the
    // slot to a single flit. During the post-wakeup drain the upstream
    // holds full credits again, so flits of a still-claimed packet may
    // accumulate here -- they conceptually occupy the input buffer the
    // credits were granted against (Section 4.3), bounded by its depth.
    NORD_ASSERT(static_cast<int>(latch_[slot].size()) <
                    config_.bufferDepth,
                "bypass latch slot %d overflow at NI %d", slot, id_);
    // Aggressive bypass (Section 6.8): with an empty datapath the flit
    // may be served in the same cycle it is latched (the NI evaluates
    // after link delivery), cutting the bypass to a single cycle.
    const bool aggressive = config_.nordAggressiveBypass &&
        latchOccupancy_ == 0 && stage3_.empty() && injectQ_.empty() &&
        router_->powerState() != PowerState::kOn;
    latch_[slot].push_back({flit, aggressive ? now : now + 1});
    ++latchOccupancy_;
    ++counters_.bypassLatchWrites;
}

void
NetworkInterface::enableBypass(Cycle)
{
    NORD_ASSERT(bypassQuiescent(),
                "NI %d: bypass enabled while previous flows live", id_);
}

void
NetworkInterface::beginBypassDrain(Cycle)
{
    // Remaining bypass flows finish through the bypass datapath; the
    // router pipeline stays off the Bypass Outport until quiescent.
}

bool
NetworkInterface::bypassQuiescent() const
{
    if (!isNord())
        return true;
    return latchOccupancy_ == 0 && stage3_.empty() && claimed_.empty() &&
           !localBypassActive_;
}

int
NetworkInterface::stage3CountForVc(VcId outVc) const
{
    int count = 0;
    for (const StagedFlit &s : stage3_) {
        if (s.outVc == outVc)
            ++count;
    }
    return count;
}

bool
NetworkInterface::holdsBypassOutVc(VcId outVc) const
{
    if (localBypassActive_ && localBypassVc_ == outVc)
        return true;
    for (const ForwardState &f : fwd_) {
        if (f.active && !f.sink && f.outVc == outVc)
            return true;
    }
    return stage3CountForVc(outVc) > 0;
}

bool
NetworkInterface::stage3Pending(Cycle now) const
{
    // Credits were reserved in stage 2, so a staged flit always sends.
    return !stage3_.empty() && stage3_.front().forwardReady <= now;
}

void
NetworkInterface::bypassStage3(Cycle now)
{
    if (stage3_.empty())
        return;
    StagedFlit &s = stage3_.front();
    if (s.forwardReady > now)
        return;
    router_->bypassSendFlit(s.flit, s.outVc, now);
    ringOutBusy_ = true;
    stage3_.pop_front();
}

bool
NetworkInterface::serveLatchSlot(int slot, Cycle now)
{
    if (latch_[slot].empty() || latch_[slot].front().allocReady > now)
        return false;
    Flit flit = latch_[slot].front().flit;
    ForwardState &f = fwd_[slot];

    if (f.active) {
        NORD_DCHECK(!flitIsHead(flit), "head flit on active bypass flow");
        if (f.sink) {
            flit.hops = static_cast<std::int16_t>(flit.hops + 1);
            deliverFlit(flit, now);
        } else {
            if (!router_->bypassCreditAvailable(f.outVc))
                return false;  // wait for downstream space
            router_->bypassReserveCredit(f.outVc);
            if (config_.nordAggressiveBypass && !ringOutBusy_ &&
                latch_[slot].front().allocReady == now) {
                router_->bypassSendFlit(flit, f.outVc, now);
                ringOutBusy_ = true;
                ++aggressiveFwds_;
                if (flitIsTail(flit))
                    f = ForwardState{};
                latch_[slot].pop_front();
                --latchOccupancy_;
                router_->bypassCreditReturn(slot, now);
                return true;
            }
            stage3_.push_back({flit, f.outVc, now + 1});
        }
        if (flitIsTail(flit))
            f = ForwardState{};
        latch_[slot].pop_front();
        --latchOccupancy_;
        router_->bypassCreditReturn(slot, now);
        return true;
    }

    NORD_DCHECK(flitIsHead(flit), "body flit without bypass flow state");
    if (flit.dst == id_) {
        // Demux ahead of the ejection queue: sink locally (Figure 4c).
        flit.hops = static_cast<std::int16_t>(flit.hops + 1);
        deliverFlit(flit, now);
        if (!flitIsTail(flit)) {
            f.active = true;
            f.sink = true;
        }
        latch_[slot].pop_front();
        --latchOccupancy_;
        router_->bypassCreditReturn(slot, now);
        return true;
    }

    // Forward: allocate a VC on the Bypass Outport and check credits.
    RouteRequest req = policy_->routeAtBypass(id_, flit);
    VcClass cls = (req.mustEscape || flit.onEscape) ? VcClass::kEscape
                                                    : VcClass::kAdaptive;
    int level = -1;
    if (cls == VcClass::kEscape)
        level = policy_->escapeVcLevel(id_, req.escapeDir, flit);
    VcId outVc = router_->bypassAllocOutVc(cls, level);
    if (outVc == kInvalidVc && cls == VcClass::kAdaptive) {
        // Duato: escape resources must stay reachable from any state.
        level = policy_->escapeVcLevel(id_, req.escapeDir, flit);
        outVc = router_->bypassAllocOutVc(VcClass::kEscape, level);
        if (outVc != kInvalidVc)
            cls = VcClass::kEscape;
    }
    if (outVc == kInvalidVc)
        return false;

    if (cls == VcClass::kEscape) {
        flit.onEscape = true;
        flit.escLevel = static_cast<std::int8_t>(level);
    } else if (!req.adaptive.empty() && req.adaptive.front().nonMinimal) {
        flit.misroutes = static_cast<std::int16_t>(flit.misroutes + 1);
    }
    if (config_.nordAggressiveBypass && !ringOutBusy_ &&
        latch_[slot].front().allocReady == now) {
        // Single-cycle cut-through: drive the Bypass Outport directly.
        router_->bypassSendFlit(flit, outVc, now);
        ringOutBusy_ = true;
        ++aggressiveFwds_;
        if (flitIsTail(flit)) {
            // bypassSendFlit released the output VC on the tail.
        } else {
            f.active = true;
            f.sink = false;
            f.outVc = outVc;
        }
        latch_[slot].pop_front();
        --latchOccupancy_;
        router_->bypassCreditReturn(slot, now);
        return true;
    }
    stage3_.push_back({flit, outVc, now + 1});
    if (!flitIsTail(flit)) {
        f.active = true;
        f.sink = false;
        f.outVc = outVc;
    }
    latch_[slot].pop_front();
    --latchOccupancy_;
    router_->bypassCreditReturn(slot, now);
    return true;
}

bool
NetworkInterface::serveLocalBypass(Cycle now)
{
    if (injectQ_.empty())
        return false;

    if (localBypassActive_) {
        Flit flit = injectQ_.front();
        NORD_DCHECK(!flitIsHead(flit), "head while local bypass active");
        if (!router_->bypassCreditAvailable(localBypassVc_))
            return false;
        router_->bypassReserveCredit(localBypassVc_);
        flit.injectedAt = now;
        stage3_.push_back({flit, localBypassVc_, now + 1});
        tracePacket(flit.packet, now, "local bypass body seq %d at NI %d",
                    flit.seq, id_);
        stats_.flitInjected(now);
        if (flitIsTail(flit))
            localBypassActive_ = false;
        injectQ_.pop_front();
        return true;
    }

    if (router_->powerState() == PowerState::kOn)
        return false;  // use the normal injection path

    Flit flit = injectQ_.front();
    NORD_DCHECK(flitIsHead(flit), "mid-packet at bypass injection");
    if (flit.dst == id_) {
        // Self-addressed packet: loop straight back to the node.
        while (!injectQ_.empty()) {
            Flit f = injectQ_.front();
            if (flitIsHead(f) && f.packet != flit.packet)
                break;
            f.injectedAt = now;
            stats_.flitInjected(now);
            deliverFlit(f, now);
            injectQ_.pop_front();
        }
        return true;
    }

    RouteRequest req = policy_->routeAtBypass(id_, flit);
    VcClass cls = (req.mustEscape || flit.onEscape) ? VcClass::kEscape
                                                    : VcClass::kAdaptive;
    int level = -1;
    if (cls == VcClass::kEscape)
        level = policy_->escapeVcLevel(id_, req.escapeDir, flit);
    VcId outVc = router_->bypassAllocOutVc(cls, level);
    if (outVc == kInvalidVc && cls == VcClass::kAdaptive) {
        level = policy_->escapeVcLevel(id_, req.escapeDir, flit);
        outVc = router_->bypassAllocOutVc(VcClass::kEscape, level);
        if (outVc != kInvalidVc)
            cls = VcClass::kEscape;
    }
    if (outVc == kInvalidVc)
        return false;

    if (cls == VcClass::kEscape) {
        flit.onEscape = true;
        flit.escLevel = static_cast<std::int8_t>(level);
    } else if (!req.adaptive.empty() && req.adaptive.front().nonMinimal) {
        flit.misroutes = static_cast<std::int16_t>(flit.misroutes + 1);
    }
    flit.injectedAt = now;
    stats_.flitInjected(now);
    tracePacket(flit.packet, now, "local bypass head inject at NI %d outvc %d",
                id_, outVc);
    stage3_.push_back({flit, outVc, now + 1});
    if (!flitIsTail(flit)) {
        localBypassActive_ = true;
        localBypassVc_ = outVc;
    }
    injectQ_.pop_front();
    return true;
}

void
NetworkInterface::bypassStage2(Cycle now)
{
    // Count this cycle's VC requests (the wakeup metric, Section 4.3).
    // Every flit pending at stage 2 that needs forwarding re-asserts its
    // request each cycle -- "the number of VC requests goes up even if
    // the flits are stalled" -- so congestion raises the count even when
    // nothing moves. Flits sinking locally request no VC.
    for (int slot = 0; slot < config_.numVcs; ++slot) {
        if (latch_[slot].empty() ||
            latch_[slot].front().allocReady > now) {
            continue;
        }
        const bool sinks = fwd_[slot].active
            ? fwd_[slot].sink
            : latch_[slot].front().flit.dst == id_;
        if (!sinks)
            ++vcRequests_;
    }
    const bool localWants = !injectQ_.empty() &&
        (localBypassActive_ || router_->powerState() != PowerState::kOn);
    if (localWants && injectQ_.front().dst != id_)
        ++vcRequests_;

    // Single stage-2 datapath: bypass traffic has priority unless the
    // local node has starved too long (Section 4.2).
    bool localServed = false;
    bool served = false;
    if (localWants && localStarve_ >= config_.niStarvationLimit) {
        localServed = serveLocalBypass(now);
        served = localServed;
    }
    if (!served) {
        for (int k = 0; k < config_.numVcs; ++k) {
            const int slot = (latchRr_ + k) % config_.numVcs;
            if (serveLatchSlot(slot, now)) {
                latchRr_ = (slot + 1) % config_.numVcs;
                served = true;
                break;
            }
        }
    }
    if (!served && localWants) {
        localServed = serveLocalBypass(now);
        served = localServed;
    }
    if (localWants && !localServed)
        ++localStarve_;
    else if (localServed)
        localStarve_ = 0;
}

void
NetworkInterface::normalInjection(Cycle now)
{
    if (injectQ_.empty())
        return;
    if (isNord()) {
        if (router_->powerState() != PowerState::kOn || localBypassActive_)
            return;  // handled by the bypass datapath
    } else if (config_.gatingEnabled() &&
               router_->powerState() != PowerState::kOn) {
        // Node-router dependence: the node cannot inject until its router
        // wakes up (Section 3.4).
        router_->controller().requestWakeup(now);
        return;
    }

    // Node-router dependence cuts the other way too: when the local
    // router is permanently dead (non-NoRD), new packets have no path
    // into the network. Drop them at the source and account the loss;
    // wormholes already partially injected are completed so the dead
    // router's (still running) pipeline is not left with a headless tail.
    if (!isNord() && router_->controller().dead() &&
        injectVc_ == kInvalidVc) {
        const Flit head = injectQ_.front();
        NORD_DCHECK(flitIsHead(head), "mid-packet without an inject VC");
        while (!injectQ_.empty()) {
            const Flit &f = injectQ_.front();
            if (flitIsHead(f) && f.packet != head.packet)
                break;
            injectQ_.pop_front();
        }
        if (!e2e_ && head.kind == E2eKind::kData)
            stats_.packetFailed();
        return;
    }

    Flit flit = injectQ_.front();
    if (flit.dst == id_) {
        // Self-addressed packet: deliver without touching the network.
        while (!injectQ_.empty()) {
            Flit f = injectQ_.front();
            if (flitIsHead(f) && f.packet != flit.packet)
                break;
            f.injectedAt = now;
            stats_.flitInjected(now);
            deliverFlit(f, now);
            injectQ_.pop_front();
        }
        return;
    }

    if (injectVc_ == kInvalidVc) {
        NORD_DCHECK(flitIsHead(flit), "mid-packet without an inject VC");
        const VcId first = config_.firstVcOf(VcClass::kAdaptive);
        for (VcId v = first; v < config_.numVcs; ++v) {
            if (localCredits_[v] > 0 && router_->localVcIdle(v)) {
                injectVc_ = v;
                break;
            }
        }
        if (injectVc_ == kInvalidVc)
            return;
    }
    if (localCredits_[injectVc_] <= 0)
        return;

    flit.vc = injectVc_;
    flit.injectedAt = now;
    tracePacket(flit.packet, now, "normal inject at NI %d seq %d vc %d",
                id_, flit.seq, injectVc_);
    router_->enqueueLocal(flit, now);
    --localCredits_[injectVc_];
    stats_.flitInjected(now);
    injectQ_.pop_front();
    if (flitIsTail(flit))
        injectVc_ = kInvalidVc;
}

void
NetworkInterface::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("NI  "));
    s.ioSequence(injectQ_);
    s.ioSequence(localCredits_);
    s.io(injectVc_);
    s.ioSequence(ejectQ_, [&s](EjectEntry &e) {
        s.io(e.flit);
        s.io(e.due);
    });
    s.io(packetsReceived_);
    // The latch has one slot per VC, fixed at construction; serializing
    // slot-by-slot in place (instead of the generic clear-and-refill
    // ioSequence) keeps each ring's arena allocator across a load.
    std::uint64_t latchSlots = latch_.size();
    s.io(latchSlots);
    if (s.loading() && latchSlots != latch_.size()) {
        s.fail("checkpoint latch slot count mismatch at NI " +
               std::to_string(id_));
        return;
    }
    for (auto &slot : latch_) {
        s.ioSequence(slot, [&s](LatchEntry &e) {
            s.io(e.flit);
            s.io(e.allocReady);
        });
    }
    s.ioSequence(fwd_, [&s](ForwardState &f) {
        s.io(f.active);
        s.io(f.sink);
        s.io(f.outVc);
    });
    s.ioSequence(stage3_, [&s](StagedFlit &e) {
        s.io(e.flit);
        s.io(e.outVc);
        s.io(e.forwardReady);
    });
    // Sorted and duplicate-free, the same bytes as a set saved in
    // sorted-key order; a load re-establishes the order claimForBypass
    // binary-searches.
    s.ioSequence(claimed_);
    if (s.loading()) {
        std::sort(claimed_.begin(), claimed_.end());
        claimed_.erase(std::unique(claimed_.begin(), claimed_.end()),
                       claimed_.end());
    }
    s.io(localBypassActive_);
    s.io(localBypassVc_);
    s.io(latchRr_);
    s.io(localStarve_);
    s.io(vcRequests_);
    s.io(latchOccupancy_);
    s.io(ringOutBusy_);
    s.io(aggressiveFwds_);
    bool hasE2e = e2e_ != nullptr;
    s.io(hasE2e);
    if (s.loading() && hasE2e != (e2e_ != nullptr)) {
        s.fail("checkpoint E2E presence mismatch at NI " +
               std::to_string(id_));
        return;
    }
    if (e2e_)
        e2e_->serializeState(s);
}

void
NetworkInterface::dumpState(std::FILE *out) const
{
    if (idle())
        return;
    std::fprintf(out,
        "ni %d injQ=%zu ejQ=%zu latch=%d stage3=%zu claimed=%zu "
        "localBypass=%d starve=%d\n",
        id_, injectQ_.size(), ejectQ_.size(), latchOccupancy_,
        stage3_.size(), claimed_.size(), localBypassActive_ ? 1 : 0,
        localStarve_);
    for (int v = 0; v < config_.numVcs; ++v) {
        if (latch_[v].empty() && !fwd_[v].active)
            continue;
        std::fprintf(out, "  latch vc%d size=%zu fwd(active=%d sink=%d "
                     "outvc=%d)", v, latch_[v].size(),
                     fwd_[v].active ? 1 : 0, fwd_[v].sink ? 1 : 0,
                     fwd_[v].outVc);
        if (!latch_[v].empty()) {
            const Flit &f = latch_[v].front().flit;
            std::fprintf(out, " | front pkt=%llu t=%d seq=%d dst=%d",
                         static_cast<unsigned long long>(f.packet),
                         static_cast<int>(f.type), f.seq, f.dst);
        }
        std::fprintf(out, "\n");
    }
    if (!stage3_.empty()) {
        const StagedFlit &s3 = stage3_.front();
        std::fprintf(out, "  stage3 front pkt=%llu seq=%d outvc=%d rdy=%llu\n",
                     static_cast<unsigned long long>(s3.flit.packet),
                     s3.flit.seq, s3.outVc,
                     static_cast<unsigned long long>(s3.forwardReady));
    }
    if (!injectQ_.empty()) {
        const Flit &f = injectQ_.front();
        std::fprintf(out, "  injQ front pkt=%llu t=%d seq=%d dst=%d vc=%d\n",
                     static_cast<unsigned long long>(f.packet),
                     static_cast<int>(f.type), f.seq, f.dst, injectVc_);
    }
}

void
NetworkInterface::tick(Cycle now)
{
    vcRequests_ = 0;
    ringOutBusy_ = false;
    processEjection(now);
    if (e2e_)
        e2eService(now);
    if (isNord()) {
        bypassStage3(now);
        bypassStage2(now);
    }
    normalInjection(now);
}

}  // namespace nord
