/**
 * @file
 * End-to-end reliability protocol implementation.
 */

#include "fault/e2e_protocol.hh"

#include <algorithm>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"

namespace nord {

namespace {

/** Retransmission timeout multiplier per retry (exponential backoff). */
constexpr Cycle kRetransBackoff = 2;

/** Cycles an ACK waits for a piggyback ride before going standalone. */
constexpr Cycle kAckCoalesce = 8;

}  // namespace

E2eEndpoint::E2eEndpoint(NodeId id, const NocConfig &config,
                         NetworkStats &stats)
    : id_(id), config_(config), stats_(stats)
{
}

std::uint32_t
E2eEndpoint::registerSend(const PacketDescriptor &desc)
{
    NORD_ASSERT(desc.dst != id_, "E2E protection of a self-addressed "
                "packet at node %d", id_);
    TxFlow &flow = tx_[desc.dst];
    const std::uint32_t seq = flow.nextSeq++;
    TxEntry entry;
    entry.desc = desc;
    entry.firstSent = desc.createdAt;
    entry.deadline = desc.createdAt + config_.fault.retransTimeout;
    flow.pending.emplace(seq, entry);
    ++pending_;
    nextDeadline_ = std::min(nextDeadline_, entry.deadline);
    return seq;
}

void
E2eEndpoint::attachPiggyback(Flit &head)
{
    for (auto it = ackQueue_.begin(); it != ackQueue_.end(); ++it) {
        if (it->dst != head.dst)
            continue;
        head.ackSeq = it->ackSeq;
        head.nackSeq = it->nackSeq;
        ackQueue_.erase(it);
        return;
    }
}

Cycle
E2eEndpoint::backoffTimeout(int retries) const
{
    Cycle timeout = config_.fault.retransTimeout;
    // Cap the exponent so a deep retry chain cannot overflow or stall the
    // drain phase for an absurd number of cycles.
    const int exponent = std::min(retries, 6);
    for (int i = 0; i < exponent; ++i)
        timeout *= kRetransBackoff;
    return timeout;
}

void
E2eEndpoint::queueAck(NodeId dst, std::uint32_t ackSeq,
                      std::uint32_t nackSeq, Cycle now)
{
    ackQueue_.push_back({dst, ackSeq, nackSeq,
                         now + kAckCoalesce});
}

void
E2eEndpoint::onAck(NodeId from, std::uint32_t seq, Cycle now)
{
    auto flowIt = tx_.find(from);
    if (flowIt == tx_.end())
        return;
    auto it = flowIt->second.pending.find(seq);
    if (it == flowIt->second.pending.end())
        return;  // already acked (duplicate ACK) or already given up
    FlowStats &fs = stats_.flow(id_, from);
    if (it->second.retransmitted) {
        ++fs.recovered;
        fs.recoveryLatencySum += now - it->second.firstSent;
    }
    flowIt->second.pending.erase(it);
    --pending_;
}

void
E2eEndpoint::onNack(NodeId from, std::uint32_t seq, Cycle now)
{
    auto flowIt = tx_.find(from);
    if (flowIt == tx_.end())
        return;
    auto it = flowIt->second.pending.find(seq);
    if (it == flowIt->second.pending.end())
        return;
    TxEntry &entry = it->second;
    if (entry.retries >= config_.fault.retryLimit)
        return;  // the timeout path will declare failure
    ++entry.retries;
    entry.retransmitted = true;
    entry.deadline = now + backoffTimeout(entry.retries);
    nextDeadline_ = std::min(nextDeadline_, entry.deadline);
    ++stats_.flow(id_, from).retransmits;
    nackResends_.push_back({entry.desc, seq});
}

void
E2eEndpoint::finalizeData(const Flit &tail, bool headUnparseable,
                          bool damaged, Cycle now,
                          std::vector<Flit> &deliverTails)
{
    if (tail.e2eSeq == 0) {
        // Unprotected packet (E2E layer off for this traffic class):
        // deliver as-is, exactly like the legacy path.
        deliverTails.push_back(tail);
        return;
    }
    FlowStats &fs = stats_.flow(tail.src, tail.dst);
    if (headUnparseable) {
        // The receiver never even saw a valid header: silent loss, the
        // sender's timeout recovers it.
        ++fs.damaged;
        return;
    }
    if (damaged) {
        // Header intact, content damaged: NACK for a fast retransmit.
        ++fs.damaged;
        ++fs.nacks;
        queueAck(tail.src, 0, tail.e2eSeq, now);
        return;
    }
    RxFlow &flow = rx_[tail.src];
    if (tail.e2eSeq < flow.expected ||
        flow.reorder.count(tail.e2eSeq) != 0) {
        // Duplicate copy (e.g. the original and a timeout retransmission
        // both arrived): discard, but re-ACK so the sender stops.
        ++fs.duplicates;
        queueAck(tail.src, tail.e2eSeq, 0, now);
        return;
    }
    queueAck(tail.src, tail.e2eSeq, 0, now);
    flow.reorder.emplace(tail.e2eSeq, tail);
    // Release the in-order prefix to the node.
    auto it = flow.reorder.find(flow.expected);
    while (it != flow.reorder.end()) {
        deliverTails.push_back(it->second);
        ++fs.delivered;
        flow.reorder.erase(it);
        ++flow.expected;
        it = flow.reorder.find(flow.expected);
    }
}

void
E2eEndpoint::onFlitArrived(const Flit &flit, Cycle now,
                           std::vector<Flit> &deliverTails)
{
    const bool unparseable = (flit.faultFlags & kFaultDropped) != 0;

    // Standalone control packet: absorb and discard (never delivered to
    // the node, never ACKed itself).
    if (flit.kind == E2eKind::kAck) {
        if (unparseable || !flitIntact(flit))
            return;  // a lost ACK just means the sender retries
        if (flit.ackSeq != 0)
            onAck(flit.src, flit.ackSeq, now);
        if (flit.nackSeq != 0)
            onNack(flit.src, flit.nackSeq, now);
        stats_.controlPacketDelivered();
        return;
    }

    // Piggybacked ACK/NACK on a data head: the header is trustworthy
    // unless the framing itself was destroyed.
    if (flitIsHead(flit) && !unparseable) {
        if (flit.ackSeq != 0)
            onAck(flit.src, flit.ackSeq, now);
        if (flit.nackSeq != 0)
            onNack(flit.src, flit.nackSeq, now);
    }

    // Accumulate per-copy damage; decide the packet's fate at the tail.
    RxPacketState state;
    if (flit.length > 1) {
        RxPacketState &tracked = inFlightRx_[flit.packet];
        if (flitIsHead(flit) && unparseable)
            tracked.headUnparseable = true;
        if (unparseable || !flitIntact(flit))
            tracked.damaged = true;
        if (!flitIsTail(flit))
            return;
        state = tracked;
        inFlightRx_.erase(flit.packet);
    } else {
        state.headUnparseable = unparseable;
        state.damaged = unparseable || !flitIntact(flit);
    }
    finalizeData(flit, state.headUnparseable, state.damaged, now,
                 deliverTails);
}

void
E2eEndpoint::expireTimers(Cycle now, std::vector<Resend> &resends)
{
    // Deterministic order: flows by node id, entries by sequence number.
    // The walk visits every entry, so it leaves the exact earliest
    // remaining deadline behind as the new bound.
    Cycle earliest = kNeverCycle;
    for (auto &[dst, flow] : tx_) {
        for (auto it = flow.pending.begin(); it != flow.pending.end();) {
            TxEntry &entry = it->second;
            if (entry.deadline > now) {
                earliest = std::min(earliest, entry.deadline);
                ++it;
                continue;
            }
            FlowStats &fs = stats_.flow(id_, dst);
            if (entry.retries >= config_.fault.retryLimit) {
                // Retry budget exhausted: give up and account the loss.
                ++fs.failed;
                stats_.packetFailed();
                it = flow.pending.erase(it);
                --pending_;
                continue;
            }
            ++entry.retries;
            entry.retransmitted = true;
            entry.deadline = now + backoffTimeout(entry.retries);
            ++fs.retransmits;
            ++fs.timeouts;
            resends.push_back({entry.desc, it->first});
            earliest = std::min(earliest, entry.deadline);
            ++it;
        }
    }
    nextDeadline_ = earliest;
}

void
E2eEndpoint::service(Cycle now, std::vector<Resend> &resends,
                     std::vector<AckSend> &acks)
{
    // Fast retransmits requested by NACKs.
    while (!nackResends_.empty()) {
        resends.push_back(nackResends_.front());
        nackResends_.pop_front();
    }

    // Retransmission timeouts: no entry can be due before the bound.
    if (now >= nextDeadline_)
        expireTimers(now, resends);

    // ACKs whose piggyback window expired go standalone.
    while (!ackQueue_.empty() && ackQueue_.front().due <= now) {
        const AckItem &item = ackQueue_.front();
        acks.push_back({item.dst, item.ackSeq, item.nackSeq});
        ackQueue_.pop_front();
    }
}

E2eEndpoint::TimerProbe
E2eEndpoint::probeTimers() const
{
    TimerProbe p;
    p.keptPending = pending_;
    p.keptBound = nextDeadline_;
    p.scanEarliest = kNeverCycle;
    for (const auto &[dst, flow] : tx_) {
        (void)dst;
        p.scanPending += flow.pending.size();
        for (const auto &[seq, entry] : flow.pending) {
            (void)seq;
            p.scanEarliest = std::min(p.scanEarliest, entry.deadline);
        }
    }
    return p;
}

void
E2eEndpoint::recountTimers()
{
    const TimerProbe scan = probeTimers();
    pending_ = scan.scanPending;
    nextDeadline_ = scan.scanEarliest;
}

void
E2eEndpoint::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("E2E "));
    s.ioMap(tx_, [&s](TxFlow &f) {
        s.io(f.nextSeq);
        s.ioMap(f.pending, [&s](TxEntry &e) {
            s.io(e.desc);
            s.io(e.firstSent);
            s.io(e.deadline);
            s.io(e.retries);
            s.io(e.retransmitted);
        });
    });
    s.ioMap(rx_, [&s](RxFlow &f) {
        s.io(f.expected);
        s.ioMap(f.reorder);
    });
    s.ioUnorderedMap(inFlightRx_, [&s](RxPacketState &p) {
        s.io(p.headUnparseable);
        s.io(p.damaged);
    });
    s.ioSequence(ackQueue_, [&s](AckItem &a) {
        s.io(a.dst);
        s.io(a.ackSeq);
        s.io(a.nackSeq);
        s.io(a.due);
    });
    s.ioSequence(nackResends_, [&s](Resend &r) {
        s.io(r.desc);
        s.io(r.seq);
    });
}

}  // namespace nord
