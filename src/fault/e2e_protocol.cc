/**
 * @file
 * End-to-end reliability protocol implementation.
 */

#include "fault/e2e_protocol.hh"

#include <algorithm>
#include <string>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"

namespace nord {

namespace {

/** Retransmission timeout multiplier per retry (exponential backoff). */
constexpr Cycle kRetransBackoff = 2;

/** Cycles an ACK waits for a piggyback ride before going standalone. */
constexpr Cycle kAckCoalesce = 8;

/** Sort key of flow entry @p seq of @p node: node high, seq low. */
std::uint64_t
flowKey(NodeId node, std::uint32_t seq)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           seq;
}

/** Whether flow entry key @p key belongs to @p node's flow. */
bool
keyOfNode(std::uint64_t key, NodeId node)
{
    return (key >> 32) == static_cast<std::uint32_t>(node);
}

}  // namespace

E2eEndpoint::E2eEndpoint(NodeId id, const NocConfig &config,
                         NetworkStats &stats, PoolArena *arena)
    : id_(id), config_(config), stats_(stats),
      nextSeq_(static_cast<size_t>(config.numNodes()), 1,
               ArenaAllocator<std::uint32_t>(arena)),
      expected_(static_cast<size_t>(config.numNodes()), 1,
                ArenaAllocator<std::uint32_t>(arena)),
      tx_(ArenaAllocator<TxEntry>(arena)),
      held_(ArenaAllocator<Flit>(arena)),
      inFlightRx_(ArenaAllocator<RxCopy>(arena)),
      ackQueue_(ArenaAllocator<AckItem>(arena)),
      nackResends_(ArenaAllocator<Resend>(arena))
{
    // Deepest tables seen on 8x8 uniform traffic at 0.06-0.10 over 10k
    // cycles, with and without transients up to 1e-3: 13 sends unacked,
    // 2 tails held, 3 copies partly arrived. Past a reservation a table
    // doubles, and never shrinks.
    tx_.reserve(16);
    held_.reserve(2);
    inFlightRx_.reserve(static_cast<size_t>(config.numVcs));
    ackQueue_.reserve(4);
    nackResends_.reserve(2);
}

std::uint64_t
E2eEndpoint::keyOf(const TxEntry &e)
{
    return flowKey(e.desc.dst, e.seq);
}

std::uint64_t
E2eEndpoint::keyOf(const Flit &tail)
{
    return flowKey(tail.src, tail.e2eSeq);
}

template <typename T>
std::size_t
E2eEndpoint::lowerBound(const ArenaRing<T> &table, std::uint64_t key)
{
    std::size_t lo = 0;
    std::size_t hi = table.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (keyOf(table[mid]) < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

std::size_t
E2eEndpoint::findSend(NodeId dst, std::uint32_t seq) const
{
    const std::size_t pos = lowerBound(tx_, flowKey(dst, seq));
    if (pos < tx_.size() && keyOf(tx_[pos]) == flowKey(dst, seq))
        return pos;
    return tx_.size();
}

std::uint32_t
E2eEndpoint::registerSend(const PacketDescriptor &desc)
{
    NORD_ASSERT(desc.dst != id_, "E2E protection of a self-addressed "
                "packet at node %d", id_);
    TxEntry entry;
    entry.desc = desc;
    entry.seq = nextSeq_[desc.dst]++;
    entry.firstSent = desc.createdAt;
    entry.deadline = desc.createdAt + config_.fault.retransTimeout;
    tx_.insert(lowerBound(tx_, keyOf(entry)), entry);
    nextDeadline_ = std::min(nextDeadline_, entry.deadline);
    return entry.seq;
}

void
E2eEndpoint::attachPiggyback(Flit &head)
{
    for (std::size_t i = 0; i < ackQueue_.size(); ++i) {
        const AckItem &item = ackQueue_[i];
        if (item.dst != head.dst)
            continue;
        head.ackSeq = item.ackSeq;
        head.nackSeq = item.nackSeq;
        ackQueue_.erase(i);
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
    const std::size_t pos = findSend(from, seq);
    if (pos == tx_.size())
        return;  // already acked (duplicate ACK) or already given up
    const TxEntry &entry = tx_[pos];
    FlowStats &fs = stats_.flow(id_, from);
    if (entry.retransmitted) {
        ++fs.recovered;
        fs.recoveryLatencySum += now - entry.firstSent;
    }
    tx_.erase(pos);
}

void
E2eEndpoint::onNack(NodeId from, std::uint32_t seq, Cycle now)
{
    const std::size_t pos = findSend(from, seq);
    if (pos == tx_.size())
        return;
    TxEntry &entry = tx_[pos];
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
    std::uint32_t &expected = expected_[tail.src];
    const std::size_t pos = lowerBound(held_, keyOf(tail));
    if (tail.e2eSeq < expected ||
        (pos < held_.size() && keyOf(held_[pos]) == keyOf(tail))) {
        // Duplicate copy (e.g. the original and a timeout retransmission
        // both arrived): discard, but re-ACK so the sender stops.
        ++fs.duplicates;
        queueAck(tail.src, tail.e2eSeq, 0, now);
        return;
    }
    queueAck(tail.src, tail.e2eSeq, 0, now);
    if (tail.e2eSeq != expected) {
        held_.insert(pos, tail);  // behind a hole: wait for it
        return;
    }
    // Release it and the held run it completes, in order, to the node.
    deliverTails.push_back(tail);
    ++fs.delivered;
    ++expected;
    while (pos < held_.size() &&
           keyOf(held_[pos]) == flowKey(tail.src, expected)) {
        deliverTails.push_back(held_[pos]);
        ++fs.delivered;
        held_.erase(pos);
        ++expected;
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
    RxCopy state;
    if (flit.length > 1) {
        const std::size_t pos = lowerBound(inFlightRx_, flit.packet);
        if (pos == inFlightRx_.size() ||
            inFlightRx_[pos].packet != flit.packet)
            inFlightRx_.insert(pos, RxCopy{flit.packet});
        RxCopy &tracked = inFlightRx_[pos];
        if (flitIsHead(flit) && unparseable)
            tracked.headUnparseable = true;
        if (unparseable || !flitIntact(flit))
            tracked.damaged = true;
        if (!flitIsTail(flit))
            return;
        state = tracked;
        inFlightRx_.erase(pos);
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
    // Deterministic order: flows by node id, entries by sequence number,
    // which is the buffer's own order. The walk visits every entry, so
    // it leaves the exact earliest remaining deadline behind as the new
    // bound.
    Cycle earliest = kNeverCycle;
    for (std::size_t i = 0; i < tx_.size();) {
        TxEntry &entry = tx_[i];
        if (entry.deadline > now) {
            earliest = std::min(earliest, entry.deadline);
            ++i;
            continue;
        }
        FlowStats &fs = stats_.flow(id_, entry.desc.dst);
        if (entry.retries >= config_.fault.retryLimit) {
            // Retry budget exhausted: give up and account the loss.
            ++fs.failed;
            stats_.packetFailed();
            tx_.erase(i);
            continue;
        }
        ++entry.retries;
        entry.retransmitted = true;
        entry.deadline = now + backoffTimeout(entry.retries);
        ++fs.retransmits;
        ++fs.timeouts;
        resends.push_back({entry.desc, entry.seq});
        earliest = std::min(earliest, entry.deadline);
        ++i;
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

E2eEndpoint::Occupancy
E2eEndpoint::occupancy() const
{
    Occupancy o;
    for (const TxEntry &e : tx_)
        o.retrying += e.retransmitted ? 1 : 0;
    o.heldTails = held_.size();
    o.partialCopies = inFlightRx_.size();
    return o;
}

E2eEndpoint::TimerProbe
E2eEndpoint::probeTimers() const
{
    TimerProbe p;
    p.keptBound = nextDeadline_;
    p.scanEarliest = kNeverCycle;
    for (const TxEntry &e : tx_)
        p.scanEarliest = std::min(p.scanEarliest, e.deadline);
    return p;
}

void
E2eEndpoint::recountTimers()
{
    nextDeadline_ = probeTimers().scanEarliest;
}

template <typename T, typename EntryFn>
void
E2eEndpoint::ioFlows(StateSerializer &s, SeqArray &seqs,
                     ArenaRing<T> &table, EntryFn &&entryFn)
{
    const NodeId nodes = static_cast<NodeId>(seqs.size());
    if (s.loading()) {
        std::fill(seqs.begin(), seqs.end(), 1u);
        table.clear();
        std::uint64_t flows = 0;
        s.io(flows);
        NodeId last = kInvalidNode;
        for (std::uint64_t f = 0; f < flows && s.ok(); ++f) {
            NodeId node = kInvalidNode;
            s.io(node);
            if (node <= last || node >= nodes) {
                s.fail("E2E flow of node " + std::to_string(node) +
                       " out of order or off the mesh");
                return;
            }
            last = node;
            s.io(seqs[node]);
            std::uint64_t entries = 0;
            s.io(entries);
            if (seqs[node] == 1 && entries == 0) {
                s.fail("E2E flow of node " + std::to_string(node) +
                       " saved untouched");
                return;
            }
            for (std::uint64_t e = 0; e < entries && s.ok(); ++e) {
                T v{};
                entryFn(v);
                const std::uint64_t key = keyOf(v);
                if (!keyOfNode(key, node) ||
                    (!table.empty() && keyOf(table.back()) >= key)) {
                    s.fail("E2E entry of node " + std::to_string(node) +
                           " out of order or in the wrong flow");
                    return;
                }
                table.push_back(v);
            }
        }
        return;
    }
    // A flow's entries are the run of the table whose key has its node
    // in the high word.
    auto runEnd = [&table](std::size_t pos, NodeId node) {
        while (pos < table.size() && keyOfNode(keyOf(table[pos]), node))
            ++pos;
        return pos;
    };
    std::uint64_t flows = 0;
    std::size_t pos = 0;
    for (NodeId node = 0; node < nodes; ++node) {
        const std::size_t end = runEnd(pos, node);
        flows += (seqs[node] != 1 || end != pos) ? 1 : 0;
        pos = end;
    }
    s.io(flows);
    pos = 0;
    for (NodeId node = 0; node < nodes; ++node) {
        const std::size_t end = runEnd(pos, node);
        if (seqs[node] == 1 && end == pos)
            continue;  // never touched
        NodeId key = node;
        s.io(key);
        s.io(seqs[node]);
        std::uint64_t entries = end - pos;
        s.io(entries);
        for (; pos < end; ++pos)
            entryFn(table[pos]);
    }
}

void
E2eEndpoint::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("E2E "));
    ioFlows(s, nextSeq_, tx_, [&s](TxEntry &e) {
        s.io(e.seq);
        s.io(e.desc);
        s.io(e.firstSent);
        s.io(e.deadline);
        s.io(e.retries);
        s.io(e.retransmitted);
    });
    ioFlows(s, expected_, held_, [&s](Flit &tail) {
        std::uint32_t seq = tail.e2eSeq;
        s.io(seq);
        s.io(tail);
        if (s.loading() && seq != tail.e2eSeq)
            s.fail("E2E held tail filed under the wrong sequence number");
    });
    s.ioSequence(inFlightRx_, [&s](RxCopy &c) {
        s.io(c.packet);
        s.io(c.headUnparseable);
        s.io(c.damaged);
    });
    for (std::size_t i = 1; s.loading() && i < inFlightRx_.size(); ++i) {
        if (inFlightRx_[i - 1].packet >= inFlightRx_[i].packet)
            s.fail("E2E in-flight copies out of packet order");
    }
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
