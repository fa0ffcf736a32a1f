/**
 * @file
 * End-to-end reliability protocol endpoint (one per NI).
 *
 * Sender side: every data packet to a remote node gets a per-flow sequence
 * number and a checksum over its payload surrogate. A copy of the packet
 * descriptor stays in a retransmission buffer until the matching ACK
 * arrives; a lost or damaged packet is retransmitted on NACK (fast path)
 * or on timeout with exponential backoff (slow path), up to a bounded
 * retry budget after which the packet is declared failed.
 *
 * Receiver side: arriving packets are checksum-verified, deduplicated and
 * reordered so the node observes each packet exactly once, in flow order.
 * ACK/NACKs piggyback on the head flits of reverse-direction data packets
 * when possible and travel as standalone single-flit control packets after
 * a short coalescing window otherwise.
 *
 * The endpoint is pure bookkeeping: it never touches the network directly.
 * The NI feeds it arriving flits and executes the sends it requests, so
 * protocol traffic flows through the exact same injection paths (and, for
 * NoRD, the bypass ring) as ordinary traffic.
 */

#ifndef NORD_FAULT_E2E_PROTOCOL_HH
#define NORD_FAULT_E2E_PROTOCOL_HH

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "network/noc_config.hh"
#include "stats/network_stats.hh"

namespace nord {

class StateSerializer;

/**
 * Per-node endpoint of the end-to-end reliability protocol.
 */
class E2eEndpoint
{
  public:
    /** A retransmission the NI should inject. */
    struct Resend
    {
        PacketDescriptor desc;
        std::uint32_t seq;
    };

    /** A standalone ACK/NACK control packet the NI should inject. */
    struct AckSend
    {
        NodeId dst = kInvalidNode;
        std::uint32_t ackSeq = 0;
        std::uint32_t nackSeq = 0;
    };

    E2eEndpoint(NodeId id, const NocConfig &config, NetworkStats &stats);

    /**
     * Sender: allocate the next sequence number of flow id -> desc.dst
     * and arm the retransmission timer. Call once per new data packet
     * (not for retransmitted copies).
     */
    std::uint32_t registerSend(const PacketDescriptor &desc);

    /**
     * Sender: piggyback the oldest pending ACK/NACK for @p head.dst onto
     * an outgoing data head flit, if one is queued.
     */
    void attachPiggyback(Flit &head);

    /**
     * Process one physically arriving flit (receiver data tracking plus
     * sender ACK/NACK absorption). Tails of packets that become logically
     * deliverable -- intact, deduplicated, in flow order -- are appended
     * to @p deliverTails.
     */
    void onFlitArrived(const Flit &flit, Cycle now,
                       std::vector<Flit> &deliverTails);

    /**
     * Expire retransmission timers and the ACK coalescing window.
     * Requested retransmissions and standalone ACK packets are appended
     * for the NI to inject.
     */
    void service(Cycle now, std::vector<Resend> &resends,
                 std::vector<AckSend> &acks);

    /** No unacked sends and no protocol traffic waiting to be emitted. */
    bool quiescent() const
    {
        return pending_ == 0 && ackQueue_.empty() && nackResends_.empty();
    }

    /** Unacked data packets currently awaiting ACK or retransmission. */
    size_t pendingSends() const { return pending_; }

    /**
     * The timer bookkeeping as kept, beside what a scan of the buffers
     * gives: the pending count and the earliest pending deadline
     * (kNeverCycle when nothing is pending).
     */
    struct TimerProbe
    {
        size_t keptPending = 0;
        Cycle keptBound = 0;  ///< nextDeadline_
        size_t scanPending = 0;
        Cycle scanEarliest = 0;
    };

    /** Auditor hook: the kept timer bookkeeping beside a full scan. */
    TimerProbe probeTimers() const;

    /**
     * Rebuild the pending count and the deadline bound from the
     * retransmission buffers. NocSystem calls it after every restore
     * walk, which writes the buffers but neither of the two.
     */
    void recountTimers();

    /**
     * Checkpoint hook: retransmission buffers, flow sequence state,
     * receiver reorder/dedup tracking and pending ACK/NACK queues.
     */
    void serializeState(StateSerializer &s);

  private:
    /** One unacked packet in the retransmission buffer. */
    struct TxEntry
    {
        PacketDescriptor desc;
        Cycle firstSent = 0;
        Cycle deadline = 0;
        int retries = 0;
        bool retransmitted = false;
    };

    /** Sender state for flow id_ -> dst. */
    struct TxFlow
    {
        std::uint32_t nextSeq = 1;
        std::map<std::uint32_t, TxEntry> pending;
    };

    /** Receiver state for flow src -> id_. */
    struct RxFlow
    {
        std::uint32_t expected = 1;         ///< next in-order sequence
        std::map<std::uint32_t, Flit> reorder;  ///< held intact tails
    };

    /** Damage accumulated by the in-flight copy with one physical id. */
    struct RxPacketState
    {
        bool headUnparseable = false;
        bool damaged = false;
    };

    /** Pending ACK/NACK awaiting piggyback or standalone emission. */
    struct AckItem
    {
        NodeId dst = kInvalidNode;
        std::uint32_t ackSeq = 0;
        std::uint32_t nackSeq = 0;
        Cycle due = 0;  ///< standalone emission deadline
    };

    void queueAck(NodeId dst, std::uint32_t ackSeq, std::uint32_t nackSeq,
                  Cycle now);
    void onAck(NodeId from, std::uint32_t seq, Cycle now);
    void onNack(NodeId from, std::uint32_t seq, Cycle now);
    void finalizeData(const Flit &tail, bool headUnparseable, bool damaged,
                      Cycle now, std::vector<Flit> &deliverTails);

    /** Timeout for the (retries)-th retransmission, with backoff. */
    Cycle backoffTimeout(int retries) const;

    /** Walk every pending entry: retransmit or fail the expired ones. */
    void expireTimers(Cycle now, std::vector<Resend> &resends);

    NORD_STATE_EXCLUDE(config, "endpoint identity fixed at construction")
    NodeId id_;
    const NocConfig &config_;
    NetworkStats &stats_;

    std::map<NodeId, TxFlow> tx_;
    std::map<NodeId, RxFlow> rx_;
    std::unordered_map<PacketId, RxPacketState> inFlightRx_;
    std::deque<AckItem> ackQueue_;
    std::deque<Resend> nackResends_;  ///< fast retransmits awaiting service

    // Timer bookkeeping, so a cycle with no expired deadline costs no
    // walk: service() skips the timeout walk while now < nextDeadline_.
    NORD_STATE_EXCLUDE(cache, "sum of the pending buffers' sizes; "
                       "recountTimers() rebuilds it after a restore")
    size_t pending_ = 0;
    NORD_STATE_EXCLUDE(cache, "lower bound on every pending deadline; "
                       "recountTimers() rebuilds it after a restore")
    Cycle nextDeadline_ = kNeverCycle;
};

}  // namespace nord

#endif  // NORD_FAULT_E2E_PROTOCOL_HH
