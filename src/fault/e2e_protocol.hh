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
 * State layout: every buffer is an ArenaRing over the system's pool
 * arena. Three are tables sorted by key -- the sender's pending sends by
 * (destination, sequence number), the receiver's held tails by (source,
 * sequence number), partly arrived multi-flit copies by packet id -- and
 * the ACK and fast-retransmit queues are FIFOs. Beside them sits one
 * dense per-node array of sequence numbers per side. A send, an arrival
 * or an ACK moves entries within storage the buffers already own, so
 * steady traffic allocates nothing; a buffer grows by doubling to its
 * deepest backlog and never shrinks.
 *
 * The endpoint is pure bookkeeping: it never touches the network directly.
 * The NI feeds it arriving flits and executes the sends it requests, so
 * protocol traffic flows through the exact same injection paths (and, for
 * NoRD, the bypass ring) as ordinary traffic.
 */

#ifndef NORD_FAULT_E2E_PROTOCOL_HH
#define NORD_FAULT_E2E_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
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

    /** @p arena backs the buffers (null: the heap). */
    E2eEndpoint(NodeId id, const NocConfig &config, NetworkStats &stats,
                PoolArena *arena = nullptr);

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
        return tx_.empty() && ackQueue_.empty() && nackResends_.empty();
    }

    /** Unacked data packets currently awaiting ACK or retransmission. */
    size_t pendingSends() const { return tx_.size(); }

    /** What the endpoint's buffers hold (tests and diagnostics). */
    struct Occupancy
    {
        size_t retrying = 0;       ///< pending sends retransmitted once+
        size_t heldTails = 0;      ///< intact tails behind a reorder hole
        size_t partialCopies = 0;  ///< multi-flit copies partly arrived
    };

    Occupancy occupancy() const;

    /**
     * The deadline bound as kept, beside the earliest pending deadline a
     * scan of the retransmission buffer gives (kNeverCycle when nothing
     * is pending).
     */
    struct TimerProbe
    {
        Cycle keptBound = 0;  ///< nextDeadline_
        Cycle scanEarliest = 0;
    };

    /** Auditor hook: the kept deadline bound beside a full scan. */
    TimerProbe probeTimers() const;

    /**
     * Rebuild the deadline bound from the retransmission buffer.
     * NocSystem calls it after every restore walk, which writes the
     * buffer but not the bound.
     */
    void recountTimers();

    /**
     * Checkpoint hook: retransmission buffers, flow sequence state,
     * receiver reorder/dedup tracking and pending ACK/NACK queues.
     */
    void serializeState(StateSerializer &s);

  private:
    /** Per-node sequence numbers of one side, on the arena. */
    using SeqArray =
        std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>>;

    /** One unacked packet in the retransmission buffer. */
    struct TxEntry
    {
        PacketDescriptor desc;  ///< desc.dst names the flow
        std::uint32_t seq = 0;
        Cycle firstSent = 0;
        Cycle deadline = 0;
        int retries = 0;
        bool retransmitted = false;
    };

    /** Damage accumulated by the in-flight copy with one physical id. */
    struct RxCopy
    {
        PacketId packet = 0;
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

    // Sort keys of the three tables: the flow's node in the high word
    // and the sequence number in the low one, or the packet id.
    static std::uint64_t keyOf(const TxEntry &e);
    static std::uint64_t keyOf(const Flit &tail);
    static std::uint64_t keyOf(const RxCopy &c) { return c.packet; }

    /** First position of @p table whose key is not below @p key. */
    template <typename T>
    static std::size_t lowerBound(const ArenaRing<T> &table,
                                  std::uint64_t key);

    /**
     * Walk one side's flows in the layout of a node-keyed map of flows:
     * the number of touched flows (a sequence number off 1, or an entry
     * held), then per flow in node order its node, its sequence number
     * in @p seqs and its entries of @p table in key order, each through
     * @p entryFn.
     */
    template <typename T, typename EntryFn>
    void ioFlows(StateSerializer &s, SeqArray &seqs,
                 ArenaRing<T> &table, EntryFn &&entryFn);

    /** Position of pending send @p seq to @p dst in tx_, or tx_.size(). */
    std::size_t findSend(NodeId dst, std::uint32_t seq) const;

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

    SeqArray nextSeq_;   ///< per destination, from 1
    SeqArray expected_;  ///< per source: next in order
    ArenaRing<TxEntry> tx_;    ///< unacked sends by (dst, seq)
    ArenaRing<Flit> held_;     ///< intact out-of-order tails by (src, seq)
    ArenaRing<RxCopy> inFlightRx_;  ///< partly arrived copies by packet
    ArenaRing<AckItem> ackQueue_;
    ArenaRing<Resend> nackResends_;  ///< fast retransmits awaiting service

    // Timer bookkeeping, so a cycle with no expired deadline costs no
    // walk: service() skips the timeout walk while now < nextDeadline_.
    NORD_STATE_EXCLUDE(cache, "lower bound on every pending deadline; "
                       "recountTimers() rebuilds it after a restore")
    Cycle nextDeadline_ = kNeverCycle;
};

}  // namespace nord

#endif  // NORD_FAULT_E2E_PROTOCOL_HH
