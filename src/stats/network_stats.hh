/**
 * @file
 * Simulation statistics: packet latency, router activity counters,
 * power-state residency, and idle-period histograms.
 *
 * The counters double as the input to the power model: every dynamic
 * energy event (buffer write/read, VA, SA, crossbar, link, NI bypass) is
 * counted here and converted to Joules after the run.
 */

#ifndef NORD_STATS_NETWORK_STATS_HH
#define NORD_STATS_NETWORK_STATS_HH

#include <cstdint>
#include <vector>

#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"

namespace nord {

class StateSerializer;

/**
 * End-to-end resilience statistics for one (src, dst) flow.
 */
struct FlowStats
{
    std::uint64_t delivered = 0;     ///< packets logically delivered in order
    std::uint64_t retransmits = 0;   ///< retransmitted copies sent
    std::uint64_t timeouts = 0;      ///< retransmissions due to ACK timeout
    std::uint64_t nacks = 0;         ///< NACKs issued by the receiver
    std::uint64_t duplicates = 0;    ///< duplicate copies discarded
    std::uint64_t damaged = 0;       ///< copies discarded for damage
    std::uint64_t failed = 0;        ///< packets abandoned (retry budget)
    std::uint64_t recovered = 0;     ///< packets acked after >= 1 retransmit
    std::uint64_t recoveryLatencySum = 0;  ///< first-send-to-ACK cycles of
                                           ///< recovered packets
};

/**
 * Dynamic-event and power-state counters for one router (including its NI
 * and outgoing links).
 */
struct ActivityCounters
{
    // Dynamic events.
    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t vcAllocs = 0;       ///< VA grants
    std::uint64_t swAllocs = 0;       ///< SA grants
    std::uint64_t xbarTraversals = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t bypassLatchWrites = 0;  ///< NoRD: flits written to NI latch
    std::uint64_t bypassForwards = 0;     ///< NoRD: flits re-injected by NI

    // Power-state residency (cycles).
    std::uint64_t onCycles = 0;
    std::uint64_t offCycles = 0;
    std::uint64_t wakingCycles = 0;

    // Power-gating state transitions.
    std::uint64_t wakeups = 0;
    std::uint64_t sleeps = 0;

    // Datapath occupancy (independent of gating; drives the Section 3
    // idleness study).
    std::uint64_t emptyCycles = 0;
    std::uint64_t busyCycles = 0;
};

/**
 * Histogram of router idle-period lengths.
 *
 * Buckets are 1-cycle wide up to @p maxBucket; longer periods land in the
 * overflow bucket but their exact lengths still contribute to the sums.
 */
class IdlePeriodHistogram
{
  public:
    explicit IdlePeriodHistogram(int maxBucket = 64);

    /** Record one idle period of @p length cycles. */
    void record(Cycle length);

    /** Number of idle periods recorded. */
    std::uint64_t count() const { return count_; }

    /** Total idle cycles across all periods. */
    std::uint64_t totalCycles() const { return totalCycles_; }

    /** Periods with length <= @p limit. */
    std::uint64_t countAtOrBelow(Cycle limit) const;

    /** Fraction of periods with length <= @p limit (0 when empty). */
    double fractionAtOrBelow(Cycle limit) const;

    /** Mean period length (0 when empty). */
    double mean() const;

    /** Raw bucket counts; index i holds periods of length i. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Checkpoint hook. */
    void serializeState(StateSerializer &s);

  private:
    std::vector<std::uint64_t> buckets_;  ///< [0, maxBucket]; last=overflow
    std::uint64_t count_ = 0;
    std::uint64_t totalCycles_ = 0;
};

/**
 * Whole-network statistics collected during one simulation.
 */
class NetworkStats
{
  public:
    NetworkStats(int numRouters, Cycle warmup);

    /**
     * Allocate the next network-unique packet id. Lives here -- the one
     * object every NI already shares -- so packet numbering is per-system
     * (two simulations in one process replay identically) and restores
     * with the rest of the run state on checkpoint load.
     */
    PacketId allocPacketId() { return nextPacketId_++; }

    // --- Packet bookkeeping ---------------------------------------------
    /** A packet's flits entered the NI injection queue. */
    void packetCreated(const PacketDescriptor &desc);

    /** The tail flit of a packet was ejected at its destination NI. */
    void packetDelivered(const Flit &tail, Cycle now);

    /** A flit entered the network fabric (left the NI). */
    void flitInjected(Cycle now);

    /**
     * A flit left the network fabric (delivered to its node, whether via
     * the ejection queue or the NoRD bypass sink). Together with
     * flitInjected() this gives the exact in-network flit population the
     * InvariantAuditor checks conservation against.
     */
    void flitEjected(Cycle now);

    // --- Fault / resilience bookkeeping ------------------------------------
    /**
     * A flit was discarded ("eaten") at the input stage of a permanently
     * dead router, its credit returned upstream. Eaten flits left the
     * fabric without reaching a node.
     */
    void flitEaten(Cycle now);

    /** A packet was abandoned: dropped at a dead router (no E2E layer) or
        its retransmission budget was exhausted. */
    void packetFailed();

    /** A standalone ACK/NACK control packet was created. */
    void controlPacketCreated();

    /** A standalone ACK/NACK control packet reached its destination. */
    void controlPacketDelivered();

    /**
     * Mutable per-flow resilience stats for flow src -> dst. The first
     * call sizes a dense numRouters x numRouters table, so only a run
     * with the E2E layer (the one caller) pays for it.
     */
    FlowStats &flow(NodeId src, NodeId dst);

    // --- Router activity ---------------------------------------------------
    ActivityCounters &router(NodeId id) { return routers_[id]; }
    const ActivityCounters &router(NodeId id) const { return routers_[id]; }

    /**
     * Router @p id observed its datapath empty (or not) at cycle @p now.
     *
     * Accounting is transition-based: a sample in the same mode as the
     * open run is a state no-op, so a router that skips cycles while
     * quiescent (sim/kernel.hh idle skipping) produces bit-identical
     * stats to one sampling every cycle. Runs are closed (length added
     * to emptyCycles/busyCycles, idle runs recorded in the histogram)
     * only on a mode change or at finalize().
     */
    void routerIdleSample(NodeId id, bool empty, Cycle now);

    /** Close open empty/busy runs at end of simulation (idempotent). */
    void finalize(Cycle now);

    // --- Results ------------------------------------------------------------
    std::uint64_t packetsCreated() const { return packetsCreated_; }
    std::uint64_t packetsDelivered() const { return packetsDelivered_; }
    std::uint64_t packetsFailed() const { return packetsFailed_; }
    std::uint64_t flitsInjected() const { return flitsInjected_; }
    std::uint64_t flitsDelivered() const { return flitsDelivered_; }
    std::uint64_t flitsEjected() const { return flitsEjected_; }
    std::uint64_t flitsEaten() const { return flitsEaten_; }
    std::uint64_t controlPacketsCreated() const
    {
        return controlPacketsCreated_;
    }
    std::uint64_t controlPacketsDelivered() const
    {
        return controlPacketsDelivered_;
    }

    /** Sum of all per-flow resilience stats. */
    FlowStats flowTotals() const;

    /** Mean packet latency in cycles (creation to tail ejection). */
    double avgPacketLatency() const;

    /**
     * Latency percentile @p p in [0, 1] over measured packets, from a
     * 1-cycle-bucket histogram (exact below the overflow bucket).
     */
    double latencyPercentile(double p) const;

    /** Mean hop count of delivered packets. */
    double avgHops() const;

    /** Aggregate counters over all routers. */
    ActivityCounters totals() const;

    /** Mean fraction of cycles the router datapaths were empty. */
    double avgIdleFraction() const;

    /** Total router wakeups across the network. */
    std::uint64_t totalWakeups() const;

    /** Per-router idle-period histogram. */
    const IdlePeriodHistogram &idleHistogram(NodeId id) const
    {
        return idleHists_[id];
    }

    /** Combined idle-period histogram over all routers. */
    IdlePeriodHistogram combinedIdleHistogram() const;

    int numRouters() const { return static_cast<int>(routers_.size()); }

    /** Checkpoint hook: every counter, histogram and flow record. */
    void serializeState(StateSerializer &s);

  private:
    /** The flow records' part of serializeState. */
    void serializeFlows(StateSerializer &s);

    std::vector<ActivityCounters> routers_;
    std::vector<IdlePeriodHistogram> idleHists_;
    // Open empty/busy run per router: mode flag + start cycle
    // (kNeverCycle = no run opened yet).
    std::vector<std::uint8_t> runEmpty_;
    std::vector<Cycle> runStart_;

    NORD_STATE_EXCLUDE(config, "warmup horizon fixed at construction")
    Cycle warmup_;
    std::uint64_t packetsCreated_ = 0;
    std::uint64_t packetsDelivered_ = 0;
    std::uint64_t packetsFailed_ = 0;
    std::uint64_t flitsInjected_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    std::uint64_t flitsEjected_ = 0;
    std::uint64_t flitsEaten_ = 0;
    std::uint64_t controlPacketsCreated_ = 0;
    std::uint64_t controlPacketsDelivered_ = 0;
    std::uint64_t latencySum_ = 0;
    std::uint64_t hopSum_ = 0;
    std::uint64_t measuredPackets_ = 0;
    std::vector<std::uint64_t> latencyHist_;  ///< 1-cycle buckets + overflow
    std::vector<FlowStats> flows_;  ///< [src * numRouters + dst], or empty
    std::vector<std::uint8_t> flowTouched_;  ///< flow() ever called on it
    PacketId nextPacketId_ = 1;
};

}  // namespace nord

#endif  // NORD_STATS_NETWORK_STATS_HH
