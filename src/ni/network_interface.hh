/**
 * @file
 * Network interface (NI) with the NoRD decoupling-bypass datapath
 * (Section 4.2, Figure 4c).
 *
 * Normal duties: packetize node traffic into flits, allocate a VC and
 * check credits on the router's local input port, inject one flit per
 * cycle, and eject arriving flits to the node.
 *
 * NoRD additions (all always-on): a bypass latch with one slot per VC fed
 * by the router's Bypass Inport, a demultiplexer that either sinks a
 * latched flit locally or forwards it, and a multiplexer that re-injects
 * forwarded flits (and local traffic, while the router is gated off) into
 * the router's Bypass Outport. The three-stage bypass pipeline is:
 *   (1) LT writes the flit into the bypass latch;
 *   (2) the NI sinks it or allocates an output VC (checking credits);
 *   (3) the flit is re-injected through the Bypass Outport (ST), then LT.
 *
 * The number of VC-allocation requests seen here per cycle is the NoRD
 * wakeup metric (Section 4.3).
 */

#ifndef NORD_NI_NETWORK_INTERFACE_HH
#define NORD_NI_NETWORK_INTERFACE_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "fault/e2e_protocol.hh"
#include "network/noc_config.hh"
#include "sim/clocked.hh"
#include "stats/network_stats.hh"

namespace nord {

class Router;
class RoutingPolicy;
class StateSerializer;

/**
 * One node's network interface.
 */
class NetworkInterface : public Clocked
{
  public:
    /** Callback invoked when a packet's tail flit reaches the node. */
    using DeliveryCallback = std::function<void(const Flit &, Cycle)>;

    /** @p arena optionally backs the flit queues (null = heap). */
    NetworkInterface(NodeId id, const NocConfig &config,
                     NetworkStats &stats, PoolArena *arena = nullptr);

    void setRouter(Router *router) { router_ = router; }
    void setPolicy(const RoutingPolicy *policy) { policy_ = policy; }
    void setDeliveryCallback(DeliveryCallback cb) { onDelivery_ = std::move(cb); }

    NodeId id() const { return id_; }
    std::string name() const override;

    void tick(Cycle now) override;

    // NIs are never skipped: vcRequestsThisCycle() is a per-cycle signal
    // the NordController samples, and the E2E endpoint runs retransmit
    // timers. Clocked's default (never quiescent) stands.

    // --- Node-facing interface --------------------------------------------
    /** Packetize and queue a new packet for injection. */
    void enqueuePacket(const PacketDescriptor &desc);

    /** Flits waiting to enter the network. */
    size_t injectionBacklog() const { return injectQ_.size(); }

    /**
     * True when no flit is queued, in flight to the node, or bypassing,
     * and (with the E2E layer on) no send is awaiting acknowledgement.
     */
    bool idle() const
    {
        return injectQ_.empty() && ejectQ_.empty() && bypassQuiescent() &&
               (!e2e_ || e2e_->quiescent());
    }

    /** End-to-end protocol endpoint (null unless config.fault.e2e). */
    const E2eEndpoint *e2e() const { return e2e_.get(); }

    /**
     * After a restore walk: rebuild the E2E endpoint's timer bookkeeping
     * (E2eEndpoint::recountTimers), which the walk does not carry.
     */
    void recountE2eTimers()
    {
        if (e2e_)
            e2e_->recountTimers();
    }

    // --- Router-facing interface -------------------------------------------
    /** A flit left the router's local output port; arrives at @p due. */
    void acceptEjection(const Flit &flit, Cycle due);

    /** Credit return for the router's local input port. */
    void localCreditReturn(VcId vc);

    // --- NoRD bypass --------------------------------------------------------
    /**
     * Decide whether a flit arriving on the Bypass Inport belongs to the
     * bypass datapath (head: router not fully on; body/tail: follows its
     * head). Registers/unregisters the packet as a bypass flow.
     */
    bool claimForBypass(const Flit &flit);

    /** Stage 1: the link wrote @p flit into the bypass latch. */
    void bypassLatchWrite(const Flit &flit, Cycle now);

    /** Flits forwarded through the single-cycle aggressive cut-through. */
    std::uint64_t aggressiveForwards() const { return aggressiveFwds_; }

    /** Router gated off: the bypass datapath is now the only path. */
    void enableBypass(Cycle now);

    /** Router woke up: drain remaining bypass flows, then hand over. */
    void beginBypassDrain(Cycle now);

    /**
     * True when no bypass state is live (latch empty, no staged flits, no
     * claimed packets, no local packet mid-bypass). Conventional designs
     * are always quiescent.
     */
    bool bypassQuiescent() const;

    /** NoRD wakeup metric input: VC requests observed this cycle. */
    int vcRequestsThisCycle() const { return vcRequests_; }

    /**
     * True when the bypass re-injection stage will drive the Bypass
     * Outport this cycle; the router pipeline yields the port for one
     * cycle (the physical mux in Figure 4b).
     */
    bool stage3Pending(Cycle now) const;

    /** Packets whose tail reached this node (convenience for tests). */
    std::uint64_t packetsReceived() const { return packetsReceived_; }

    // --- Introspection (InvariantAuditor; cheap, non-intrusive) -----------
    /** Flits ejected from the router but not yet delivered to the node. */
    size_t ejectQueueDepth() const { return ejectQ_.size(); }

    /** Total flits held in the bypass latch (all slots). */
    int latchOccupancy() const { return latchOccupancy_; }

    /** Flits held in bypass latch slot @p slot. */
    size_t latchSlotDepth(VcId slot) const { return latch_[slot].size(); }

    /** Flits staged for bypass re-injection (stage 3). */
    size_t stage3Depth() const { return stage3_.size(); }

    /** Staged bypass flits whose reserved output VC is @p outVc. */
    int stage3CountForVc(VcId outVc) const;

    /** Credits this NI holds for VC @p vc of the router's local port. */
    int localCredit(VcId vc) const { return localCredits_[vc]; }

    /**
     * True when the bypass datapath holds output VC @p outVc of the
     * router's Bypass Outport (mid-packet forward, local bypass packet,
     * or a staged flit that reserved it).
     */
    bool holdsBypassOutVc(VcId outVc) const;

    /** Visit every in-NI flit that counts as in-network (ejection queue,
     *  bypass latch, stage 3) for conservation and age sweeps. */
    template <typename Fn>
    void forEachPendingFlit(Fn &&fn) const
    {
        for (const EjectEntry &e : ejectQ_)
            fn(e.flit);
        for (const auto &slot : latch_) {
            for (const LatchEntry &e : slot)
                fn(e.flit);
        }
        for (const StagedFlit &s : stage3_)
            fn(s.flit);
    }

    /** Dump bypass/injection state to @p out (diagnostics). */
    void dumpState(std::FILE *out) const;

    /**
     * Checkpoint hook: injection/ejection queues, local credits, the whole
     * bypass datapath (latch, stage-2 decisions, stage 3, claimed flows)
     * and the E2E protocol endpoint when present.
     */
    void serializeState(StateSerializer &s);

  private:
    /** A flit on its way from the router's local output to the node. */
    struct EjectEntry
    {
        Flit flit;
        Cycle due;  ///< cycle the flit reaches the node
    };

    struct LatchEntry
    {
        Flit flit;
        Cycle allocReady;  ///< earliest cycle for stage 2
    };

    /** Stage-2 decision for the packet occupying one latch slot. */
    struct ForwardState
    {
        bool active = false;
        bool sink = false;
        VcId outVc = kInvalidVc;
    };

    struct StagedFlit
    {
        Flit flit;
        VcId outVc;
        Cycle forwardReady;  ///< earliest cycle for stage 3
    };

    void processEjection(Cycle now);
    void bypassStage3(Cycle now);
    void bypassStage2(Cycle now);
    void normalInjection(Cycle now);
    void deliverFlit(const Flit &flit, Cycle now);

    /**
     * Packetize @p desc into the injection queue. @p e2eSeq stamps the
     * flow sequence number (0 = unprotected), @p kind distinguishes data
     * from control packets, @p faultFlags marks retransmitted copies.
     */
    void packetize(const PacketDescriptor &desc, std::uint32_t e2eSeq,
                   E2eKind kind, std::uint8_t faultFlags);

    /** Run the E2E protocol timers and emit requested sends. */
    void e2eService(Cycle now);

    /** Stage-2 service of the flit at the front of latch slot @p slot. */
    bool serveLatchSlot(int slot, Cycle now);

    /** Stage-2 service of the local injection queue via the bypass. */
    bool serveLocalBypass(Cycle now);

    /** Bypass flow identity: one packet traversal on one input VC. */
    static std::uint64_t flowKey(const Flit &flit)
    {
        return (flit.packet << 4) | static_cast<std::uint64_t>(flit.vc);
    }

    bool isNord() const { return config_.design == PgDesign::kNord; }

    NodeId id_;
    const NocConfig &config_;
    NetworkStats &stats_;
    ActivityCounters &counters_;
    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildControllers")
    Router *router_ = nullptr;
    const RoutingPolicy *policy_ = nullptr;
    NORD_STATE_EXCLUDE(config, "delivery callback wired by the test/workload")
    DeliveryCallback onDelivery_;

    // Injection.
    ArenaRing<Flit> injectQ_;
    std::vector<int> localCredits_;   ///< router local-port buffer credits
    VcId injectVc_ = kInvalidVc;      ///< VC of the packet being injected

    // Ejection.
    ArenaRing<EjectEntry> ejectQ_;
    std::uint64_t packetsReceived_ = 0;

    // Bypass.
    std::vector<ArenaRing<LatchEntry>> latch_;  ///< one slot per VC
    std::vector<ForwardState> fwd_;             ///< per latch slot
    ArenaRing<StagedFlit> stage3_;
    std::vector<std::uint64_t> claimed_;  ///< live bypass flows, sorted
    bool localBypassActive_ = false;  ///< local packet mid-bypass
    VcId localBypassVc_ = kInvalidVc; ///< outVc held by that packet
    int latchRr_ = 0;
    int localStarve_ = 0;
    int vcRequests_ = 0;
    int latchOccupancy_ = 0;
    bool ringOutBusy_ = false;  ///< Bypass Outport driven this cycle
    std::uint64_t aggressiveFwds_ = 0;

    // End-to-end reliability (null unless config.fault.e2e).
    std::unique_ptr<E2eEndpoint> e2e_;
    NORD_STATE_EXCLUDE(cache, "scratch; cleared and refilled within one tick")
    std::vector<Flit> deliverBuf_;                 ///< scratch
    NORD_STATE_EXCLUDE(cache, "scratch; cleared and refilled within one tick")
    std::vector<E2eEndpoint::Resend> resendBuf_;   ///< scratch
    NORD_STATE_EXCLUDE(cache, "scratch; cleared and refilled within one tick")
    std::vector<E2eEndpoint::AckSend> ackBuf_;     ///< scratch
};

}  // namespace nord

#endif  // NORD_NI_NETWORK_INTERFACE_HH
