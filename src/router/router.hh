/**
 * @file
 * Canonical 4-stage wormhole virtual-channel router (Section 3.1).
 *
 * Pipeline: RC (routing computation), VA (VC allocation), SA (switch
 * allocation), ST (switch traversal), followed by LT (link traversal and
 * buffer write at the downstream router). Head flits traverse all stages;
 * body/tail flits inherit the VC's route and use SA/ST only. Per-hop
 * latency at zero load is therefore 5 cycles; the NoRD bypass pipeline is
 * 3 (Section 6.8).
 *
 * Flow control is credit-based wormhole with private per-VC buffers.
 * The VC set is split into an escape class and an adaptive class
 * (Duato's Protocol).
 *
 * Host cost: each stage walks only the VCs that have its kind of work,
 * read from per-input-port bitmasks (InputPort), in the order a full
 * scan would visit them, so a tick costs in proportion to the busy VCs
 * rather than to ports x VCs. Switch allocation's round-robin wraps by
 * compare-and-reset and its output arbitration works on port bitmasks.
 *
 * Power-gating integration: a small always-on controller (PgController)
 * monitors emptiness and the PG/WU/IC handshake. When a neighbor is gated
 * the corresponding output is tagged unavailable in SA (conventional
 * designs) or reachable only via the Bypass Ring edge (NoRD), and credits
 * are adjusted per Section 4.3.
 */

#ifndef NORD_ROUTER_ROUTER_HH
#define NORD_ROUTER_ROUTER_HH

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "network/link.hh"
#include "network/noc_config.hh"
#include "powergate/pg_controller.hh"
#include "routing/routing_policy.hh"
#include "sim/clocked.hh"
#include "stats/network_stats.hh"
#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"

namespace nord {

class NetworkInterface;
class StateSerializer;

/**
 * One mesh router with its input-buffered VC pipeline.
 */
class Router : public Clocked
{
  public:
    /** Per-VC state machine phase (public for the InvariantAuditor). */
    enum class VcState : std::int8_t
    {
        kIdle,     ///< no packet
        kRouting,  ///< head buffered, RC this cycle
        kVcAlloc,  ///< requesting an output VC
        kActive,   ///< output VC held, flits stream through SA
    };

    /** Read-only snapshot of one input VC (introspection). */
    struct VcProbe
    {
        VcState state = VcState::kIdle;
        int occupancy = 0;            ///< buffered flits
        Direction outPort = Direction::kLocal;
        VcId outVc = kInvalidVc;
        bool sentAny = false;         ///< a flit of the packet already left
        bool frontIsHead = false;     ///< front buffered flit is a head
    };

    /**
     * @param arena optional pool backing the VC buffers (null = heap);
     *        semantics are identical either way.
     */
    Router(NodeId id, const NocConfig &config, const MeshTopology &mesh,
           const BypassRing &ring, NetworkStats &stats,
           PoolArena *arena = nullptr);

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    // --- Wiring (done once by NocSystem) ---------------------------------
    /** Connect mesh output @p d to @p neighbor through @p link. */
    void connectOutput(Direction d, Router *neighbor, FlitLink *link);

    /** Connect the credit-return path for flits received on @p inPort. */
    void connectCreditReturn(Direction inPort, CreditLink *link);

    /** Input flit link feeding @p inPort (for in-flight checks). */
    void connectInput(Direction inPort, FlitLink *link);

    /** Attach the node's network interface. */
    void setNi(NetworkInterface *ni) { ni_ = ni; }

    /** Attach the power-gating controller (owned by the caller). */
    void setController(PgController *controller);

    /** Attach the routing policy (shared across routers). */
    void setRoutingPolicy(const RoutingPolicy *policy) { policy_ = policy; }

    // --- Identity ----------------------------------------------------------
    NodeId id() const { return id_; }
    std::string name() const override;

    // --- Simulation ---------------------------------------------------------
    void tick(Cycle now) override;

    /**
     * Idle-skipping predicate: an empty datapath whose cached neighbor
     * power views are in sync has a provably no-op tick (SA/VA/RC find
     * their work masks empty and the round-robin pointers only advance
     * on grants). Any event that could give this router work wakes it:
     * flit arrival, local injection, and power transitions of itself or
     * a mesh neighbor (wired in NocSystem).
     */
    bool quiescent() const override;

    // --- Link-facing interface ----------------------------------------------
    /**
     * A flit finished LT into @p inPort. When the router is bypassing
     * (NoRD, gated off) and @p inPort is the Bypass Inport, the flit is
     * redirected into the NI bypass latch.
     */
    void acceptFlit(Direction inPort, const Flit &flit, Cycle now);

    /** A credit returned for VC @p vc of output port @p outPort. */
    void acceptCredit(Direction outPort, VcId vc, Cycle now);

    // --- NI-facing interface -------------------------------------------------
    /**
     * Enqueue a flit from the NI into the local input port (router must
     * be powered on; the NI performs VC allocation and credit checks).
     */
    void enqueueLocal(const Flit &flit, Cycle now);

    /** True if local input VC @p vc has no packet assigned (NI-side VA). */
    bool localVcIdle(VcId vc) const;

    // --- Power-gating handshake ----------------------------------------------
    PowerState powerState() const { return controller_->state(); }
    bool pgAsserted() const { return controller_->pgAsserted(); }
    PgController &controller() { return *controller_; }

    /** True when every input VC is empty and idle (O(1), see buffered_). */
    bool datapathEmpty() const;

    /**
     * Rebuild the occupancy counters and the per-port work masks from
     * the VC buffers and states. NocSystem calls it after every restore
     * walk, which writes the VCs but neither counters nor masks.
     */
    void recountOccupancy();

    /** One input port's per-stage work masks (bit v = VC v). */
    struct WorkMasks
    {
        std::uint64_t rc = 0;  ///< idle VCs with a buffered head (RC)
        std::uint64_t va = 0;  ///< VCs in kVcAlloc (VA)
        std::uint64_t sa = 0;  ///< kActive VCs with a buffered flit (SA)
    };

    /** Work masks of input @p inPort (InvariantAuditor). */
    WorkMasks workMasks(Direction inPort) const
    {
        const InputPort &ip = inputs_[dirIndex(inPort)];
        return {ip.rcMask, ip.vaMask, ip.saMask};
    }

    /**
     * IC signal: true when some neighbor (or a bypassing neighbor NI) has
     * a flit in flight towards this router.
     */
    bool icIncoming(Cycle now) const;

    /**
     * Cycle until which this router's output @p d carries in-flight flits
     * (the outgoing IC signal seen by the downstream router).
     */
    Cycle icUntil(Direction d) const
    {
        return outputs_[dirIndex(d)].icUntil;
    }

    /**
     * True when every credit of output @p d is home (no flit in flight,
     * buffered downstream, or committed by the NI bypass). Used by the
     * downstream router's sleep check.
     */
    bool allCreditsHome(Direction d) const;

    /** This router's cached view of the downstream PG signal on @p d. */
    bool outputGatedView(Direction d) const
    {
        return outputs_[dirIndex(d)].gatedView;
    }

    /**
     * Offline-analysis hook (the static CDG pass): force the cached
     * downstream-PG view of output @p d so a probe router can present any
     * neighbor power-state mask to RoutingPolicy::route(). Never called
     * during simulation -- the wiring in NocSystem keeps gatedView in sync
     * with the real neighbor controllers.
     */
    void forceGatedView(Direction d, bool gated)
    {
        outputs_[dirIndex(d)].gatedView = gated;
    }

    /** Controller callbacks. */
    void onSleep(Cycle now);
    void onWake(Cycle now);

    // --- NoRD bypass re-injection (driven by the NI, Section 4.2) -----------
    /**
     * Try to allocate an output VC of class @p cls (escape level
     * @p escLevel) on the Bypass Outport. Returns kInvalidVc on failure.
     */
    VcId bypassAllocOutVc(VcClass cls, int escLevel);

    /** Credits available for @p outVc on the Bypass Outport? */
    bool bypassCreditAvailable(VcId outVc) const;

    /**
     * Reserve one credit of @p outVc on the Bypass Outport (stage 2 of
     * the bypass pipeline checks credits before committing the flit, so
     * stage 3 can never head-of-line block the escape sub-network).
     */
    void bypassReserveCredit(VcId outVc);

    /**
     * Return a buffer credit for bypass-latch slot @p slot to the ring
     * predecessor (the upstream of the Bypass Inport).
     */
    void bypassCreditReturn(VcId slot, Cycle now);

    /**
     * Re-inject @p flit on the Bypass Outport using @p outVc (stage 3 of
     * the bypass pipeline). Consumes one credit; frees the output VC on
     * tail flits.
     */
    void bypassSendFlit(Flit flit, VcId outVc, Cycle now);

    /** Access shared structures. */
    const NocConfig &config() const { return config_; }
    const MeshTopology &mesh() const { return mesh_; }
    const BypassRing &ring() const { return ring_; }
    const RoutingPolicy &policy() const { return *policy_; }
    NetworkInterface &ni() { return *ni_; }

    /** Total buffered flits (O(1), see buffered_). */
    int bufferedFlits() const { return buffered_; }

    // --- Introspection (InvariantAuditor; cheap, non-intrusive) -----------
    /** Snapshot of input VC @p vc on port @p inPort. */
    VcProbe probeVc(Direction inPort, VcId vc) const;

    /** Current credit count of (@p outPort, @p vc). */
    int creditCount(Direction outPort, VcId vc) const
    {
        return outputs_[dirIndex(outPort)].credits[vc];
    }

    /** True when output VC (@p outPort, @p vc) is held by some packet. */
    bool outVcBusy(Direction outPort, VcId vc) const
    {
        return outputs_[dirIndex(outPort)].outVcBusy[vc];
    }

    /** Outgoing flit link on @p d (null for local / mesh edge). */
    const FlitLink *outputLink(Direction d) const
    {
        return outputs_[dirIndex(d)].link;
    }

    /** Downstream router on @p d (null for local / mesh edge). */
    const Router *neighborRouter(Direction d) const
    {
        return outputs_[dirIndex(d)].neighbor;
    }

    /** Credit-return link of input @p inPort (null for the local port). */
    const CreditLink *creditReturnLink(Direction inPort) const
    {
        return inputs_[dirIndex(inPort)].creditReturn;
    }

    /**
     * Visit every flit buffered in this router's input VCs as
     * fn(inPort, vc, flit). A template, so the auditor's visitor is
     * inlined; a capturing visitor costs no allocation.
     */
    template <typename Fn>
    void forEachBufferedFlit(Fn &&fn) const
    {
        for (int p = 0; p < kNumPorts; ++p) {
            for (VcId v = 0; v < config_.numVcs; ++v) {
                for (const Flit &f : inputs_[p].vcs[v].buffer)
                    fn(indexDir(p), v, f);
            }
        }
    }

    /**
     * Fault injection (testing only): silently lose one credit of
     * (@p outPort, @p vc), as a buggy credit path would.
     */
    void injectCreditLeak(Direction outPort, VcId vc);

    /**
     * Restore @p count credits of (@p outPort, @p vc). Maintenance path
     * used by the InvariantAuditor's recover policy to repair credit
     * counters deflated by injected credit-leak faults.
     */
    void repairCredits(Direction outPort, VcId vc, int count);

    /** Mutable outgoing link on @p d (FaultInjector only). */
    FlitLink *outputLinkMut(Direction d)
    {
        return outputs_[dirIndex(d)].link;
    }

    /** Dump all non-idle pipeline state to @p out (diagnostics). */
    void dumpState(std::FILE *out) const;

    /**
     * Checkpoint hook: every input VC FSM and buffer, allocator round-robin
     * pointers, output credit counters / VC holds / cached neighbor views.
     */
    void serializeState(StateSerializer &s);

    /**
     * Verify resource-conservation invariants for a drained network:
     * every credit home (modulo gated-neighbor views), no output VC
     * held, every input VC idle. Panics with a description on
     * violation; call only when the network is drained.
     */
    void checkQuiescent() const;

  private:
    /** Per-VC state machine. */
    struct VirtualChannel
    {
        VirtualChannel(const ArenaAllocator<Flit> &a, int depth)
            : buffer(a)
        {
            buffer.reserve(static_cast<std::size_t>(depth));
        }

        ArenaRing<Flit> buffer;
        VcState state = VcState::kIdle;
        Direction outPort = Direction::kLocal;
        VcId outVc = kInvalidVc;
        Cycle vaEarliest = 0;    ///< earliest cycle VA may be attempted
        Cycle saEarliest = 0;    ///< earliest cycle SA may be attempted
        int blockedCycles = 0;   ///< consecutive failed VA attempts
        int saBlocked = 0;       ///< consecutive credit-blocked SA tries
        bool sentAny = false;    ///< a flit of this packet already left
        bool eating = false;     ///< dead router: discarding this packet
    };

    /**
     * One input port: its VCs plus three work masks (bit v = VC v), one
     * per pipeline stage, so each stage walks only the VCs that have its
     * kind of work. refreshVcBits() rederives a VC's bits from its state
     * after every buffer push/pop and state change; recountOccupancy()
     * rebuilds them after a restore, and the InvariantAuditor checks
     * them against a VC scan every sweep.
     */
    struct InputPort
    {
        std::vector<VirtualChannel> vcs;
        NORD_STATE_EXCLUDE(config, "wiring; rebuilt by NocSystem::buildLinks")
        CreditLink *creditReturn = nullptr;  ///< null for the local port
        NORD_STATE_EXCLUDE(config, "wiring; rebuilt by NocSystem::buildLinks")
        FlitLink *inLink = nullptr;
        int rrVc = 0;                        ///< SA round-robin pointer
        NORD_STATE_EXCLUDE(cache,
            "idle VCs with a buffered head; rebuilt after every restore")
        std::uint64_t rcMask = 0;
        NORD_STATE_EXCLUDE(cache,
            "VCs in kVcAlloc; rebuilt after every restore")
        std::uint64_t vaMask = 0;
        NORD_STATE_EXCLUDE(cache,
            "kActive VCs with a buffered flit; rebuilt after every restore")
        std::uint64_t saMask = 0;
    };

    struct OutputPort
    {
        NORD_STATE_EXCLUDE(config, "wiring; rebuilt by NocSystem::buildLinks")
        Router *neighbor = nullptr;   ///< null for local / mesh edge
        NORD_STATE_EXCLUDE(config, "wiring; rebuilt by NocSystem::buildLinks")
        FlitLink *link = nullptr;     ///< null for the local port
        std::vector<int> credits;
        std::vector<bool> outVcBusy;
        bool gatedView = false;       ///< cached downstream PG signal
        Cycle icUntil = 0;            ///< outgoing IC coverage
        int rrInput = 0;              ///< SA round-robin pointer
    };

    // Pipeline phases (called in reverse order each tick).
    void observeNeighborPower(Cycle now);
    void switchAllocation(Cycle now);
    void vcAllocation(Cycle now);
    void routeNewHeads(Cycle now);

    /**
     * SA stage 1 for one input port: the first VC among @p candidates
     * (ascending) that may bid this cycle, or -1. @p yieldOut is the
     * output the NI bypass owns this cycle (-1 for none).
     */
    int nominate(InputPort &ip, std::uint64_t candidates, int yieldOut,
                 Cycle now);

    /** Send the front flit of VC @p v of input @p ipIdx (ST + LT). */
    void sendFlit(int ipIdx, int v, Cycle now);

    /** Rederive VC @p v's work-mask bits in @p ip from its state. */
    static void refreshVcBits(InputPort &ip, int v);

    /**
     * Dead-router graceful degradation ("fail active eating"): discard an
     * arriving flit of a newly-started packet at the input stage while
     * returning its credit upstream, so the fabric neither hangs nor
     * leaks flow control. In-progress wormholes complete normally.
     */
    void eatFlit(Direction inPort, const Flit &flit, Cycle now);

    /** Restart heads whose chosen output just became unavailable. */
    void restartHeadsOn(Direction d);

    /**
     * Try to grant an output VC on (@p outPort, class/level) for the head
     * of @p vc. Returns true on success.
     */
    bool tryAllocOutVc(VirtualChannel &vc, Direction outPort, VcClass cls,
                       int escLevel);

    /** True when output @p d may be requested in SA by this design. */
    bool outputUsable(Direction d) const;

    /**
     * True when VA may allocate new output VCs on @p d. The Bypass
     * Outport is held back while the NI is still draining bypass flows
     * after a wakeup (prevents pipeline/bypass crossbar conflicts).
     */
    bool outputAllocatable(Direction d) const;

    NodeId id_;
    const NocConfig &config_;
    const MeshTopology &mesh_;
    const BypassRing &ring_;
    NetworkStats &stats_;
    ActivityCounters &counters_;
    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildControllers")
    NetworkInterface *ni_ = nullptr;
    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildControllers")
    PgController *controller_ = nullptr;
    const RoutingPolicy *policy_ = nullptr;

    std::array<InputPort, kNumPorts> inputs_;
    std::array<OutputPort, kNumPorts> outputs_;

    /**
     * Occupancy counters behind datapathEmpty() and bufferedFlits(), so
     * the PG controllers' per-cycle emptiness check, the idle-stats
     * sample and quiescent() cost O(1) instead of a scan of every VC.
     * buffered_ follows each buffer push and pop; nonIdle_ each
     * Idle->VcAlloc step (RC in routeNewHeads) and each ->Idle step (tail
     * sent in sendFlit). The InvariantAuditor checks both against a full
     * scan every sweep.
     */
    NORD_STATE_EXCLUDE(cache,
        "sum of the VC buffer sizes; recounted after every restore")
    int buffered_ = 0;
    NORD_STATE_EXCLUDE(cache,
        "VCs not in kIdle; recounted after every restore")
    int nonIdle_ = 0;
};

}  // namespace nord

#endif  // NORD_ROUTER_ROUTER_HH
