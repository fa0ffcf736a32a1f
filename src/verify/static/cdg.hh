/**
 * @file
 * Offline channel-dependency-graph (CDG) deadlock analysis.
 *
 * NoRD's deadlock-freedom argument (Section 4.2 of the paper) is Duato's
 * Protocol: adaptive VCs may route freely as long as every packet, at every
 * hop, can fall back to an *escape* sub-network whose channel-dependency
 * graph is acyclic and which delivers every packet. The paper argues this
 * by hand (two escape VCs + a dateline break the ring's cyclic dependence);
 * this pass proves it mechanically for a concrete NocConfig, before a
 * single cycle is simulated.
 *
 * The analysis drives the *actual* RoutingPolicy / BypassRing / Mesh code
 * -- not a re-implementation of it -- over every reachable
 * (src, dst, intermediate-hop, escape-status) state:
 *
 *  - Escape channels are enumerated by walking the escape sub-network from
 *    every possible entry state: a packet may be forced onto escape at any
 *    intermediate node with escLevel 0 (adaptive packets never carry a
 *    nonzero level), so every walk (entry, dst, level 0) is simulated to
 *    delivery, collecting the (link, escape-VC-level) channels it occupies
 *    and the dependency edges between consecutive channels. Restricting
 *    the graph to *reachable* states is essential: enumerating all
 *    (node, level) pairs blindly would flag the dateline scheme itself as
 *    cyclic, because a level-1 packet re-crossing the dateline is exactly
 *    the state the scheme makes unreachable.
 *
 *  - Adaptive states are enumerated exhaustively -- every (here, dst,
 *    input port, misroute count around the cap, neighbor power-state mask)
 *    -- through RoutingPolicy::route() and routeAtBypass(), recording
 *    adaptive->adaptive and adaptive->escape dependencies and
 *    cross-checking the misroute-cap / forced-escape bookkeeping of the
 *    two entry points against each other.
 *
 * Verified properties:
 *  1. the escape-restricted CDG is acyclic (counterexample: the cycle,
 *     with the routing state that created each dependency edge);
 *  2. escape is reachable from every adaptive state (escapeDir valid and
 *     its channel present in the escape graph);
 *  3. the escape sub-network delivers: every (entry, dst) walk terminates
 *     at dst within a hop bound (no escape livelock).
 *
 * Counterexamples are replayable: replayCycle() re-derives every edge of a
 * reported cycle from the live RoutingPolicy, so a test (or a human) can
 * confirm the dependency really exists in the code rather than in the
 * analyzer's imagination.
 */

#ifndef NORD_VERIFY_STATIC_CDG_HH
#define NORD_VERIFY_STATIC_CDG_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "network/noc_config.hh"

namespace nord {

class MeshTopology;
class BypassRing;
class RoutingPolicy;
class Router;
class NetworkStats;

/** One channel of the extended CDG: a directed link plus a VC class. */
struct CdgChannel
{
    NodeId from = kInvalidNode;  ///< upstream node driving the link
    Direction dir = Direction::kLocal;  ///< direction out of @p from
    VcClass cls = VcClass::kAdaptive;
    int escLevel = 0;            ///< escape dateline level; 0 for adaptive

    std::string describe() const;
};

/** The routing state that created one dependency edge (for replay). */
struct CdgEdgeContext
{
    NodeId here = kInvalidNode;  ///< router that made the decision
    NodeId dst = kInvalidNode;   ///< packet destination
    Direction inPort = Direction::kLocal;
    bool onEscape = false;
    int escLevel = 0;
    int misroutes = 0;
    bool atBypass = false;       ///< decided by routeAtBypass (gated router)

    std::string describe() const;
};

/** A dependency cycle found in the escape-restricted CDG. */
struct CdgCounterexample
{
    /** Channels of the cycle; channel i depends on channel i+1 (mod n). */
    std::vector<CdgChannel> channels;

    /** The routing state witnessing each dependency edge. */
    std::vector<CdgEdgeContext> edges;

    bool empty() const { return channels.empty(); }
    std::string describe() const;
};

/** Knobs for seeding negative tests. */
struct CdgOptions
{
    /**
     * Seed a deliberately broken escape scheme: force every escape hop to
     * this dateline level, modelling a single-escape-VC ring without the
     * dateline break. The level-0 ring then closes on itself and the pass
     * must report the cycle. -1 = use the real escapeVcLevel() code.
     */
    int escapeLevelOverride = -1;
};

/** Everything the pass proved (or refuted) about one configuration. */
struct CdgResult
{
    int numChannels = 0;         ///< channels in the extended CDG
    int numEscapeChannels = 0;   ///< channels of the escape class
    std::size_t numEdges = 0;    ///< dependency edges, all classes
    std::size_t numEscapeEdges = 0;
    std::size_t statesExplored = 0;  ///< routing states driven through route()

    bool escapeAcyclic = false;  ///< property 1
    bool escapeReachable = false;  ///< property 2
    bool escapeDelivers = false;   ///< property 3

    /** Non-empty iff !escapeAcyclic. */
    CdgCounterexample cycle;

    /** Human-readable diagnoses for failed reachability/delivery states
     *  and any bookkeeping divergence between route() and routeAtBypass(). */
    std::vector<std::string> problems;

    bool ok() const
    {
        return escapeAcyclic && escapeReachable && escapeDelivers &&
               problems.empty();
    }

    std::string summary() const;
};

/**
 * One analysis instance: owns the topology, ring, routing policy and a
 * probe router for the given configuration, mirroring exactly what
 * NocSystem would build (including the NoRD steering table).
 */
class CdgAnalysis
{
  public:
    explicit CdgAnalysis(const NocConfig &config, CdgOptions opts = {});
    ~CdgAnalysis();

    CdgAnalysis(const CdgAnalysis &) = delete;
    CdgAnalysis &operator=(const CdgAnalysis &) = delete;

    /** Run all three checks; cheap enough to call repeatedly. */
    CdgResult run();

    /**
     * Re-derive every dependency edge of @p cx from the live RoutingPolicy
     * (same options as this analysis). Returns true when every edge is
     * confirmed; otherwise *why describes the first edge that could not be
     * reproduced. A genuine counterexample always replays.
     */
    bool replayCycle(const CdgCounterexample &cx, std::string *why) const;

    const MeshTopology &mesh() const { return *mesh_; }
    const BypassRing &ring() const { return *ring_; }
    const RoutingPolicy &policy() const { return *policy_; }
    const NocConfig &config() const { return config_; }

  private:
    /** Flat channel id for (from, dir, cls, level); -1 for local dirs. */
    int channelId(NodeId from, Direction dir, VcClass cls, int level) const;

    /** Inverse of channelId(). */
    CdgChannel channelOf(int id) const;

    /** Escape dateline level for a hop, honoring escapeLevelOverride. */
    int hopEscapeLevel(NodeId here, Direction dir, int curLevel) const;

    /** Walk the escape sub-network from (entry, dst, level 0). */
    void walkEscape(NodeId entry, NodeId dst, CdgResult &result);

    /** Enumerate adaptive states at @p here towards @p dst. */
    void enumerateAdaptive(NodeId here, NodeId dst, CdgResult &result);

    /** Record edge a -> b created by @p ctx (first witness wins). */
    void addEdge(int a, int b, const CdgEdgeContext &ctx);

    /** Find a cycle in the escape-restricted subgraph, if any. */
    void findEscapeCycle(CdgResult &result) const;

    NocConfig config_;
    CdgOptions opts_;
    std::unique_ptr<MeshTopology> mesh_;
    std::unique_ptr<BypassRing> ring_;
    std::unique_ptr<NetworkStats> stats_;
    std::unique_ptr<RoutingPolicy> policy_;
    std::unique_ptr<Router> probe_;  ///< carries forced neighbor PG views

    int numClassSlots_ = 3;  ///< esc level 0, esc level 1, adaptive

    /** adjacency[ch] = outgoing dependency edges. */
    std::vector<std::vector<int>> adj_;

    /** First witness context per (a, b) edge, keyed a * channels + b. */
    std::vector<int> edgeWitness_;  ///< index into witnesses_, -1 = none
    std::vector<CdgEdgeContext> witnesses_;

    /** (entry, dst) -> delivery ok (escape walk bookkeeping). */
    std::vector<bool> delivered_;
};

}  // namespace nord

#endif  // NORD_VERIFY_STATIC_CDG_HH
