/**
 * @file
 * Routing policies under Duato's Protocol (Section 4.2 / Section 5.1).
 *
 * All four designs use adaptive routing in the adaptive VC class plus a
 * deadlock-free escape class:
 *  - No_PG / Conv_PG / Conv_PG_OPT: minimal adaptive + XY escape;
 *  - NoRD: minimal adaptive over powered-on routers and the Bypass Ring,
 *    with the unidirectional ring as the escape sub-network (two escape
 *    VCs and a dateline break the ring's cyclic dependence).
 */

#ifndef NORD_ROUTING_ROUTING_POLICY_HH
#define NORD_ROUTING_ROUTING_POLICY_HH

#include <vector>

#include "common/fixed_list.hh"
#include "common/flit.hh"
#include "common/types.hh"
#include "network/noc_config.hh"
#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"

namespace nord {

class Router;

/**
 * NoRD: misrouted hops a packet may take on adaptive VCs before it is
 * forced onto the escape ring (Section 4.2).
 */
inline constexpr int kNordMisrouteCap = 4;

/** One candidate output direction for a head flit. */
struct RouteCandidate
{
    Direction dir = Direction::kLocal;
    bool nonMinimal = false;  ///< taking it counts as a misroute
};

/** Outcome of routing a head flit at one router. */
struct RouteRequest
{
    /**
     * Adaptive-class candidates, preference-ordered. May be empty. Held
     * inline (one per mesh direction at most), so routing a head flit
     * allocates nothing.
     */
    FixedList<RouteCandidate, kNumMeshDirs> adaptive;

    /** Escape-class direction (always valid; kLocal when dst == here). */
    Direction escapeDir = Direction::kLocal;

    /** Escape hop is non-minimal (counts as misroute bookkeeping only). */
    bool escapeNonMinimal = false;

    /**
     * The packet must use the escape class at this hop (it is already
     * confined to escape, or adaptive progress is impossible).
     */
    bool mustEscape = false;
};

/**
 * Stateless routing policy; all dynamic inputs (power states) are read
 * through the router at call time so decisions always reflect the current
 * cycle ("pipeline restart from RC" comes for free).
 */
class RoutingPolicy
{
  public:
    RoutingPolicy(const NocConfig &config, const MeshTopology &mesh,
                  const BypassRing &ring);

    /**
     * Install the static steering table for NoRD adaptive routing: the
     * all-pairs distances (cycles) of the worst-case graph in which only
     * the performance-centric routers are powered on. Adaptive candidates
     * are ranked by this cost, steering packets towards the Figure 6
     * shortcut routers without any global power-state knowledge.
     * NocSystem installs it for every NoRD network; route() requires it.
     */
    void setSteeringTable(std::vector<double> table);

    /**
     * Route a head flit buffered at powered-on router @p here.
     *
     * @param here   the routing router
     * @param head   the head flit (class, misroutes, escape status)
     * @param inPort the input port holding the flit (U-turns forbidden)
     * @param router access to neighbor power states
     */
    RouteRequest route(NodeId here, const Flit &head, Direction inPort,
                       const Router &router) const;

    /**
     * Route a head flit sitting in the NI bypass latch of gated-off router
     * @p here. The only output is the Bypass Outport; the returned request
     * says whether the hop is a misroute and whether escape is forced.
     */
    RouteRequest routeAtBypass(NodeId here, const Flit &head) const;

    /**
     * Escape-VC index (relative to the escape class base) a head must
     * allocate when taking @p dir out of @p here. Implements the ring
     * dateline for NoRD; returns the flit's current level for XY escape.
     */
    int escapeVcLevel(NodeId here, Direction dir, const Flit &head) const;

    /**
     * True when sending @p head from @p here via @p dir crosses the ring
     * dateline (the flit's escLevel must be bumped to 1).
     */
    bool crossesDateline(NodeId here, Direction dir) const;

    const BypassRing &ring() const { return ring_; }
    const MeshTopology &mesh() const { return mesh_; }

  private:
    bool isNord() const { return config_.design == PgDesign::kNord; }

    /** Steering cost from @p from to @p to (worst-case graph). */
    double steerCost(NodeId from, NodeId to) const
    {
        return steer_[static_cast<size_t>(from) * mesh_.numNodes() + to];
    }

    std::vector<double> steer_;
    const NocConfig &config_;
    const MeshTopology &mesh_;
    const BypassRing &ring_;
};

}  // namespace nord

#endif  // NORD_ROUTING_ROUTING_POLICY_HH
