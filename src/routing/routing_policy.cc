/**
 * @file
 * Routing policy implementation.
 */

#include "routing/routing_policy.hh"

#include <algorithm>

#include "common/log.hh"
#include "router/router.hh"

namespace nord {

RoutingPolicy::RoutingPolicy(const NocConfig &config,
                             const MeshTopology &mesh,
                             const BypassRing &ring)
    : config_(config), mesh_(mesh), ring_(ring)
{
}

void
RoutingPolicy::setSteeringTable(std::vector<double> table)
{
    NORD_ASSERT(static_cast<int>(table.size()) ==
                    mesh_.numNodes() * mesh_.numNodes(),
                "steering table has wrong size");
    steer_ = std::move(table);
}

RouteRequest
RoutingPolicy::route(NodeId here, const Flit &head, Direction inPort,
                     const Router &router) const
{
    RouteRequest req;

    if (head.dst == here) {
        req.adaptive.push_back({Direction::kLocal, false});
        req.escapeDir = Direction::kLocal;
        req.mustEscape = head.onEscape;
        return req;
    }

    if (isNord()) {
        NORD_ASSERT(!steer_.empty(),
                    "NoRD routing needs the steering table installed");
        const Direction ringOut = ring_.bypassOutport(here);
        req.escapeDir = ringOut;
        req.escapeNonMinimal =
            mesh_.manhattan(ring_.successor(here), head.dst) >=
            mesh_.manhattan(here, head.dst);

        if (head.onEscape) {
            req.mustEscape = true;
            return req;
        }

        // Adaptive candidates over the mixed on/off graph: an output is
        // usable if the downstream router is not gated, or if it is this
        // router's ring successor (entry via its Bypass Inport).
        // Candidates are ranked by the worst-case-graph (steering) cost
        // through the downstream node, which routes packets via the
        // performance-centric shortcuts of Figure 6.
        struct Scored
        {
            RouteCandidate cand;
            double score;
        };
        Scored scored[kNumMeshDirs];
        int numScored = 0;
        const int hereDist = mesh_.manhattan(here, head.dst);
        for (int di = 0; di < kNumMeshDirs; ++di) {
            const Direction d = indexDir(di);
            if (d == inPort)
                continue;  // no U-turns (back out the arrival side)
            const NodeId nb = mesh_.neighbor(here, d);
            if (nb == kInvalidNode)
                continue;
            const bool gated = router.outputGatedView(d);
            if (gated && d != ringOut)
                continue;
            const bool nonMinimal =
                mesh_.manhattan(nb, head.dst) >= hereDist;
            // Onward estimate: through a gated neighbor the packet is
            // committed to the worst-case (steering) graph; through a
            // powered-on neighbor it may also find an all-on minimal
            // path, so take the optimistic minimum.
            const double steer = steerCost(nb, head.dst);
            const double allOn = 5.0 * mesh_.manhattan(nb, head.dst);
            const double score = gated ? (3.0 + steer)
                                       : (5.0 + std::min(steer, allOn));
            // Stable insertion by ascending score: a candidate goes after
            // every earlier one with an equal or lower score.
            int pos = numScored;
            while (pos > 0 && scored[pos - 1].score > score) {
                scored[pos] = scored[pos - 1];
                --pos;
            }
            scored[pos] = {{d, nonMinimal}, score};
            ++numScored;
        }
        const bool capped = head.misroutes >= kNordMisrouteCap;
        for (int i = 0; i < numScored; ++i) {
            // Once the misroute cap is reached only minimal progress may
            // stay on adaptive resources (Section 4.2).
            if (capped && scored[i].cand.nonMinimal)
                continue;
            req.adaptive.push_back(scored[i].cand);
        }
        if (req.adaptive.empty())
            req.mustEscape = true;
        return req;
    }

    // Conventional designs: minimal adaptive + XY escape. Power state does
    // not restrict candidates (a gated downstream router is simply woken),
    // but powered-on neighbors come first to avoid needless wakeups; each
    // group keeps the minimalDirections() order.
    const FixedList<Direction, 2> minimal =
        mesh_.minimalDirections(here, head.dst);
    for (const bool gated : {false, true}) {
        for (Direction d : minimal) {
            if (d != inPort && router.outputGatedView(d) == gated)
                req.adaptive.push_back({d, false});  // no U-turns
        }
    }
    req.escapeDir = mesh_.xyDirection(here, head.dst);
    req.mustEscape = head.onEscape || req.adaptive.empty();
    return req;
}

RouteRequest
RoutingPolicy::routeAtBypass(NodeId here, const Flit &head) const
{
    NORD_ASSERT(isNord(), "bypass routing only exists under NoRD");
    RouteRequest req;
    if (head.dst == here) {
        req.adaptive.push_back({Direction::kLocal, false});
        req.escapeDir = Direction::kLocal;
        return req;
    }
    const Direction ringOut = ring_.bypassOutport(here);
    const bool nonMinimal =
        mesh_.manhattan(ring_.successor(here), head.dst) >=
        mesh_.manhattan(here, head.dst);
    req.escapeDir = ringOut;
    req.escapeNonMinimal = nonMinimal;
    if (head.onEscape ||
        (nonMinimal && head.misroutes >= kNordMisrouteCap)) {
        req.mustEscape = true;
    } else {
        req.adaptive.push_back({ringOut, nonMinimal});
    }
    return req;
}

int
RoutingPolicy::escapeVcLevel(NodeId here, Direction dir,
                             const Flit &head) const
{
    if (!isNord())
        return 0;
    int level = head.escLevel;
    if (crossesDateline(here, dir))
        level = 1;
    return level;
}

bool
RoutingPolicy::crossesDateline(NodeId here, Direction dir) const
{
    return isNord() && dir == ring_.bypassOutport(here) &&
           ring_.crossesDateline(here);
}

}  // namespace nord
