/**
 * @file
 * Unit tests for the routing policies (minimal adaptive, XY escape, ring
 * escape, dateline, misroute cap).
 */

#include <gtest/gtest.h>

#include "network/noc_system.hh"
#include "routing/routing_policy.hh"

namespace nord {
namespace {

Flit
headTo(NodeId src, NodeId dst)
{
    Flit f;
    f.type = FlitType::kHeadTail;
    f.src = src;
    f.dst = dst;
    f.length = 1;
    return f;
}

class ConvRoutingTest : public ::testing::Test
{
  protected:
    ConvRoutingTest()
    {
        cfg.design = PgDesign::kNoPg;
        sys = std::make_unique<NocSystem>(cfg);
        policy = std::make_unique<RoutingPolicy>(cfg, sys->mesh(),
                                                 sys->ring());
    }

    NocConfig cfg;
    std::unique_ptr<NocSystem> sys;
    std::unique_ptr<RoutingPolicy> policy;
};

TEST_F(ConvRoutingTest, LocalDelivery)
{
    RouteRequest req = policy->route(5, headTo(0, 5), Direction::kWest,
                                     sys->router(5));
    ASSERT_EQ(req.adaptive.size(), 1u);
    EXPECT_EQ(req.adaptive[0].dir, Direction::kLocal);
    EXPECT_EQ(req.escapeDir, Direction::kLocal);
}

TEST_F(ConvRoutingTest, MinimalCandidatesForDiagonal)
{
    // From 0 to 15: east and south are both minimal.
    RouteRequest req = policy->route(0, headTo(0, 15), Direction::kLocal,
                                     sys->router(0));
    ASSERT_EQ(req.adaptive.size(), 2u);
    std::set<Direction> dirs = {req.adaptive[0].dir, req.adaptive[1].dir};
    EXPECT_TRUE(dirs.count(Direction::kEast));
    EXPECT_TRUE(dirs.count(Direction::kSouth));
    EXPECT_FALSE(req.mustEscape);
}

TEST_F(ConvRoutingTest, EscapeIsXy)
{
    RouteRequest req = policy->route(0, headTo(0, 15), Direction::kLocal,
                                     sys->router(0));
    EXPECT_EQ(req.escapeDir, Direction::kEast);  // X first
    req = policy->route(3, headTo(0, 15), Direction::kWest,
                        sys->router(3));
    EXPECT_EQ(req.escapeDir, Direction::kSouth);  // aligned: Y
}

TEST_F(ConvRoutingTest, NoUturn)
{
    // At node 5 heading to 4 (west), arriving from the west port must
    // not produce a west candidate... it is the only minimal direction,
    // so the packet escapes instead.
    RouteRequest req = policy->route(5, headTo(4, 4), Direction::kWest,
                                     sys->router(5));
    for (const RouteCandidate &c : req.adaptive)
        EXPECT_NE(c.dir, Direction::kWest);
}

TEST_F(ConvRoutingTest, StraightThroughAllowed)
{
    // Arriving at 5 from the west (input port W), continuing east to 6
    // is straight through and must be a candidate.
    RouteRequest req = policy->route(5, headTo(4, 6), Direction::kWest,
                                     sys->router(5));
    ASSERT_FALSE(req.adaptive.empty());
    EXPECT_EQ(req.adaptive[0].dir, Direction::kEast);
}

TEST_F(ConvRoutingTest, OnEscapeStaysOnEscape)
{
    Flit f = headTo(0, 15);
    f.onEscape = true;
    RouteRequest req = policy->route(5, f, Direction::kNorth,
                                     sys->router(5));
    EXPECT_TRUE(req.mustEscape);
}

class NordRoutingTest : public ::testing::Test
{
  protected:
    NordRoutingTest()
    {
        cfg.design = PgDesign::kNord;
        sys = std::make_unique<NocSystem>(cfg);
    }

    const RoutingPolicy &policy() { return sys->router(0).policy(); }

    NocConfig cfg;
    std::unique_ptr<NocSystem> sys;
};

TEST_F(NordRoutingTest, EscapeIsRingOutport)
{
    for (NodeId n = 0; n < 16; ++n) {
        RouteRequest req = policy().route(
            n, headTo(0, (n + 7) % 16), Direction::kLocal,
            sys->router(n));
        if ((n + 7) % 16 != n) {
            EXPECT_EQ(req.escapeDir, sys->ring().bypassOutport(n));
        }
    }
}

TEST_F(NordRoutingTest, DatelineBumpsEscapeLevel)
{
    const auto &ring = sys->ring();
    // Exactly one node's ring edge crosses the dateline.
    int crossings = 0;
    for (NodeId n = 0; n < 16; ++n) {
        Flit f = headTo(0, 15);
        f.onEscape = true;
        f.escLevel = 0;
        int level = policy().escapeVcLevel(n, ring.bypassOutport(n), f);
        if (level == 1)
            ++crossings;
    }
    EXPECT_EQ(crossings, 1);
}

TEST_F(NordRoutingTest, EscapeLevelSticksAtOne)
{
    Flit f = headTo(0, 15);
    f.onEscape = true;
    f.escLevel = 1;
    for (NodeId n = 0; n < 16; ++n) {
        EXPECT_EQ(policy().escapeVcLevel(
                      n, sys->ring().bypassOutport(n), f), 1);
    }
}

TEST_F(NordRoutingTest, AllOnPrefersProgress)
{
    // With every router on (fresh system is on until ticked), candidates
    // exist and the best one makes minimal progress.
    RouteRequest req = policy().route(0, headTo(0, 15),
                                      Direction::kLocal, sys->router(0));
    ASSERT_FALSE(req.adaptive.empty());
    EXPECT_FALSE(req.adaptive[0].nonMinimal);
}

TEST_F(NordRoutingTest, BypassRoutingAtOffRouter)
{
    // routeAtBypass: the only way out is the ring.
    Flit f = headTo(0, 9);
    RouteRequest req = policy().routeAtBypass(1, f);
    ASSERT_EQ(req.adaptive.size(), 1u);
    EXPECT_EQ(req.adaptive[0].dir, sys->ring().bypassOutport(1));
}

TEST_F(NordRoutingTest, BypassSinksLocal)
{
    Flit f = headTo(0, 1);
    RouteRequest req = policy().routeAtBypass(1, f);
    ASSERT_EQ(req.adaptive.size(), 1u);
    EXPECT_EQ(req.adaptive[0].dir, Direction::kLocal);
}

TEST_F(NordRoutingTest, MisrouteCapForcesEscapeAtBypass)
{
    // A misrouted-to-the-cap packet whose ring hop is another detour
    // must be confined to escape resources.
    const auto &ring = sys->ring();
    // Find a node whose ring successor moves away from some dst.
    for (NodeId n = 0; n < 16; ++n) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            if (dst == n || dst == ring.successor(n))
                continue;
            bool nonMin = sys->mesh().manhattan(ring.successor(n), dst) >=
                          sys->mesh().manhattan(n, dst);
            if (!nonMin)
                continue;
            Flit f = headTo(0, dst);
            f.misroutes = static_cast<std::int16_t>(kNordMisrouteCap);
            RouteRequest req = policy().routeAtBypass(n, f);
            EXPECT_TRUE(req.mustEscape);
            return;
        }
    }
    FAIL() << "no detour case found";
}

TEST_F(NordRoutingTest, MisrouteCapBoundaryValues)
{
    // Boundary-value audit of the cap bookkeeping, mirroring the CDG
    // pass's cross-check: at misroutes == cap - 1 a detour ring hop is
    // still offered as a (nonMinimal) candidate -- the hop that follows
    // is the one that reaches the cap -- while misroutes == cap forces
    // escape. route() at an on-router must agree: capped heads get no
    // nonMinimal adaptive candidates.
    const auto &ring = sys->ring();
    const auto cap = static_cast<std::int16_t>(kNordMisrouteCap);
    ASSERT_GE(cap, 1);
    bool checkedBypass = false;
    for (NodeId n = 0; n < 16 && !checkedBypass; ++n) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            if (dst == n || dst == ring.successor(n))
                continue;
            bool nonMin = sys->mesh().manhattan(ring.successor(n), dst) >=
                          sys->mesh().manhattan(n, dst);
            if (!nonMin)
                continue;

            Flit belowCap = headTo(0, dst);
            belowCap.misroutes = static_cast<std::int16_t>(cap - 1);
            RouteRequest req = policy().routeAtBypass(n, belowCap);
            EXPECT_FALSE(req.mustEscape);
            ASSERT_EQ(req.adaptive.size(), 1u);
            EXPECT_EQ(req.adaptive[0].dir, ring.bypassOutport(n));
            EXPECT_TRUE(req.adaptive[0].nonMinimal);

            Flit atCap = belowCap;
            atCap.misroutes = cap;
            EXPECT_TRUE(policy().routeAtBypass(n, atCap).mustEscape);
            checkedBypass = true;
            break;
        }
    }
    EXPECT_TRUE(checkedBypass) << "no detour case found";

    // On-router side: a head at the cap never sees nonMinimal candidates,
    // one below the cap may.
    for (std::int16_t mis : {static_cast<std::int16_t>(cap - 1), cap}) {
        for (NodeId dst = 1; dst < 16; ++dst) {
            Flit f = headTo(0, dst);
            f.misroutes = mis;
            RouteRequest req =
                policy().route(0, f, Direction::kLocal, sys->router(0));
            if (mis >= cap) {
                for (const RouteCandidate &c : req.adaptive)
                    EXPECT_FALSE(c.nonMinimal)
                        << "capped head offered a detour to dst " << dst;
            }
        }
    }
}

}  // namespace
}  // namespace nord
