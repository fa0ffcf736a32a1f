/**
 * @file
 * Tests for NoRD's node-router decoupling: the bypass datapath, the
 * wakeup metric, asymmetric thresholds, and the paper's three headline
 * properties (no disconnection, hidden wakeup latency, fewer wakeups).
 */

#include <gtest/gtest.h>

#include "core/nord_controller.hh"
#include "network/noc_system.hh"

namespace nord {
namespace {

/** NoRD config whose routers can never wake (forced bypass). */
NocConfig
ringOnlyConfig()
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfThreshold = 1 << 20;
    cfg.nordPowerThreshold = 1 << 20;
    cfg.nordPerfCentricCount = 0;
    return cfg;
}

TEST(Nord, AllRoutersSleepWithoutTraffic)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    NocSystem sys(cfg);
    sys.run(200);
    EXPECT_EQ(sys.countInState(PowerState::kOff), 16);
}

TEST(Nord, PerfCentricCountAboveNodeCountIsFatal)
{
    // A configuration error, not a panic inside the criticality cache.
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = cfg.numNodes() + 1;
    EXPECT_EXIT({ NocSystem sys(cfg); }, ::testing::ExitedWithCode(1),
                "nordPerfCentricCount \\(17\\) exceeds the node count");
}

TEST(Nord, DeliversThroughFullyGatedNetwork)
{
    // The decoupling bypass keeps all NIs connected even when every
    // router is off (Section 4.2) -- no disconnection problem.
    NocSystem sys(ringOnlyConfig());
    sys.run(200);
    ASSERT_EQ(sys.countInState(PowerState::kOff), 16);
    sys.inject(2, 9, 5);
    ASSERT_TRUE(sys.runToCompletion(5000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 1u);
    // And without a single wakeup.
    EXPECT_EQ(sys.stats().totalWakeups(), 0u);
    EXPECT_EQ(sys.countInState(PowerState::kOff), 16);
}

TEST(Nord, AllPairsThroughFullyGatedNetwork)
{
    NocSystem sys(ringOnlyConfig());
    sys.run(200);
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s != d)
                sys.inject(s, d, 1);
        }
    }
    ASSERT_TRUE(sys.runToCompletion(200000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 240u);
    EXPECT_EQ(sys.stats().totalWakeups(), 0u);
}

TEST(Nord, RingOnlyLatencyMatchesBypassPipeline)
{
    // One ring hop through a gated router costs 3 cycles (2-stage bypass
    // + LT). Check a single-hop-on-ring packet at zero load.
    NocSystem sys(ringOnlyConfig());
    sys.run(200);
    NodeId src = 0;
    NodeId dst = sys.ring().successor(src);
    sys.inject(src, dst, 1);
    ASSERT_TRUE(sys.runToCompletion(2000));
    // Injection via the bypass (stage 2+3) + one link + sink at the
    // destination NI: small, and far below a woken pipeline's cost.
    EXPECT_LE(sys.stats().avgPacketLatency(), 12.0);
}

TEST(Nord, ReceivesAtGatedDestination)
{
    // A gated-off destination router does not disconnect its node: the
    // packet is ejected through the bypass latch without waking it.
    NocSystem sys(ringOnlyConfig());
    sys.run(200);
    sys.inject(1, 2, 5);  // 2 = ring successor of 1 in the 4x4 ring
    ASSERT_TRUE(sys.runToCompletion(5000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 1u);
    EXPECT_EQ(sys.stats().totalWakeups(), 0u);
}

TEST(Nord, WakeupMetricFiresAboveThreshold)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = 0;  // uniform threshold
    cfg.nordPowerThreshold = 2;
    NocSystem sys(cfg);
    sys.run(200);
    ASSERT_EQ(sys.countInState(PowerState::kOff), 16);
    // Sustained local injections create repeated VC requests at NI 0.
    for (int i = 0; i < 20; ++i)
        sys.inject(0, 10, 5);
    sys.run(60);
    EXPECT_NE(sys.controller(0).state(), PowerState::kOff);
    EXPECT_GE(sys.stats().totalWakeups(), 1u);
}

TEST(Nord, AsymmetricThresholdsAssigned)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    NocSystem sys(cfg);
    ASSERT_EQ(sys.perfCentricRouters().size(), 6u);  // Fig. 6 knee
    for (NodeId id = 0; id < 16; ++id) {
        auto *ctrl = dynamic_cast<NordController *>(&sys.controller(id));
        ASSERT_NE(ctrl, nullptr);
        const bool perf =
            std::find(sys.perfCentricRouters().begin(),
                      sys.perfCentricRouters().end(),
                      id) != sys.perfCentricRouters().end();
        EXPECT_EQ(ctrl->wakeupThreshold(),
                  perf ? cfg.nordPerfThreshold : cfg.nordPowerThreshold);
        EXPECT_EQ(ctrl->sleepGuard(),
                  perf ? cfg.nordPerfSleepGuard
                       : cfg.nordPowerSleepGuard);
    }
}

TEST(Nord, FewerWakeupsThanConventional)
{
    // Headline property: the decoupling bypass avoids most wakeups.
    // Sparse single packets: every one of them forces conventional
    // wakeups along its path, while NoRD's thresholds absorb most.
    std::uint64_t wakeups[2];
    const PgDesign designs[2] = {PgDesign::kConvPg, PgDesign::kNord};
    for (int i = 0; i < 2; ++i) {
        NocConfig cfg;
        cfg.design = designs[i];
        NocSystem sys(cfg);
        for (int round = 0; round < 100; ++round) {
            sys.inject(round % 16, (round * 5 + 7) % 16, 1);
            sys.run(60);
        }
        ASSERT_TRUE(sys.runToCompletion(30000));
        wakeups[i] = sys.stats().totalWakeups();
    }
    EXPECT_LT(wakeups[1], wakeups[0]);
}

TEST(Nord, LatencyInsensitiveToWakeupLatency)
{
    // Figure 13's property at test scale: doubling the wakeup latency
    // must barely move NoRD's latency (bypass carries packets while
    // routers ramp), unlike conventional gating.
    double lat[2];
    int idx = 0;
    for (int wl : {9, 18}) {
        NocConfig cfg;
        cfg.design = PgDesign::kNord;
        cfg.wakeupLatency = wl;
        cfg.seed = 3;
        NocSystem sys(cfg);
        for (int round = 0; round < 150; ++round) {
            sys.inject(round % 16, (round * 3 + 5) % 16, 1);
            sys.run(40);
        }
        ASSERT_TRUE(sys.runToCompletion(30000));
        lat[idx++] = sys.stats().avgPacketLatency();
    }
    EXPECT_NEAR(lat[1], lat[0], 0.15 * lat[0]);
}

TEST(Nord, MidPacketWakeupDrainsCleanly)
{
    // Stress the gated-off -> gated-on transition while packets are mid
    // bypass: low thresholds force frequent wakeups under a multi-flit
    // stream; every flit must still arrive exactly once.
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = 0;
    cfg.nordPowerThreshold = 1;
    cfg.nordPowerSleepGuard = 0;
    NocSystem sys(cfg);
    for (int i = 0; i < 300; ++i)
        sys.inject(i % 16, (i * 11 + 1) % 16, 5);
    ASSERT_TRUE(sys.runToCompletion(300000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 300u);
    EXPECT_EQ(sys.stats().flitsDelivered(), 1500u);
}

TEST(Nord, BypassCountersTrackTraffic)
{
    NocSystem sys(ringOnlyConfig());
    sys.run(200);
    sys.inject(0, 4, 1);  // 4 is far along the ring from 0
    ASSERT_TRUE(sys.runToCompletion(5000));
    const ActivityCounters t = sys.stats().totals();
    EXPECT_GT(t.bypassForwards, 0u);
    EXPECT_GT(t.bypassLatchWrites, 0u);
    // No pipeline activity at all while everything is gated.
    EXPECT_EQ(t.bufferReads, 0u);
    EXPECT_EQ(t.vcAllocs, 0u);
}

TEST(Nord, LocalStarvationBounded)
{
    // Heavy through-traffic on the ring must not starve local injection
    // beyond the starvation limit mechanism.
    NocConfig cfg = ringOnlyConfig();
    cfg.niStarvationLimit = 4;
    NocSystem sys(cfg);
    sys.run(200);
    // Through-traffic crossing node 1's NI bypass (ring 0->1->2).
    for (int i = 0; i < 50; ++i)
        sys.inject(0, 5, 5);
    // Local traffic from node 1.
    for (int i = 0; i < 20; ++i)
        sys.inject(1, 9, 1);
    ASSERT_TRUE(sys.runToCompletion(100000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 70u);
}

TEST(Nord, AggressiveBypassCutsLatency)
{
    // Section 6.8: the aggressive single-cycle bypass shortens ring
    // transit when the datapath is empty.
    double lat[2];
    for (int aggressive = 0; aggressive < 2; ++aggressive) {
        NocConfig cfg = ringOnlyConfig();
        cfg.nordAggressiveBypass = aggressive == 1;
        NocSystem sys(cfg);
        sys.run(200);
        sys.inject(0, 4, 1);  // 15 ring hops from 0 in the 4x4 ring
        EXPECT_TRUE(sys.runToCompletion(5000));
        lat[aggressive] = sys.stats().avgPacketLatency();
    }
    // One cycle saved per bypassed hop over a long ring path.
    EXPECT_LT(lat[1], lat[0] - 8.0);
}

TEST(Nord, AggressiveBypassConservesFlits)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordAggressiveBypass = true;
    NocSystem sys(cfg);
    for (int i = 0; i < 200; ++i)
        sys.inject(i % 16, (i * 7 + 3) % 16, 1 + (i % 2) * 4);
    ASSERT_TRUE(sys.runToCompletion(100000));
    EXPECT_EQ(sys.stats().packetsDelivered(), 200u);
    // The fast path was actually exercised.
    std::uint64_t aggressive = 0;
    for (NodeId n = 0; n < 16; ++n)
        aggressive += sys.ni(n).aggressiveForwards();
    EXPECT_GT(aggressive, 0u);
}

}  // namespace
}  // namespace nord
