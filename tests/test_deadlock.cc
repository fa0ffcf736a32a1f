/**
 * @file
 * Property tests: deadlock- and livelock-freedom across designs,
 * patterns, loads, and seeds (Duato's Protocol, ring escape, misroute
 * cap). Every parameterized case runs open-loop traffic, then stops
 * injection and requires the network to drain completely.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

using DeadlockParam =
    std::tuple<PgDesign, TrafficPattern, double, std::uint64_t>;

class DeadlockTest : public ::testing::TestWithParam<DeadlockParam>
{
};

TEST_P(DeadlockTest, InjectThenDrain)
{
    auto [design, pattern, rate, seed] = GetParam();
    NocConfig cfg;
    cfg.design = design;
    cfg.seed = seed;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(pattern, rate, seed);
    sys.setWorkload(&traffic);

    sys.run(20000);
    const std::uint64_t midway = sys.stats().packetsDelivered();
    EXPECT_GT(midway, 0u) << "no forward progress";

    // Stop injection and require full drain: any deadlocked packet
    // would leave buffers non-empty.
    sys.setWorkload(nullptr);
    // Generous budget: saturated cases carry a large backlog.
    bool drained = sys.runToCompletion(400000);
    if (!drained)
        sys.dumpState(stderr);
    ASSERT_TRUE(drained) << "network failed to drain";
    EXPECT_EQ(sys.stats().packetsDelivered(),
              sys.stats().packetsCreated());
    // Resource conservation: credits home, no leaked VCs or bypass
    // state (panics on violation).
    sys.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(LoadGrid, DeadlockTest,
    ::testing::Combine(
        ::testing::Values(PgDesign::kNoPg, PgDesign::kConvPg,
                          PgDesign::kConvPgOpt, PgDesign::kNord),
        ::testing::Values(TrafficPattern::kUniformRandom,
                          TrafficPattern::kBitComplement,
                          TrafficPattern::kTranspose,
                          TrafficPattern::kHotspot),
        ::testing::Values(0.03, 0.15, 0.45),
        ::testing::Values(1ull)),
    [](const ::testing::TestParamInfo<DeadlockParam> &info) {
        return std::string(pgDesignName(std::get<0>(info.param))) + "_" +
               trafficPatternName(std::get<1>(info.param)) + "_r" +
               std::to_string(
                   static_cast<int>(std::get<2>(info.param) * 100)) +
               "_s" + std::to_string(std::get<3>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(SeedSweep, DeadlockTest,
    ::testing::Combine(
        ::testing::Values(PgDesign::kNord),
        ::testing::Values(TrafficPattern::kUniformRandom),
        ::testing::Values(0.10),
        ::testing::Values(2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull,
                          9ull)),
    [](const ::testing::TestParamInfo<DeadlockParam> &info) {
        return "seed" + std::to_string(std::get<3>(info.param));
    });

TEST(DeadlockStress, NordChurnExtreme)
{
    // Pathological churn: instant sleep, instant wake, tiny window.
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = 0;
    cfg.nordPowerThreshold = 1;
    cfg.nordPowerSleepGuard = 0;
    cfg.nordWakeupWindow = 2;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.20, 99);
    sys.setWorkload(&traffic);
    sys.run(30000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(100000));
    EXPECT_EQ(sys.stats().packetsDelivered(),
              sys.stats().packetsCreated());
    sys.checkInvariants();
}

TEST(DeadlockStress, NordRingOnlySaturated)
{
    // Everything gated, load far above the ring's capacity: livelock-
    // and deadlock-freedom must still hold; the network must drain.
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfThreshold = 1 << 20;
    cfg.nordPowerThreshold = 1 << 20;
    cfg.nordPerfCentricCount = 0;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.15, 5);
    sys.setWorkload(&traffic);
    sys.run(15000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(400000));
    EXPECT_EQ(sys.stats().packetsDelivered(),
              sys.stats().packetsCreated());
}

TEST(DeadlockStress, ConvPgSaturated8x8)
{
    NocConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.design = PgDesign::kConvPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kBitComplement, 0.30, 17);
    sys.setWorkload(&traffic);
    sys.run(15000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(400000));
    EXPECT_EQ(sys.stats().packetsDelivered(),
              sys.stats().packetsCreated());
}

TEST(DeadlockStress, MisrouteCapBoundsHops)
{
    // Livelock-freedom: even with most routers asleep, delivered hop
    // counts stay bounded (misroute cap forces ring escape, and the ring
    // reaches the destination within one lap).
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfThreshold = 1 << 20;
    cfg.nordPowerThreshold = 1 << 20;
    cfg.nordPerfCentricCount = 0;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.04, 23);
    sys.setWorkload(&traffic);
    sys.run(30000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(100000));
    // Worst case: misroute cap of wandering + a full ring lap.
    EXPECT_LE(sys.stats().avgHops(),
              16.0 + kNordMisrouteCap + 6.0);
}

}  // namespace
}  // namespace nord
