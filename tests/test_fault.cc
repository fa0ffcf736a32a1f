/**
 * @file
 * Fault-injection campaign tests: one test per fault class proving
 * detection + recovery, plus the determinism contract (enabling the fault
 * machinery with zero rates leaves a run bit-identical) and a randomized
 * soak over every design x seeds 1-3.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hh"
#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

// --- RNG sub-streams (satellite: traffic replay must not change) -----------

TEST(RngStreams, TrafficStreamMatchesLegacySeed)
{
    // Pre-existing single-stream simulations seeded Rng(seed) directly;
    // the kTraffic sub-stream must replay them bit-identically.
    Rng legacy(42);
    Rng traffic(42, RngStream::kTraffic);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(legacy.next64(), traffic.next64()) << "draw " << i;
}

TEST(RngStreams, FaultStreamDecorrelated)
{
    Rng traffic(42, RngStream::kTraffic);
    Rng faults(42, RngStream::kFaults);
    Rng alloc(42, RngStream::kAllocator);
    int equalTf = 0;
    int equalFa = 0;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t t = traffic.next64();
        const std::uint64_t f = faults.next64();
        const std::uint64_t a = alloc.next64();
        equalTf += (t == f);
        equalFa += (f == a);
    }
    EXPECT_EQ(equalTf, 0);
    EXPECT_EQ(equalFa, 0);
}

// --- Determinism: zero-rate campaign is bit-identical ----------------------

using Fingerprint = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t, double>;

Fingerprint
runFingerprint(PgDesign design, bool faultMachinery)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.fault.enabled = faultMachinery;  // injector built, all rates zero
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 11);
    sys.setWorkload(&traffic);
    sys.run(1500);
    sys.setWorkload(nullptr);
    EXPECT_TRUE(sys.runToCompletion(20000));
    const NetworkStats &st = sys.stats();
    return {st.packetsCreated(), st.packetsDelivered(), st.flitsInjected(),
            st.flitsEjected(), st.totals().linkTraversals,
            st.avgPacketLatency()};
}

TEST(FaultCampaign, ZeroRateCampaignIsBitIdentical)
{
    EXPECT_EQ(runFingerprint(PgDesign::kNord, false),
              runFingerprint(PgDesign::kNord, true));
    EXPECT_EQ(runFingerprint(PgDesign::kConvPg, false),
              runFingerprint(PgDesign::kConvPg, true));
}

// --- Transient link faults recovered by the E2E layer ----------------------

NocConfig
campaignConfig(PgDesign design)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.verify.interval = 16;
    cfg.verify.policy = AuditPolicy::kRecover;
    return cfg;
}

TEST(FaultCampaign, CorruptedFlitsRecoverViaNack)
{
    NocConfig cfg = campaignConfig(PgDesign::kNoPg);
    cfg.fault.flitCorruptRate = 2e-3;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 3);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(200000));

    ASSERT_GT(sys.injector()->counts().corrupt, 0u);
    const FlowStats flows = sys.stats().flowTotals();
    EXPECT_GT(flows.damaged, 0u);
    EXPECT_GT(flows.nacks, 0u);
    EXPECT_GT(flows.retransmits, 0u);
    // Every corruption was detected and recovered: nothing lost.
    EXPECT_EQ(sys.stats().packetsFailed(), 0u);
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

TEST(FaultCampaign, DroppedFlitsRecoverViaTimeout)
{
    NocConfig cfg = campaignConfig(PgDesign::kNoPg);
    cfg.fault.flitDropRate = 1e-3;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 5);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(300000));

    ASSERT_GT(sys.injector()->counts().drop, 0u);
    const FlowStats flows = sys.stats().flowTotals();
    EXPECT_GT(flows.retransmits, 0u);
    EXPECT_GT(flows.timeouts, 0u);
    EXPECT_EQ(sys.stats().packetsFailed(), 0u);
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

// --- Credit leaks repaired by the auditor's recover mode -------------------

TEST(FaultCampaign, CreditLeaksRepairedInRecoverMode)
{
    NocConfig cfg = campaignConfig(PgDesign::kNoPg);
    cfg.fault.creditLeakRate = 1e-3;
    cfg.verify.interval = 8;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 7);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(100000));

    ASSERT_GT(sys.injector()->counts().creditLeak, 0u);
    // Every leak was announced, attributed and repaired in place.
    EXPECT_EQ(sys.auditor().recoveredFaults(),
              sys.injector()->counts().creditLeak);
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    sys.checkInvariants();
}

// --- Lost wakeups recovered by the watchdog --------------------------------

TEST(FaultCampaign, LostWakeupsRecoveredByWatchdog)
{
    NocConfig cfg = campaignConfig(PgDesign::kConvPg);
    cfg.fault.e2e = false;  // nothing is lost; delivery must be exact
    cfg.fault.lostWakeupRate = 0.02;
    cfg.fault.lostWakeupStall = 1u << 20;  // effectively stuck-at-off
    cfg.fault.wakeupWatchdog = 64;
    cfg.verify.interval = 8;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.03, 9);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(100000));

    ASSERT_GT(sys.injector()->counts().lostWakeup, 0u);
    std::uint64_t watchdogWakes = 0;
    for (NodeId id = 0; id < cfg.numNodes(); ++id)
        watchdogWakes += sys.controller(id).watchdogWakes();
    EXPECT_GE(watchdogWakes, 1u);
    // A lost wakeup only delays packets; none may be dropped.
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

TEST(FaultCampaign, ShortSuppressionRecoversWithoutWatchdog)
{
    NocConfig cfg = campaignConfig(PgDesign::kConvPg);
    cfg.fault.e2e = false;
    cfg.fault.wakeupWatchdog = 512;
    // One scheduled lost wakeup whose window expires long before the
    // watchdog: the handshake must recover naturally.
    cfg.fault.schedule.push_back(
        {100, FaultClass::kLostWakeup, 5, 16});
    cfg.verify.interval = 8;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.03, 13);
    sys.setWorkload(&traffic);
    sys.run(1500);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(50000));

    EXPECT_EQ(sys.injector()->counts().lostWakeup, 1u);
    std::uint64_t watchdogWakes = 0;
    for (NodeId id = 0; id < cfg.numNodes(); ++id)
        watchdogWakes += sys.controller(id).watchdogWakes();
    EXPECT_EQ(watchdogWakes, 0u);
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

// --- Dead router: NoRD keeps the node reachable ----------------------------

TEST(FaultCampaign, DeadNordRouterNodeStaysReachable)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.verify.interval = 8;
    cfg.verify.policy = AuditPolicy::kRecover;
    NocSystem sys(cfg);

    const NodeId victim = 5;  // interior router
    sys.killRouter(victim);
    EXPECT_TRUE(sys.controller(victim).dead());

    // Traffic to, from and through the dead router's node.
    sys.inject(0, victim, 5);
    sys.inject(victim, 15, 5);
    sys.inject(victim, 0, 1);
    sys.inject(10, victim, 1);
    sys.inject(1, 9, 3);  // minimal path crosses the victim column
    ASSERT_TRUE(sys.runToCompletion(50000));

    // The bypass ring delivered everything despite the dead router.
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_EQ(sys.stats().packetsFailed(), 0u);
    // The dead router ended (and stays) gated; its node lives on the ring.
    EXPECT_EQ(sys.controller(victim).state(), PowerState::kOff);
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

// --- Dead router: baselines degrade gracefully -----------------------------

TEST(FaultCampaign, DeadConvRouterDegradesGracefully)
{
    NocConfig cfg;
    cfg.design = PgDesign::kConvPg;
    cfg.verify.interval = 8;
    cfg.verify.policy = AuditPolicy::kRecover;
    NocSystem sys(cfg);

    const NodeId victim = 5;
    sys.killRouter(victim);

    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.04, 17);
    sys.setWorkload(&traffic);
    sys.run(1500);
    sys.setWorkload(nullptr);
    // No hang: packets into the dead router are eaten, packets from its
    // node are dropped at the source, everything else drains normally.
    ASSERT_TRUE(sys.runToCompletion(50000));

    EXPECT_GT(sys.stats().packetsFailed(), 0u);
    EXPECT_GT(sys.stats().flitsEaten(), 0u);
    // Graceful degradation: every packet is either delivered or accounted
    // as failed -- nothing silently vanishes.
    EXPECT_EQ(sys.stats().packetsDelivered() + sys.stats().packetsFailed(),
              sys.stats().packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

// --- Satellite (a): injectForcedOff goes through the transition path -------

TEST(FaultCampaign, ForcedOffRoutesThroughTransitionPath)
{
    NocConfig cfg;
    cfg.design = PgDesign::kConvPg;
    cfg.verify.interval = 1;  // sweep every cycle; kAbort would panic
    NocSystem sys(cfg);

    // Force an idle, empty router off: the transition must be coherent
    // (listener fired, sleep counter advanced, router sleep hook run), so
    // the auditor stays silent and the FSM still wakes on demand.
    const NodeId victim = 5;
    ASSERT_TRUE(sys.router(victim).datapathEmpty());
    const PowerState before = sys.controller(victim).state();
    sys.controller(victim).injectForcedOff(sys.now());
    EXPECT_EQ(sys.controller(victim).state(), PowerState::kOff);
    EXPECT_GE(sys.stats().router(victim).sleeps,
              before == PowerState::kOn ? 1u : 0u);

    // Traffic through and to the forced-off router wakes it normally.
    sys.inject(1, 9, 5);
    sys.inject(0, victim, 3);
    ASSERT_TRUE(sys.runToCompletion(20000));
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_TRUE(sys.auditor().violations().empty());
    sys.checkInvariants();
}

// --- Acceptance: 8x8 NoRD, mid load, 1e-4 transients -----------------------

TEST(FaultCampaign, Nord8x8MidLoadTransientAcceptance)
{
    NocConfig cfg = campaignConfig(PgDesign::kNord);
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.fault.flitCorruptRate = 1e-4;
    cfg.fault.flitDropRate = 1e-4;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 21);
    sys.setWorkload(&traffic);
    sys.run(2500);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(300000));

    ASSERT_GT(sys.injector()->counts().corrupt +
                  sys.injector()->counts().drop, 0u);
    // 100% delivery through retransmission.
    EXPECT_EQ(sys.stats().packetsFailed(), 0u);
    EXPECT_EQ(sys.stats().packetsDelivered(), sys.stats().packetsCreated());
    EXPECT_GT(sys.stats().flowTotals().retransmits, 0u);
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    sys.checkInvariants();
}

// --- Randomized soak (design x seed) ----------------------------------------

class FaultSoak
    : public ::testing::TestWithParam<std::tuple<PgDesign, std::uint64_t>>
{
};

TEST_P(FaultSoak, EveryAnomalyAttributedAndScopedChecksMatchSweeps)
{
    const auto [design, seed] = GetParam();
    NocConfig cfg = campaignConfig(design);
    cfg.seed = seed;
    cfg.fault.flitCorruptRate = 5e-4;
    cfg.fault.flitDropRate = 5e-4;
    cfg.fault.creditLeakRate = 1e-4;
    cfg.fault.lostWakeupRate = 0.01;
    cfg.verify.interval = 8;
    NocSystem sys(cfg);
    // Every transition-time scoped check is compared with a dry full
    // sweep of the same moment.
    sys.auditor().setShadowFullSweep(true);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.06, seed);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(400000));

    // Relaxed accounting: losses are legal under a heavy campaign, but
    // every packet must be delivered or accounted failed, and the auditor
    // must attribute every anomaly to an injected fault.
    const NetworkStats &st = sys.stats();
    EXPECT_LE(st.packetsDelivered(), st.packetsCreated());
    EXPECT_GE(st.packetsDelivered() + st.packetsFailed(),
              st.packetsCreated());
    EXPECT_EQ(sys.auditor().unexpectedViolations(), 0u);
    EXPECT_EQ(sys.auditor().shadowMismatches(), 0u)
        << sys.auditor().firstShadowMismatch();
    if (design != PgDesign::kNoPg) {
        EXPECT_GT(sys.auditor().transitionChecks(), 0u);
    }
    sys.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    FaultCampaign, FaultSoak,
    ::testing::Combine(::testing::Values(PgDesign::kNoPg, PgDesign::kConvPg,
                                         PgDesign::kConvPgOpt,
                                         PgDesign::kNord),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &info) {
        return std::string(pgDesignName(std::get<0>(info.param))) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nord
