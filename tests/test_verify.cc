/**
 * @file
 * InvariantAuditor tests: injected faults must be detected with a usable
 * diagnosis, and a clean simulation swept every cycle must stay silent.
 */

#include <gtest/gtest.h>

#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

using Kind = InvariantAuditor::Kind;

NocConfig
auditedConfig(PgDesign design)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.verify.interval = 1;
    cfg.verify.policy = AuditPolicy::kDiagnose;  // accumulate, assert in the test
    return cfg;
}

TEST(InvariantAuditorTest, DisabledByDefault)
{
    NocSystem sys(NocConfig{});
    EXPECT_FALSE(sys.auditor().enabled());
    sys.inject(0, 15, 5);
    ASSERT_TRUE(sys.runToCompletion(5000));
    // Disabled auditor never sweeps on its own.
    EXPECT_EQ(sys.auditor().sweepCount(), 0u);
}

TEST(InvariantAuditorTest, ManualSweepOfIdleNetworkIsClean)
{
    NocSystem sys(NocConfig{});
    EXPECT_EQ(sys.auditor().sweep(sys.now()), 0u);
    EXPECT_TRUE(sys.auditor().violations().empty());
}

TEST(InvariantAuditorTest, DetectsLeakedCredit)
{
    NocSystem sys(NocConfig{});
    // Lose one credit of an interior east link, as a dropped credit
    // message would.
    sys.router(5).injectCreditLeak(Direction::kEast, 0);
    EXPECT_GT(sys.auditor().sweep(sys.now()), 0u);
    ASSERT_TRUE(sys.auditor().hasViolation(Kind::kCreditConservation));
    for (const auto &v : sys.auditor().violations()) {
        EXPECT_FALSE(v.diagnosis.empty());
        if (v.kind == Kind::kCreditConservation) {
            EXPECT_EQ(v.node, 5);
        }
    }
}

TEST(InvariantAuditorTest, DetectsDroppedFlit)
{
    NocSystem sys(NocConfig{});
    sys.inject(0, 15, 5);

    // Advance until some flit is on the wire, then make a link lose it.
    bool dropped = false;
    for (int cycle = 0; cycle < 200 && !dropped; ++cycle) {
        sys.run(1);
        for (NodeId id = 0; id < 16 && !dropped; ++id) {
            for (int d = 0; d < kNumMeshDirs && !dropped; ++d) {
                const FlitLink *link =
                    sys.router(id).outputLink(indexDir(d));
                if (link && !link->empty()) {
                    dropped =
                        const_cast<FlitLink *>(link)->injectFlitDrop();
                }
            }
        }
    }
    ASSERT_TRUE(dropped) << "no flit ever appeared on a link";

    EXPECT_GT(sys.auditor().sweep(sys.now()), 0u);
    ASSERT_TRUE(sys.auditor().hasViolation(Kind::kFlitConservation));
    for (const auto &v : sys.auditor().violations())
        EXPECT_FALSE(v.diagnosis.empty());
}

TEST(InvariantAuditorTest, DetectsGatingOfNonEmptyRouter)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;  // keep routers on until we force one off
    NocSystem sys(cfg);
    sys.inject(0, 15, 5);
    sys.inject(12, 3, 5);

    NodeId victim = kInvalidNode;
    for (int cycle = 0; cycle < 200 && victim == kInvalidNode; ++cycle) {
        sys.run(1);
        for (NodeId id = 0; id < 16; ++id) {
            if (sys.router(id).bufferedFlits() > 0) {
                victim = id;
                break;
            }
        }
    }
    ASSERT_NE(victim, kInvalidNode) << "no router ever buffered a flit";

    // A buggy sleep policy gates the router without draining it.
    sys.controller(victim).injectForcedOff(sys.now());
    EXPECT_GT(sys.auditor().sweep(sys.now()), 0u);
    ASSERT_TRUE(sys.auditor().hasViolation(Kind::kPgSafety));
    bool victimReported = false;
    for (const auto &v : sys.auditor().violations()) {
        EXPECT_FALSE(v.diagnosis.empty());
        if (v.kind == Kind::kPgSafety && v.node == victim)
            victimReported = true;
    }
    EXPECT_TRUE(victimReported);
}

TEST(InvariantAuditorTest, CleanNordRunAtLoadHasNoViolations)
{
    NocConfig cfg = auditedConfig(PgDesign::kNord);
    cfg.rows = 8;
    cfg.cols = 8;
    NocSystem sys(cfg);
    ASSERT_TRUE(sys.auditor().enabled());

    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.08, 7);
    sys.setWorkload(&traffic);
    sys.run(3000);
    sys.setWorkload(nullptr);  // open-loop source: stop injecting and drain
    ASSERT_TRUE(sys.runToCompletion(20000));

    EXPECT_GT(sys.stats().packetsDelivered(), 100u);
    EXPECT_GT(sys.auditor().sweepCount(), 3000u);
    for (const auto &v : sys.auditor().violations()) {
        ADD_FAILURE() << InvariantAuditor::kindName(v.kind) << ": "
                      << v.diagnosis;
    }
    sys.checkInvariants();
}

TEST(InvariantAuditorTest, NordLocalBypassBodyFlitsRespectTheAgeBound)
{
    // At low load most NoRD routers are gated, so NIs inject whole
    // packets over the bypass. Every flit must carry its injection cycle:
    // an unstamped body flit ages from cycle 0 and trips the livelock
    // bound on any run longer than it.
    NocConfig cfg = auditedConfig(PgDesign::kNord);
    cfg.verify.maxFlitAge = 400;
    NocSystem sys(cfg);

    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.02, 5);
    sys.setWorkload(&traffic);
    sys.run(3000);
    sys.setWorkload(nullptr);  // open-loop source: stop injecting and drain
    ASSERT_TRUE(sys.runToCompletion(20000));

    EXPECT_GT(sys.stats().packetsDelivered(), 50u);
    EXPECT_FALSE(sys.auditor().hasViolation(Kind::kLiveness));
    for (const auto &v : sys.auditor().violations()) {
        ADD_FAILURE() << InvariantAuditor::kindName(v.kind) << ": "
                      << v.diagnosis;
        break;
    }
}

class AuditedDesignTest : public ::testing::TestWithParam<PgDesign>
{
};

TEST_P(AuditedDesignTest, PerCycleSweepsStaySilent)
{
    NocConfig cfg = auditedConfig(GetParam());
    NocSystem sys(cfg);

    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 11);
    sys.setWorkload(&traffic);
    sys.run(2000);
    sys.setWorkload(nullptr);  // open-loop source: stop injecting and drain
    ASSERT_TRUE(sys.runToCompletion(20000));

    EXPECT_GT(sys.stats().packetsDelivered(), 50u);
    for (const auto &v : sys.auditor().violations()) {
        ADD_FAILURE() << InvariantAuditor::kindName(v.kind) << ": "
                      << v.diagnosis;
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, AuditedDesignTest,
                         ::testing::Values(PgDesign::kNoPg,
                                           PgDesign::kConvPg,
                                           PgDesign::kConvPgOpt,
                                           PgDesign::kNord),
                         [](const auto &info) {
                             return pgDesignName(info.param);
                         });

}  // namespace
}  // namespace nord
