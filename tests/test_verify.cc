/**
 * @file
 * InvariantAuditor tests: injected faults must be detected with a usable
 * diagnosis, a clean simulation swept every cycle must stay silent, and
 * the scoped checks run on power transitions must record exactly what a
 * full sweep would, with the documented detection latency elsewhere, and
 * each router's O(1) occupancy counters must agree with a scan of its VCs
 * across every restore path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "ckpt/checkpoint.hh"
#include "ckpt/state_serializer.hh"
#include "network/noc_system.hh"
#include "temp_dir.hh"
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
    cfg.verify.policy = AuditPolicy::kRecover;  // accumulate, assert in the test
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

// --- Scoped transition checks ----------------------------------------------

/**
 * Every fault class at once on a 4x4 mesh: transient drops and corrupts
 * (recovered end to end), announced credit leaks (repaired), lost
 * wakeups, and router 5 forced off at cycle 0 and killed at cycle 20,
 * before traffic starts. Death pins a baseline router back on (the only
 * way a No_PG router ever wakes) and keeps a NoRD router gated.
 */
NocConfig
shadowConfig(PgDesign design)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.seed = 3;
    cfg.verify.interval = 64;
    cfg.verify.policy = AuditPolicy::kRecover;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = 5e-4;
    cfg.fault.flitDropRate = 5e-4;
    cfg.fault.creditLeakRate = 1e-3;
    cfg.fault.lostWakeupRate = 0.01;
    cfg.fault.retransTimeout = 32;  // packets for a dead node fail fast
    cfg.fault.retryLimit = 2;
    return cfg;
}

class ShadowAuditTest : public ::testing::TestWithParam<PgDesign>
{
};

TEST_P(ShadowAuditTest, DrySweepIsHashNeutralAndScopedChecksMatchIt)
{
    // Twin systems, shadow hook on in one: the dry full sweeps must not
    // move a single bit of state (per-cycle stateHash lockstep), and
    // every scoped check must record what the dry sweep found.
    const NocConfig cfg = shadowConfig(GetParam());
    NocSystem shadow(cfg), plain(cfg);
    shadow.auditor().setShadowFullSweep(true);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.05, 9);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.05, 9);
    const auto lockstep = [&](Cycle cycles, bool untilDone) {
        for (Cycle c = 0; c < cycles; ++c) {
            if (untilDone && plain.completionReached())
                return;
            if (shadow.now() == 20) {
                shadow.killRouter(5);
                plain.killRouter(5);
            }
            shadow.run(1);
            plain.run(1);
            ASSERT_EQ(shadow.stateHash(), plain.stateHash())
                << "cycle " << shadow.now();
        }
    };
    for (NocSystem *sys : {&shadow, &plain}) {
        ASSERT_TRUE(sys->router(5).datapathEmpty());
        sys->controller(5).injectForcedOff(sys->now());
    }
    ASSERT_EQ(shadow.stateHash(), plain.stateHash());
    ASSERT_NO_FATAL_FAILURE(lockstep(100, false));  // 5 dies at cycle 20
    ASSERT_TRUE(shadow.controller(5).dead());
    ASSERT_TRUE(plain.controller(5).dead());
    shadow.setWorkload(&t1);
    plain.setWorkload(&t2);
    ASSERT_NO_FATAL_FAILURE(lockstep(600, false));
    shadow.setWorkload(nullptr);
    plain.setWorkload(nullptr);
    ASSERT_NO_FATAL_FAILURE(lockstep(50000, true));
    ASSERT_TRUE(shadow.completionReached());
    ASSERT_TRUE(plain.completionReached());

    const InvariantAuditor &a = shadow.auditor();
    EXPECT_EQ(a.shadowMismatches(), 0u) << a.firstShadowMismatch();
    EXPECT_EQ(a.transitionChecks(), plain.auditor().transitionChecks());
    EXPECT_GE(a.transitionChecks(), 1u);
    const FaultInjector::Counts &faults = shadow.injector()->counts();
    EXPECT_GT(faults.drop + faults.corrupt, 0u);
    EXPECT_GT(faults.creditLeak, 0u);
    EXPECT_GT(a.recoveredFaults(), 0u);
    EXPECT_EQ(a.recoveredFaults(), plain.auditor().recoveredFaults());
    EXPECT_EQ(a.violations().size(), plain.auditor().violations().size());
    EXPECT_EQ(a.unexpectedViolations(), 0u);
    // Leaks found between periodic sweeps were found, and compared, by
    // scoped checks (No_PG gates only router 5, before any traffic).
    size_t scopedFindings = 0;
    for (const auto &v : a.violations())
        scopedFindings += v.cycle % cfg.verify.interval != 0 ? 1 : 0;
    if (GetParam() != PgDesign::kNoPg) {
        EXPECT_GT(scopedFindings, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ShadowAuditTest,
                         ::testing::Values(PgDesign::kNoPg,
                                           PgDesign::kConvPg,
                                           PgDesign::kConvPgOpt,
                                           PgDesign::kNord),
                         [](const auto &info) {
                             return pgDesignName(info.param);
                         });

TEST(InvariantAuditorTest, ScopedCheckCoversNeighbourhoodAndAnnouncedLeaks)
{
    // Credit leaks on an idle 4x4 mesh, then one transition check of
    // router 5 (neighbours 1, 4, 6, 9): every leak in its neighbourhood
    // and every announced leak anywhere is recorded once, in full-sweep
    // order -- exactly what the dry full sweep finds.
    NocConfig cfg = auditedConfig(PgDesign::kConvPg);
    cfg.verify.interval = 100000;
    NocSystem sys(cfg);
    sys.run(100);
    InvariantAuditor &a = sys.auditor();
    a.setShadowFullSweep(true);
    const size_t before = a.violations().size();
    sys.router(5).injectCreditLeak(Direction::kEast, 0);   // 5 -> 6
    sys.router(1).injectCreditLeak(Direction::kSouth, 1);  // 1 -> 5
    sys.router(6).injectCreditLeak(Direction::kEast, 0);   // 6 -> 7
    for (const auto &[node, dir] :
         {std::pair{0, Direction::kEast}, std::pair{5, Direction::kWest},
          std::pair{15, Direction::kNorth}}) {
        sys.router(node).injectCreditLeak(dir, 1);
        a.expectCreditDeficit(node, dir, 1);
    }
    a.onPowerTransition(sys.now(), 5);

    EXPECT_EQ(a.shadowMismatches(), 0u) << a.firstShadowMismatch();
    const std::vector<std::pair<NodeId, bool>> want = {
        {0, true}, {1, false}, {5, false}, {5, true}, {6, false},
        {15, true}};
    std::vector<std::pair<NodeId, bool>> got;
    for (size_t i = before; i < a.violations().size(); ++i) {
        EXPECT_EQ(a.violations()[i].kind, Kind::kCreditConservation);
        got.emplace_back(a.violations()[i].node, a.violations()[i].expected);
    }
    EXPECT_EQ(got, want);
}

TEST(InvariantAuditorTest, ForcedOffNonEmptyRouterFlaggedAtTheTransition)
{
    // With no periodic sweep due for 100k cycles, only the scoped check
    // of the transition can report the gated non-empty router -- and it
    // must do so in the very cycle of the transition, recording exactly
    // what a full sweep of that instant finds.
    NocConfig cfg = auditedConfig(PgDesign::kNoPg);
    cfg.verify.interval = 100000;
    NocSystem sys(cfg);
    sys.auditor().setShadowFullSweep(true);
    sys.inject(0, 15, 5);
    sys.inject(12, 3, 5);
    NodeId victim = kInvalidNode;
    while (victim == kInvalidNode && sys.now() < 200) {
        sys.run(1);
        for (NodeId id = 0; id < 16 && victim == kInvalidNode; ++id) {
            if (sys.router(id).bufferedFlits() > 0)
                victim = id;
        }
    }
    ASSERT_NE(victim, kInvalidNode) << "no router ever buffered a flit";
    const std::uint64_t sweeps = sys.auditor().sweepCount();
    const Cycle at = sys.now();
    sys.controller(victim).injectForcedOff(at);

    EXPECT_EQ(sys.auditor().sweepCount(), sweeps);
    EXPECT_EQ(sys.auditor().transitionChecks(), 1u);
    bool flagged = false;
    for (const auto &v : sys.auditor().violations()) {
        if (v.kind == Kind::kPgSafety && v.node == victim && v.cycle == at)
            flagged = true;
    }
    EXPECT_TRUE(flagged) << "router " << victim << " not flagged at cycle "
                         << at;
    EXPECT_EQ(sys.auditor().shadowMismatches(), 0u)
        << sys.auditor().firstShadowMismatch();
}

TEST(InvariantAuditorTest, RemoteLeakReportedWithinOneInterval)
{
    // Far from any power transition (an idle Conv_PG mesh whose routers
    // have all gated), an unannounced credit leak is the periodic sweep's
    // to find: it must be reported within verify.interval cycles.
    NocConfig cfg = auditedConfig(PgDesign::kConvPg);
    cfg.verify.interval = 64;
    NocSystem sys(cfg);
    sys.run(100);
    ASSERT_EQ(sys.countInState(PowerState::kOff), cfg.numNodes());
    const std::uint64_t checks = sys.auditor().transitionChecks();
    const NodeId leaky = 10;
    const Cycle at = sys.now();
    sys.router(leaky).injectCreditLeak(Direction::kWest, 1);
    sys.run(cfg.verify.interval);

    EXPECT_EQ(sys.auditor().transitionChecks(), checks);
    ASSERT_TRUE(sys.auditor().hasViolation(Kind::kCreditConservation));
    const auto &v = sys.auditor().violations().front();
    EXPECT_EQ(v.kind, Kind::kCreditConservation);
    EXPECT_EQ(v.node, leaky);
    EXPECT_FALSE(v.expected);
    EXPECT_GE(v.cycle, at);
    EXPECT_LE(v.cycle, at + cfg.verify.interval);
}

/** True when a recorded VC-state violation's diagnosis holds @p what. */
bool
hasVcStateFinding(const NocSystem &sys, const char *what)
{
    for (const auto &v : sys.auditor().violations()) {
        if (v.kind == Kind::kVcState &&
            v.diagnosis.find(what) != std::string::npos)
            return true;
    }
    return false;
}

TEST(InvariantAuditorTest, OccupancyCountersMatchAScanAcrossRestores)
{
    // A router's load walk writes the VC buffers and states but neither
    // its occupancy counters nor its per-stage work masks. Bare
    // Router::serializeState loads leave both describing the router as
    // built, which the sweep must flag; loadState and loadCheckpoint
    // (success and rollback) rebuild them and must stay silent.
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem src(cfg);
    SyntheticTraffic ts(TrafficPattern::kUniformRandom, 0.25, 7);
    src.setWorkload(&ts);
    src.run(300);
    int buffered = 0;
    for (NodeId id = 0; id < cfg.numNodes(); ++id)
        buffered += src.router(id).bufferedFlits();
    ASSERT_GT(buffered, 0) << "no buffered flits; the check proves nothing";
    EXPECT_EQ(src.auditor().sweep(src.now()), 0u);
    StateSerializer save(SerialMode::kSave);
    src.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();
    const std::vector<std::uint8_t> payload = save.buffer();

    {
        NocSystem bare(cfg);
        for (NodeId id = 0; id < cfg.numNodes(); ++id) {
            StateSerializer one(SerialMode::kSave);
            src.router(id).serializeState(one);
            ASSERT_TRUE(one.ok()) << one.error();
            StateSerializer load(one.buffer());
            bare.router(id).serializeState(load);
            ASSERT_TRUE(load.ok()) << load.error();
        }
        EXPECT_GT(bare.auditor().sweep(bare.now()), 0u);
        EXPECT_TRUE(hasVcStateFinding(bare, "occupancy counters"));
        EXPECT_TRUE(hasVcStateFinding(bare, "work masks"));
    }
    {
        NocSystem restored(cfg);
        SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.25, 7);
        restored.setWorkload(&t);
        StateSerializer load(payload);
        restored.loadState(load);
        ASSERT_TRUE(load.ok()) << load.error();
        EXPECT_EQ(restored.auditor().sweep(restored.now()), 0u);
    }

    // loadCheckpoint: a header whose cycle disagrees with the payload's
    // clock fails after the full walk and rolls back; the intact file
    // then loads.
    NocSystem victim(cfg);
    SyntheticTraffic tv(TrafficPattern::kUniformRandom, 0.25, 9);
    victim.setWorkload(&tv);
    victim.run(150);
    const std::uint64_t before = victim.stateHash();
    CheckpointMeta meta;
    meta.configFingerprint = src.configFingerprint();
    meta.cycle = src.now() + 1;
    const std::string bad = testTempPath("occupancy_bad.ckpt");
    ASSERT_TRUE(writeCheckpointFile(bad, meta, payload));
    std::string err;
    EXPECT_FALSE(victim.loadCheckpoint(bad, nullptr, &err));
    EXPECT_EQ(victim.stateHash(), before);
    EXPECT_EQ(victim.auditor().sweep(victim.now()), 0u);

    meta.cycle = src.now();
    const std::string good = testTempPath("occupancy_good.ckpt");
    ASSERT_TRUE(writeCheckpointFile(good, meta, payload));
    ASSERT_TRUE(victim.loadCheckpoint(good, nullptr, &err)) << err;
    EXPECT_EQ(victim.stateHash(), src.stateHash());
    EXPECT_EQ(victim.auditor().sweep(victim.now()), 0u);
    EXPECT_FALSE(hasVcStateFinding(victim, "occupancy counters"));
    EXPECT_FALSE(hasVcStateFinding(victim, "work masks"));
    std::remove(bad.c_str());
    std::remove(good.c_str());
}

TEST(InvariantAuditorTest, E2eTimersMatchAScanAcrossRestores)
{
    // An NI's load walk writes its E2E endpoint's retransmission buffer
    // but not the deadline bound. A bare NetworkInterface::serializeState
    // load leaves the bound as built, which the sweep must flag;
    // loadState rebuilds it and stays silent.
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitDropRate = 2e-3;
    NocSystem src(cfg);
    SyntheticTraffic ts(TrafficPattern::kUniformRandom, 0.10, 7);
    src.setWorkload(&ts);
    src.run(400);
    std::size_t pending = 0;
    for (NodeId id = 0; id < cfg.numNodes(); ++id)
        pending += src.ni(id).e2e()->pendingSends();
    ASSERT_GT(pending, 0u) << "nothing pending; the check proves nothing";
    src.auditor().sweep(src.now());
    EXPECT_FALSE(src.auditor().hasViolation(Kind::kE2eTimers));
    StateSerializer save(SerialMode::kSave);
    src.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    {
        NocSystem bare(cfg);
        for (NodeId id = 0; id < cfg.numNodes(); ++id) {
            StateSerializer one(SerialMode::kSave);
            src.ni(id).serializeState(one);
            ASSERT_TRUE(one.ok()) << one.error();
            StateSerializer load(one.buffer());
            bare.ni(id).serializeState(load);
            ASSERT_TRUE(load.ok()) << load.error();
        }
        bare.auditor().sweep(bare.now());
        EXPECT_TRUE(bare.auditor().hasViolation(Kind::kE2eTimers));
    }
    NocSystem restored(cfg);
    SyntheticTraffic t(TrafficPattern::kUniformRandom, 0.10, 7);
    restored.setWorkload(&t);
    StateSerializer load(save.takeBuffer());
    restored.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();
    restored.auditor().sweep(restored.now());
    EXPECT_FALSE(restored.auditor().hasViolation(Kind::kE2eTimers));
}

}  // namespace
}  // namespace nord
