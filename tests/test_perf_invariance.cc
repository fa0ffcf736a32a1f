/**
 * @file
 * Bit-identity lockdown for the performance layer.
 *
 * The contract under test: idle-router event skipping (perf.skipIdle)
 * and the pool-arena flit storage (perf.arena) are pure optimizations.
 * A system running with either (or both) toggled must march through the
 * exact same per-cycle stateHash() sequence as the plain
 * tick-everything, heap-everything build -- for every power-gating
 * design, with the fault campaign and E2E resilience active, and across
 * a checkpoint saved on one side and restored on the other (the
 * configuration fingerprint deliberately excludes PerfConfig, so
 * checkpoints cross perf settings).
 *
 * A randomized soak (seeds 1-3, one ctest entry each) stretches the
 * same lockstep over a heavier campaign with mid-run checkpoint/restore
 * on one side only.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

NocConfig
perfConfig(PgDesign design, bool skip, bool arena, std::uint64_t seed = 1)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.seed = seed;
    cfg.perf.skipIdle = skip;
    cfg.perf.arena = arena;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = 1e-4;
    cfg.fault.flitDropRate = 1e-4;
    cfg.fault.creditLeakRate = 5e-5;
    cfg.verify.interval = 64;
    cfg.verify.policy = AuditPolicy::kRecover;
    return cfg;
}

/** The stats any two bit-identical runs must agree on. */
void
expectSameStats(const NocSystem &a, const NocSystem &b)
{
    EXPECT_EQ(a.stats().packetsCreated(), b.stats().packetsCreated());
    EXPECT_EQ(a.stats().packetsDelivered(), b.stats().packetsDelivered());
    EXPECT_EQ(a.stats().flitsInjected(), b.stats().flitsInjected());
    EXPECT_EQ(a.stats().flitsEjected(), b.stats().flitsEjected());
    EXPECT_EQ(a.stats().totalWakeups(), b.stats().totalWakeups());
    EXPECT_EQ(a.stats().avgPacketLatency(), b.stats().avgPacketLatency());
}

/**
 * March @p ref and @p alt in per-cycle stateHash() lockstep under the
 * same traffic, then drain both and compare final state and stats.
 */
void
expectLockstep(const NocConfig &refCfg, const NocConfig &altCfg,
               double load, std::uint64_t seed, Cycle cycles)
{
    NocSystem ref(refCfg);
    NocSystem alt(altCfg);
    SyntheticTraffic tr(TrafficPattern::kUniformRandom, load, seed);
    SyntheticTraffic ta(TrafficPattern::kUniformRandom, load, seed);
    ref.setWorkload(&tr);
    alt.setWorkload(&ta);
    for (Cycle i = 0; i < cycles; ++i) {
        ref.run(1);
        alt.run(1);
        ASSERT_EQ(ref.stateHash(), alt.stateHash())
            << "perf layer diverged at cycle " << (i + 1) << " (design "
            << pgDesignName(refCfg.design) << ", skip "
            << altCfg.perf.skipIdle << ", arena " << altCfg.perf.arena
            << ")";
    }
    ref.setWorkload(nullptr);
    alt.setWorkload(nullptr);
    ASSERT_TRUE(ref.runToCompletion(100000));
    ASSERT_TRUE(alt.runToCompletion(100000));
    EXPECT_EQ(ref.now(), alt.now());
    EXPECT_EQ(ref.stateHash(), alt.stateHash());
    expectSameStats(ref, alt);
    alt.checkInvariants();
}

TEST(PerfInvariance, SkipAndArenaLockstepAllDesigns)
{
    for (int d = 0; d < 4; ++d) {
        const auto design = static_cast<PgDesign>(d);
        expectLockstep(perfConfig(design, false, false),
                       perfConfig(design, true, true), 0.08, 7, 400);
    }
}

TEST(PerfInvariance, TogglesAreIndependentlyInvariant)
{
    // Each optimization alone must also be bit-identical -- a bug in one
    // must not hide behind a compensating bug in the other.
    const NocConfig ref = perfConfig(PgDesign::kNord, false, false);
    expectLockstep(ref, perfConfig(PgDesign::kNord, true, false), 0.08,
                   11, 350);
    expectLockstep(ref, perfConfig(PgDesign::kNord, false, true), 0.08,
                   11, 350);
}

TEST(PerfInvariance, LowLoadDeepSleepLockstep)
{
    // Low load is where skipping actually fires (long gated stretches):
    // the highest-risk regime for a wake edge that arrives late.
    for (PgDesign d : {PgDesign::kNord, PgDesign::kConvPgOpt}) {
        expectLockstep(perfConfig(d, false, false),
                       perfConfig(d, true, true), 0.01, 13, 600);
    }
}

TEST(PerfInvariance, CheckpointCrossesPerfSettings)
{
    // Save mid-run from the optimized system, restore into a plain one
    // (and vice versa): PerfConfig is excluded from the configuration
    // fingerprint, so the checkpoint must load, and the restored run
    // must stay in lockstep with the donor.
    const std::string path =
        ::testing::TempDir() + "/nord_perf_cross.ckpt";
    for (int dir = 0; dir < 2; ++dir) {
        const bool donorFast = (dir == 0);
        NocSystem donor(perfConfig(PgDesign::kNord, donorFast, donorFast));
        SyntheticTraffic td(TrafficPattern::kUniformRandom, 0.08, 17);
        donor.setWorkload(&td);
        donor.run(500);
        std::string err;
        ASSERT_TRUE(donor.saveCheckpoint(path, {}, &err)) << err;

        NocSystem heir(
            perfConfig(PgDesign::kNord, !donorFast, !donorFast));
        SyntheticTraffic th(TrafficPattern::kUniformRandom, 0.08, 17);
        heir.setWorkload(&th);
        ASSERT_TRUE(heir.loadCheckpoint(path, nullptr, &err)) << err;
        ASSERT_EQ(donor.stateHash(), heir.stateHash());
        for (Cycle i = 0; i < 250; ++i) {
            donor.run(1);
            heir.run(1);
            ASSERT_EQ(donor.stateHash(), heir.stateHash())
                << "diverged " << (i + 1) << " cycles after restore "
                << "(donor fast=" << donorFast << ")";
        }
        expectSameStats(donor, heir);
        std::remove(path.c_str());
    }
}

// --- Randomized soak (one entry per seed) -----------------------------------

class PerfInvarianceSoak : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PerfInvarianceSoak, InvarianceFaultSoak)
{
    const std::uint64_t seed = GetParam();
    NocConfig refCfg = perfConfig(PgDesign::kNord, false, false, seed);
    refCfg.fault.flitCorruptRate = 5e-4;
    refCfg.fault.flitDropRate = 5e-4;
    refCfg.fault.lostWakeupRate = 0.01;
    refCfg.verify.interval = 8;
    NocConfig altCfg = refCfg;
    altCfg.perf.skipIdle = true;
    altCfg.perf.arena = true;

    NocSystem ref(refCfg);
    NocSystem alt(altCfg);
    SyntheticTraffic tr(TrafficPattern::kUniformRandom, 0.06, seed);
    SyntheticTraffic ta(TrafficPattern::kUniformRandom, 0.06, seed);
    ref.setWorkload(&tr);
    alt.setWorkload(&ta);
    // One file per seed: the seeds run as parallel ctest entries.
    const std::string path = ::testing::TempDir() + "/nord_perf_soak_" +
                             std::to_string(seed) + ".ckpt";
    for (Cycle i = 0; i < 3000; ++i) {
        ref.run(1);
        alt.run(1);
        ASSERT_EQ(ref.stateHash(), alt.stateHash())
            << "soak diverged at cycle " << (i + 1) << " (seed " << seed
            << ")";
        if (i == 1500) {
            // Mid-soak, one side only: checkpoint the optimized system
            // and reload it into itself. A save/restore cycle must be
            // invisible to the lockstep.
            std::string err;
            ASSERT_TRUE(alt.saveCheckpoint(path, {}, &err)) << err;
            ASSERT_TRUE(alt.loadCheckpoint(path, nullptr, &err)) << err;
            ASSERT_EQ(ref.stateHash(), alt.stateHash());
        }
    }
    ref.setWorkload(nullptr);
    alt.setWorkload(nullptr);
    ASSERT_TRUE(ref.runToCompletion(400000));
    ASSERT_TRUE(alt.runToCompletion(400000));
    EXPECT_EQ(ref.now(), alt.now());
    EXPECT_EQ(ref.stateHash(), alt.stateHash());
    expectSameStats(ref, alt);
    EXPECT_EQ(alt.auditor().unexpectedViolations(), 0u);
    alt.checkInvariants();
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(FaultCampaign, PerfInvarianceSoak,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace nord
