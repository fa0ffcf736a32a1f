/**
 * @file
 * Bit-identity lockdown for idle-component skipping.
 *
 * The contract under test: the kernel's event skipping
 * (SimKernel::setSkipEnabled, on by default) is a pure optimization. A
 * system running with it must march through the exact same per-cycle
 * stateHash() sequence as one that ticks every component every cycle --
 * for every power-gating design, with the fault campaign and E2E
 * resilience active, with the toggle flipped mid-run, and across a
 * checkpoint saved on one side and restored on the other (the toggle is
 * not part of the checkpoint, so checkpoints cross it).
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
#include "temp_dir.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

NocConfig
perfConfig(PgDesign design, std::uint64_t seed = 1)
{
    NocConfig cfg;
    cfg.design = design;
    cfg.seed = seed;
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
 * March a serial system (skipping off) and a skipping one in per-cycle
 * stateHash() lockstep under the same traffic, then drain both and
 * compare final state and stats. With @p toggleEvery > 0 the second
 * system flips its skip toggle every that many cycles instead.
 */
void
expectLockstep(const NocConfig &cfg, double load, std::uint64_t seed,
               Cycle cycles, Cycle toggleEvery = 0)
{
    NocSystem ref(cfg);
    NocSystem alt(cfg);
    ref.kernel().setSkipEnabled(false);
    SyntheticTraffic tr(TrafficPattern::kUniformRandom, load, seed);
    SyntheticTraffic ta(TrafficPattern::kUniformRandom, load, seed);
    ref.setWorkload(&tr);
    alt.setWorkload(&ta);
    for (Cycle i = 0; i < cycles; ++i) {
        if (toggleEvery != 0 && i % toggleEvery == 0 && i != 0)
            alt.kernel().setSkipEnabled(!alt.kernel().skipEnabled());
        ref.run(1);
        alt.run(1);
        ASSERT_EQ(ref.stateHash(), alt.stateHash())
            << "skipping diverged at cycle " << (i + 1) << " (design "
            << pgDesignName(cfg.design) << ", skip "
            << alt.kernel().skipEnabled() << ")";
    }
    ref.setWorkload(nullptr);
    alt.setWorkload(nullptr);
    ASSERT_TRUE(ref.runToCompletion(100000));
    ASSERT_TRUE(alt.runToCompletion(100000));
    EXPECT_EQ(ref.now(), alt.now());
    EXPECT_EQ(ref.stateHash(), alt.stateHash());
    expectSameStats(ref, alt);
    // The audited run (router occupancy counters against a VC scan
    // included) found nothing it cannot attribute to an injected fault.
    EXPECT_EQ(ref.auditor().unexpectedViolations(), 0u);
    EXPECT_EQ(alt.auditor().unexpectedViolations(), 0u);
    alt.checkInvariants();
}

TEST(PerfInvariance, SkipAndArenaLockstepAllDesigns)
{
    for (int d = 0; d < 4; ++d)
        expectLockstep(perfConfig(static_cast<PgDesign>(d)), 0.08, 7, 400);
}

TEST(PerfInvariance, TogglesAreIndependentlyInvariant)
{
    // The toggle acts at any cycle boundary: flipping it mid-run (which
    // re-activates every component) must be as invisible as either
    // setting held throughout. Two periods, so the flips land at
    // different phases of the run.
    expectLockstep(perfConfig(PgDesign::kNord), 0.08, 11, 350, 37);
    expectLockstep(perfConfig(PgDesign::kNord), 0.08, 11, 350, 100);
}

TEST(PerfInvariance, LowLoadDeepSleepLockstep)
{
    // Low load is where skipping actually fires (long gated stretches):
    // the highest-risk regime for a wake edge that arrives late.
    for (PgDesign d : {PgDesign::kNord, PgDesign::kConvPgOpt}) {
        expectLockstep(perfConfig(d), 0.01, 13, 600);
    }
}

TEST(PerfInvariance, SameWordWakesLockstepOn2x4)
{
    // On a 2x4 mesh the 40 links and 8 routers all sit in word 0 of the
    // kernel's active set (links register first), so a link delivering
    // into a parked router wakes a later slot of the word being walked:
    // stepOne must tick it in the same pass, as the serial walk does.
    for (PgDesign d : {PgDesign::kNord, PgDesign::kConvPg}) {
        NocConfig cfg = perfConfig(d);
        cfg.rows = 2;
        cfg.cols = 4;
        expectLockstep(cfg, 0.03, 19, 800);
    }
}

TEST(PerfInvariance, CheckpointCrossesPerfSettings)
{
    // Save mid-run from the skipping system, restore into a serial one
    // (and vice versa): the toggle is not part of the checkpoint, so the
    // checkpoint must load, and the restored run must stay in lockstep
    // with the donor.
    const std::string path = testTempPath("nord_perf_cross.ckpt");
    for (int dir = 0; dir < 2; ++dir) {
        const bool donorFast = (dir == 0);
        NocSystem donor(perfConfig(PgDesign::kNord));
        donor.kernel().setSkipEnabled(donorFast);
        SyntheticTraffic td(TrafficPattern::kUniformRandom, 0.08, 17);
        donor.setWorkload(&td);
        donor.run(500);
        std::string err;
        ASSERT_TRUE(donor.saveCheckpoint(path, {}, &err)) << err;

        NocSystem heir(perfConfig(PgDesign::kNord));
        heir.kernel().setSkipEnabled(!donorFast);
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
        EXPECT_EQ(heir.auditor().unexpectedViolations(), 0u);
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
    NocConfig cfg = perfConfig(PgDesign::kNord, seed);
    cfg.fault.flitCorruptRate = 5e-4;
    cfg.fault.flitDropRate = 5e-4;
    cfg.fault.lostWakeupRate = 0.01;
    cfg.verify.interval = 8;

    NocSystem ref(cfg);
    NocSystem alt(cfg);
    ref.kernel().setSkipEnabled(false);
    SyntheticTraffic tr(TrafficPattern::kUniformRandom, 0.06, seed);
    SyntheticTraffic ta(TrafficPattern::kUniformRandom, 0.06, seed);
    ref.setWorkload(&tr);
    alt.setWorkload(&ta);
    // One file per seed: the seeds run as parallel ctest entries.
    const std::string path =
        testTempPath("nord_perf_soak_" + std::to_string(seed) + ".ckpt");
    for (Cycle i = 0; i < 3000; ++i) {
        ref.run(1);
        alt.run(1);
        ASSERT_EQ(ref.stateHash(), alt.stateHash())
            << "soak diverged at cycle " << (i + 1) << " (seed " << seed
            << ")";
        if (i == 1500) {
            // Mid-soak, one side only: checkpoint the skipping system
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
