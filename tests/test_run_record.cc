/**
 * @file
 * RunRecord tests: recordRun() reduces a finished system to the paper's
 * metrics exactly as the energy model and the activity counters define
 * them, deriving the link count, design and BET from the system.
 */

#include <gtest/gtest.h>

#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "power/power_model.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

void
expectRecordOfRun(int rows, int cols, PgDesign design, int betCycles)
{
    NocConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.design = design;
    cfg.betCycles = betCycles;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 9);
    sys.setWorkload(&traffic);
    sys.run(3000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(20000));

    const RunRecord r = recordRun(sys);
    const NetworkStats &st = sys.stats();
    const int links = 2 * (rows * (cols - 1) + cols * (rows - 1));
    const EnergyBreakdown e =
        PowerModel().compute(st, sys.now(), links, design, betCycles);
    EXPECT_EQ(r.energy.routerStatic, e.routerStatic);
    EXPECT_EQ(r.energy.routerDynamic, e.routerDynamic);
    EXPECT_EQ(r.energy.linkStatic, e.linkStatic);
    EXPECT_EQ(r.energy.linkDynamic, e.linkDynamic);
    EXPECT_EQ(r.energy.pgOverhead, e.pgOverhead);
    EXPECT_EQ(r.staticEnergy(), e.routerStatic + e.pgOverhead);

    const ActivityCounters t = st.totals();
    const double stateCycles =
        static_cast<double>(t.onCycles + t.offCycles + t.wakingCycles);
    EXPECT_EQ(r.offFraction, static_cast<double>(t.offCycles) / stateCycles);
    if (design != PgDesign::kNoPg) {
        EXPECT_GT(r.offFraction, 0.0);
    }
    EXPECT_EQ(r.idleLeqBet,
              st.combinedIdleHistogram().fractionAtOrBelow(betCycles));

    EXPECT_EQ(r.cycles, sys.now());
    EXPECT_EQ(r.created, st.packetsCreated());
    EXPECT_EQ(r.delivered, r.created);
    EXPECT_EQ(r.deliveredFraction, 1.0);
    EXPECT_EQ(r.wakeups, st.totalWakeups());
    EXPECT_TRUE(r.drained);
}

TEST(RunRecord, MatchesPowerModelAndCountersOn4x4)
{
    expectRecordOfRun(4, 4, PgDesign::kNord, 10);
}

TEST(RunRecord, MatchesPowerModelAndCountersOn8x8)
{
    expectRecordOfRun(8, 8, PgDesign::kConvPg, 16);
}

}  // namespace
}  // namespace nord
