/**
 * @file
 * Shared experiment harness for the figure-reproduction benches.
 *
 * Each bench binary regenerates one table/figure of the paper. They all
 * run complete NocSystem simulations and reduce them to the paper's
 * metrics through the helpers here.
 *
 * Environment: set NORD_QUICK=1 to shrink the PARSEC scripts (faster,
 * noisier); figures keep their shape.
 */

#ifndef NORD_BENCHUTIL_HH
#define NORD_BENCHUTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "network/noc_system.hh"
#include "power/area_model.hh"
#include "power/power_model.hh"
#include "traffic/parsec_workload.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace bench {

/** Metrics extracted from one finished simulation. */
struct RunResult
{
    PgDesign design = PgDesign::kNoPg;
    Cycle cycles = 0;             ///< simulated cycles (= execution time
                                  ///< for closed-loop runs)
    double avgLatency = 0.0;      ///< average packet latency (cycles)
    double avgHops = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t wakeups = 0;
    double idleFraction = 0.0;    ///< router datapath idleness
    double offFraction = 0.0;     ///< cycles spent gated off
    EnergyBreakdown energy;       ///< Joules over the whole run
    double idleLeqBet = 0.0;      ///< idle periods <= BET (fraction)

    /** Average NoC power in watts. */
    double powerW(const PowerModel &pm) const
    {
        return energy.averagePowerW(cycles, pm.tech().cycleTime());
    }

    /** Static + PG-overhead energy (the paper's "static energy"). */
    double staticEnergy() const
    {
        return energy.routerStatic + energy.pgOverhead;
    }
};

/** True when NORD_QUICK=1 (shorter PARSEC scripts). */
inline bool
quickMode()
{
    const char *env = std::getenv("NORD_QUICK");
    return env && env[0] == '1';
}

/** Table 1 configuration for one design. */
inline NocConfig
makeConfig(PgDesign design, int rows = 4, int cols = 4)
{
    NocConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.design = design;
    return cfg;
}

/** Reduce a finished system + workload into a RunResult. */
inline RunResult
summarize(NocSystem &sys, const PowerModel &pm)
{
    sys.finalizeStats();
    const NetworkStats &st = sys.stats();
    const ActivityCounters t = st.totals();
    const int numLinks =
        2 * (sys.mesh().rows() * (sys.mesh().cols() - 1) +
             sys.mesh().cols() * (sys.mesh().rows() - 1));

    RunResult r;
    r.design = sys.config().design;
    r.cycles = sys.now();
    r.avgLatency = st.avgPacketLatency();
    r.avgHops = st.avgHops();
    r.delivered = st.packetsDelivered();
    r.wakeups = st.totalWakeups();
    r.idleFraction = st.avgIdleFraction();
    const double stateCycles = static_cast<double>(
        t.onCycles + t.offCycles + t.wakingCycles);
    r.offFraction = stateCycles > 0
        ? static_cast<double>(t.offCycles) / stateCycles : 0.0;
    r.energy = pm.compute(st, sys.now(), numLinks, sys.config().design,
                          sys.config().betCycles);
    r.idleLeqBet = st.combinedIdleHistogram().fractionAtOrBelow(
        sys.config().betCycles);
    return r;
}

/**
 * Run one PARSEC benchmark model to completion under @p design.
 */
inline RunResult
runParsec(PgDesign design, const ParsecParams &params,
          const PowerModel &pm, int rows = 4, int cols = 4,
          std::uint64_t seed = 1)
{
    NocConfig cfg = makeConfig(design, rows, cols);
    NocSystem sys(cfg);
    ParsecParams p = params;
    if (quickMode())
        p.transactionsPerCore = std::max(50, p.transactionsPerCore / 8);
    ParsecWorkload wl(p, seed);
    sys.setWorkload(&wl);
    const Cycle limit = 30'000'000;
    if (!sys.runToCompletion(limit)) {
        std::fprintf(stderr,
                     "warning: %s/%s hit the cycle limit (%llu done)\n",
                     pgDesignName(design), p.name.c_str(),
                     static_cast<unsigned long long>(
                         wl.completedTransactions()));
    }
    return summarize(sys, pm);
}

/**
 * Run open-loop synthetic traffic for a fixed number of cycles.
 */
inline RunResult
runSynthetic(PgDesign design, TrafficPattern pattern, double rate,
             const PowerModel &pm, Cycle warmup, Cycle measure,
             int rows = 4, int cols = 4, std::uint64_t seed = 1,
             const NocConfig *baseCfg = nullptr)
{
    NocConfig cfg = baseCfg ? *baseCfg : makeConfig(design, rows, cols);
    cfg.design = design;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.statsWarmup = warmup;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(pattern, rate, seed);
    sys.setWorkload(&traffic);
    sys.run(warmup + measure);
    return summarize(sys, pm);
}

/** One benchmark's results under all four designs. */
struct CampaignRow
{
    std::string benchmark;
    RunResult byDesign[4];
};

/**
 * Run the full PARSEC campaign (10 benchmarks x 4 designs). The heart of
 * Figures 8-12.
 */
inline std::vector<CampaignRow>
runCampaign(const PowerModel &pm)
{
    std::vector<CampaignRow> rows;
    for (const ParsecParams &p : parsecSuite()) {
        CampaignRow row;
        row.benchmark = p.name;
        for (int d = 0; d < 4; ++d) {
            row.byDesign[d] =
                runParsec(static_cast<PgDesign>(d), p, pm);
        }
        rows.push_back(std::move(row));
        std::fprintf(stderr, "  [campaign] %s done\n", p.name.c_str());
    }
    return rows;
}

/** Print one labeled row of "value (paper: x)" style output. */
inline void
printRow(const std::string &label, double value, const char *unit,
         const char *note = nullptr)
{
    std::printf("%-16s %10.3f %s", label.c_str(), value, unit);
    if (note)
        std::printf("   %s", note);
    std::printf("\n");
}

}  // namespace bench
}  // namespace nord

#endif  // NORD_BENCHUTIL_HH
