/**
 * @file
 * Shared experiment harness for the figure-reproduction benches.
 *
 * Each bench binary regenerates one table/figure of the paper. They all
 * run complete NocSystem simulations and reduce them to the paper's
 * metrics with recordRun() (network/run_record.hh).
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
#include "network/run_record.hh"
#include "traffic/parsec_workload.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace bench {

/** True when NORD_QUICK=1 (shorter PARSEC scripts). */
inline bool
quickMode()
{
    const char *env = std::getenv("NORD_QUICK");
    return env && env[0] == '1';
}

/**
 * Run one PARSEC benchmark model to completion on @p cfg (shortened in
 * quick mode).
 */
inline RunRecord
runParsec(const NocConfig &cfg, const ParsecParams &params)
{
    NocSystem sys(cfg);
    ParsecParams p = params;
    if (quickMode())
        p.transactionsPerCore = std::max(50, p.transactionsPerCore / 8);
    ParsecWorkload wl(p, 1);
    sys.setWorkload(&wl);
    if (!sys.runToCompletion(30'000'000)) {
        std::fprintf(stderr,
                     "warning: %s/%s hit the cycle limit (%llu done)\n",
                     pgDesignName(cfg.design), p.name.c_str(),
                     static_cast<unsigned long long>(
                         wl.completedTransactions()));
    }
    return recordRun(sys);
}

/**
 * Run open-loop synthetic traffic on @p cfg for @p warmup unmeasured
 * cycles followed by @p measure measured ones.
 */
inline RunRecord
runSynthetic(NocConfig cfg, TrafficPattern pattern, double rate,
             Cycle warmup, Cycle measure, std::uint64_t seed)
{
    cfg.statsWarmup = warmup;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(pattern, rate, seed);
    sys.setWorkload(&traffic);
    sys.run(warmup + measure);
    return recordRun(sys);
}

/** One benchmark's results under all four designs. */
struct CampaignRow
{
    std::string benchmark;
    RunRecord byDesign[4];
};

/**
 * Run the full PARSEC campaign (10 benchmarks x 4 designs). The heart of
 * Figures 8-12.
 */
inline std::vector<CampaignRow>
runCampaign()
{
    std::vector<CampaignRow> rows;
    for (const ParsecParams &p : parsecSuite()) {
        CampaignRow row;
        row.benchmark = p.name;
        for (int d = 0; d < 4; ++d)
            row.byDesign[d] = runParsec(
                makeShippedConfig(static_cast<PgDesign>(d), 4, 4), p);
        rows.push_back(std::move(row));
        std::fprintf(stderr, "  [campaign] %s done\n", p.name.c_str());
    }
    return rows;
}

}  // namespace bench
}  // namespace nord

#endif  // NORD_BENCHUTIL_HH
