/**
 * @file
 * Figure 8 reproduction: router static energy per PARSEC benchmark,
 * normalized to No_PG. Static energy includes the power-gating overhead
 * charged to the routers (waking cycles leak at full power; gated cycles
 * leak only the always-on residue).
 *
 * Paper anchors: Conv_PG leaves 48.8% (51.2% savings), Conv_PG_OPT 53.0%
 * (47.0% savings), NoRD 37.1% (62.9% savings); NoRD relative savings
 * 23.9% vs Conv_PG and 29.9% vs Conv_PG_OPT.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    auto campaign = runCampaign();

    std::printf("=== Figure 8: static energy normalized to No_PG ===\n");
    std::printf("%-14s %10s %12s %10s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    double sums[4] = {0, 0, 0, 0};
    for (const CampaignRow &row : campaign) {
        const double base = row.byDesign[0].staticEnergy();
        std::printf("%-14s", row.benchmark.c_str());
        for (int d = 1; d < 4; ++d) {
            const double frac = row.byDesign[d].staticEnergy() / base;
            sums[d] += frac;
            std::printf(" %9.1f%%%s", 100.0 * frac, d == 2 ? "  " : "");
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(campaign.size());
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n", "AVG",
                100.0 * sums[1] / n, 100.0 * sums[2] / n,
                100.0 * sums[3] / n);
    std::printf("paper AVG:         48.8%%        53.0%%      37.1%%\n");
    std::printf("\nNoRD vs Conv_PG:     %5.1f%% further reduction "
                "(paper: 23.9%%)\n",
                100.0 * (1.0 - sums[3] / sums[1]));
    std::printf("NoRD vs Conv_PG_OPT: %5.1f%% further reduction "
                "(paper: 29.9%%)\n",
                100.0 * (1.0 - sums[3] / sums[2]));
    return 0;
}
