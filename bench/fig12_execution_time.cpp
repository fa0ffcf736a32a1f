/**
 * @file
 * Figure 12 reproduction: execution time normalized to No_PG.
 *
 * Execution time is the cycle at which every core in the closed-loop
 * workload model finishes its transaction script, so network latency
 * degradation lengthens it exactly as in the paper's full-system runs.
 *
 * Paper anchors: Conv_PG +11.7%, Conv_PG_OPT +8.1%, NoRD +3.9%.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    auto campaign = runCampaign();

    std::printf("=== Figure 12: execution time (norm. to No_PG) ===\n");
    std::printf("%-14s %9s %12s %9s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    double sums[4] = {0, 0, 0, 0};
    for (const CampaignRow &row : campaign) {
        const double base = static_cast<double>(row.byDesign[0].cycles);
        std::printf("%-14s", row.benchmark.c_str());
        for (int d = 1; d < 4; ++d) {
            const double frac =
                static_cast<double>(row.byDesign[d].cycles) / base;
            sums[d] += frac;
            std::printf(" %8.1f%%%s", 100.0 * frac, d == 2 ? "   " : "");
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(campaign.size());
    std::printf("\nAVG: Conv_PG +%.1f%% (paper: +11.7%%), "
                "Conv_PG_OPT +%.1f%% (paper: +8.1%%), "
                "NoRD +%.1f%% (paper: +3.9%%)\n",
                100.0 * (sums[1] / n - 1.0), 100.0 * (sums[2] / n - 1.0),
                100.0 * (sums[3] / n - 1.0));
    return 0;
}
