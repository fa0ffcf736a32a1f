/**
 * @file
 * Figure 11 reproduction: average packet latency per PARSEC benchmark
 * under the four designs.
 *
 * Paper anchors: relative to No_PG, Conv_PG degrades latency by 63.8%,
 * Conv_PG_OPT by 41.5%, and NoRD by only 15.2% on average (i.e. NoRD
 * improves over Conv_PG_OPT by 26.3%, the headline claim).
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    auto campaign = runCampaign();

    std::printf("=== Figure 11: average packet latency (cycles) ===\n");
    std::printf("%-14s %8s %9s %12s %8s\n", "benchmark", "No_PG",
                "Conv_PG", "Conv_PG_OPT", "NoRD");
    double degSum[4] = {0, 0, 0, 0};
    for (const CampaignRow &row : campaign) {
        std::printf("%-14s", row.benchmark.c_str());
        const double base = row.byDesign[0].avgLatency;
        for (int d = 0; d < 4; ++d) {
            std::printf(" %8.2f%s", row.byDesign[d].avgLatency,
                        d == 2 ? "    " : "");
            degSum[d] += row.byDesign[d].avgLatency / base - 1.0;
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(campaign.size());
    std::printf("\nAVG latency degradation vs No_PG:\n");
    std::printf("  Conv_PG     +%.1f%% (paper: +63.8%%)\n",
                100.0 * degSum[1] / n);
    std::printf("  Conv_PG_OPT +%.1f%% (paper: +41.5%%)\n",
                100.0 * degSum[2] / n);
    std::printf("  NoRD        +%.1f%% (paper: +15.2%%)\n",
                100.0 * degSum[3] / n);
    std::printf("NoRD improvement over Conv_PG_OPT: %.1f%% "
                "(paper: 26.3%%)\n",
                100.0 * (1.0 - (1.0 + degSum[3] / n) /
                                   (1.0 + degSum[2] / n)));
    return 0;
}
