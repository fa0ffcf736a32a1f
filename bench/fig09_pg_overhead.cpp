/**
 * @file
 * Figure 9 reproduction: (a) power-gating wakeup-overhead energy and
 * (b) router wakeup counts, normalized to Conv_PG.
 *
 * Paper anchors: NoRD cuts overhead energy by 80.7% vs Conv_PG and 74.0%
 * vs Conv_PG_OPT; wakeup counts drop by 81.0% and 73.3%.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    auto campaign = runCampaign();

    std::printf("=== Figure 9(a): PG overhead energy (norm. to Conv_PG) "
                "===\n");
    std::printf("%-14s %10s %12s %10s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    double eSum[4] = {0, 0, 0, 0};
    double wSum[4] = {0, 0, 0, 0};
    for (const CampaignRow &row : campaign) {
        const double base = row.byDesign[1].energy.pgOverhead;
        std::printf("%-14s", row.benchmark.c_str());
        for (int d = 1; d < 4; ++d) {
            const double frac = row.byDesign[d].energy.pgOverhead / base;
            eSum[d] += frac;
            wSum[d] += static_cast<double>(row.byDesign[d].wakeups) /
                       static_cast<double>(row.byDesign[1].wakeups);
            std::printf(" %9.1f%%%s", 100.0 * frac, d == 2 ? "  " : "");
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(campaign.size());
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n\n", "AVG",
                100.0 * eSum[1] / n, 100.0 * eSum[2] / n,
                100.0 * eSum[3] / n);

    std::printf("=== Figure 9(b): router wakeups (norm. to Conv_PG) ===\n");
    std::printf("%-14s %10s %12s %10s\n", "AVG", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n", "",
                100.0 * wSum[1] / n, 100.0 * wSum[2] / n,
                100.0 * wSum[3] / n);

    std::printf("\nNoRD overhead reduction: %.1f%% vs Conv_PG "
                "(paper: 80.7%%), %.1f%% vs Conv_PG_OPT (paper: 74.0%%)\n",
                100.0 * (1.0 - eSum[3] / eSum[1]),
                100.0 * (1.0 - eSum[3] / eSum[2]));
    std::printf("NoRD wakeup reduction:   %.1f%% vs Conv_PG "
                "(paper: 81.0%%), %.1f%% vs Conv_PG_OPT (paper: 73.3%%)\n",
                100.0 * (1.0 - wSum[3] / wSum[1]),
                100.0 * (1.0 - wSum[3] / wSum[2]));
    return 0;
}
