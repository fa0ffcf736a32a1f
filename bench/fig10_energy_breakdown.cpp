/**
 * @file
 * Figure 10 reproduction: overall NoC energy breakdown per benchmark and
 * design, normalized to No_PG: router static, router dynamic (incl. the
 * NI bypass, per Section 5.1), link static, link dynamic, PG overhead.
 *
 * Paper anchors: NoRD's dynamic-energy overhead is ~10.2% of dynamic
 * (~4.0% of total); NoRD's net NoC-energy savings are 9.1% vs No_PG,
 * 9.4% vs Conv_PG and 20.6% vs Conv_PG_OPT... (9.1% vs No_PG; the other
 * two follow from the per-design totals).
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    auto campaign = runCampaign();

    std::printf("=== Figure 10: NoC energy breakdown "
                "(%% of No_PG total) ===\n");
    std::printf("%-14s %-12s %8s %8s %8s %8s %8s %8s\n", "benchmark",
                "design", "rstatic", "rdyn", "lstatic", "ldyn", "pgovh",
                "total");
    double totalSum[4] = {0, 0, 0, 0};
    double dynSum[2] = {0, 0};  // No_PG vs NoRD dynamic (router+link)
    for (const CampaignRow &row : campaign) {
        const double base = row.byDesign[0].energy.total();
        for (int d = 0; d < 4; ++d) {
            const EnergyBreakdown &e = row.byDesign[d].energy;
            std::printf("%-14s %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% "
                        "%7.1f%% %7.1f%%\n",
                        d == 0 ? row.benchmark.c_str() : "",
                        pgDesignName(static_cast<PgDesign>(d)),
                        100.0 * e.routerStatic / base,
                        100.0 * e.routerDynamic / base,
                        100.0 * e.linkStatic / base,
                        100.0 * e.linkDynamic / base,
                        100.0 * e.pgOverhead / base,
                        100.0 * e.total() / base);
            totalSum[d] += e.total() / base;
        }
        dynSum[0] += row.byDesign[0].energy.routerDynamic +
                     row.byDesign[0].energy.linkDynamic;
        dynSum[1] += row.byDesign[3].energy.routerDynamic +
                     row.byDesign[3].energy.linkDynamic;
    }
    const double n = static_cast<double>(campaign.size());
    std::printf("\nAVG total: No_PG %.1f%%, Conv_PG %.1f%%, "
                "Conv_PG_OPT %.1f%%, NoRD %.1f%%\n",
                100.0 * totalSum[0] / n, 100.0 * totalSum[1] / n,
                100.0 * totalSum[2] / n, 100.0 * totalSum[3] / n);
    std::printf("NoRD net savings vs No_PG: %.1f%% (paper: 9.1%%)\n",
                100.0 * (1.0 - totalSum[3] / totalSum[0]));
    std::printf("NoRD dynamic-energy overhead vs No_PG: %.1f%% "
                "(paper: 10.2%%)\n",
                100.0 * (dynSum[1] / dynSum[0] - 1.0));
    return 0;
}
