/**
 * @file
 * Figure 14 reproduction: 16-node mesh, uniform random traffic, average
 * packet latency and NoC power across the full load range for No_PG,
 * Conv_PG_OPT and NoRD.
 *
 * Paper anchors (three regions): at low load NoRD beats Conv_PG_OPT on
 * both latency and power (paper example at 0.1: No_PG 24, Conv_PG_OPT 34,
 * NoRD 29 cycles); at medium-high load the three designs converge; in
 * saturation NoRD saturates slightly earlier (ring escape is less
 * flexible than XY escape).
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    std::vector<Point> points;
    addLoadSweep(points, 4, TrafficPattern::kUniformRandom,
                 {0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.55},
                 100000, 21);
    runPoints(points);

    std::printf("=== Figure 14: 16-node uniform random load sweep ===\n");
    std::printf("%-8s | %-28s | %-28s\n", "",
                "avg latency (cycles)", "NoC power (W)");
    renderLoadSweep(points, 2);
    std::printf("\npaper reference @0.10: No_PG 24, Conv_PG_OPT 34, "
                "NoRD 29 cycles\n");
    return bench::stdoutStatus();
}
