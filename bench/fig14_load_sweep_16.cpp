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

    const double rates[] = {0.02, 0.05, 0.08, 0.10, 0.15, 0.20,
                            0.30, 0.40, 0.50, 0.55};
    const Cycle warmup = 10000;
    const Cycle measure = 100000;
    const PgDesign designs[] = {PgDesign::kNoPg, PgDesign::kConvPgOpt,
                                PgDesign::kNord};

    std::printf("=== Figure 14: 16-node uniform random load sweep ===\n");
    std::printf("%-8s | %-28s | %-28s\n", "",
                "avg latency (cycles)", "NoC power (W)");
    std::printf("%-8s | %8s %11s %7s | %8s %11s %7s\n", "rate", "No_PG",
                "Conv_PG_OPT", "NoRD", "No_PG", "Conv_PG_OPT", "NoRD");
    for (double rate : rates) {
        std::printf("%-8.2f |", rate);
        double lat[3];
        double pw[3];
        int i = 0;
        for (PgDesign d : designs) {
            RunRecord r = runSynthetic(makeShippedConfig(d, 4, 4),
                                       TrafficPattern::kUniformRandom,
                                       rate, warmup, measure, 21);
            lat[i] = r.avgLatency;
            pw[i] = r.avgPowerW;
            ++i;
        }
        std::printf(" %8.2f %11.2f %7.2f | %8.3f %11.3f %7.3f\n", lat[0],
                    lat[1], lat[2], pw[0], pw[1], pw[2]);
    }
    std::printf("\npaper reference @0.10: No_PG 24, Conv_PG_OPT 34, "
                "NoRD 29 cycles\n");
    return bench::stdoutStatus();
}
