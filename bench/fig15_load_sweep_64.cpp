/**
 * @file
 * Figure 15 reproduction: 64-node (8x8) mesh load sweeps under uniform
 * random and bit-complement traffic -- latency and NoC power.
 *
 * Paper anchors: NoRD's low-load advantage over Conv_PG_OPT grows with
 * network size (paper example @0.10 uniform: No_PG 36, Conv_PG_OPT 52,
 * NoRD 44 cycles); bit-complement saturates earlier than uniform.
 */

#include <cstdio>

#include "bench_util.hh"

namespace {

void
sweep(nord::TrafficPattern pattern, const double *rates, int n)
{
    using namespace nord;
    using namespace nord::bench;

    const Cycle warmup = 10000;
    const Cycle measure = 60000;
    const PgDesign designs[] = {PgDesign::kNoPg, PgDesign::kConvPgOpt,
                                PgDesign::kNord};

    std::printf("--- %s ---\n", trafficPatternName(pattern));
    std::printf("%-8s | %8s %11s %7s | %8s %11s %7s\n", "rate", "No_PG",
                "Conv_PG_OPT", "NoRD", "No_PG", "Conv_PG_OPT", "NoRD");
    for (int i = 0; i < n; ++i) {
        std::printf("%-8.3f |", rates[i]);
        double lat[3];
        double pw[3];
        int k = 0;
        for (PgDesign d : designs) {
            RunRecord r = runSynthetic(makeShippedConfig(d, 8, 8), pattern,
                                       rates[i], warmup, measure, 33);
            lat[k] = r.avgLatency;
            pw[k] = r.avgPowerW;
            ++k;
        }
        std::printf(" %8.2f %11.2f %7.2f | %8.3f %11.3f %7.3f\n", lat[0],
                    lat[1], lat[2], pw[0], pw[1], pw[2]);
    }
    std::printf("\n");
}

}  // namespace

int
main()
{
    using namespace nord;

    std::printf("=== Figure 15: 64-node load sweeps ===\n");
    const double uniformRates[] = {0.02, 0.05, 0.10, 0.15, 0.20, 0.28,
                                   0.35};
    sweep(TrafficPattern::kUniformRandom, uniformRates, 7);
    const double bitcompRates[] = {0.02, 0.04, 0.06, 0.08, 0.10, 0.14,
                                   0.18};
    sweep(TrafficPattern::kBitComplement, bitcompRates, 7);
    std::printf("paper reference @0.10 uniform: No_PG 36, "
                "Conv_PG_OPT 52, NoRD 44 cycles\n");
    return bench::stdoutStatus();
}
