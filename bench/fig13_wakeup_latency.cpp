/**
 * @file
 * Figure 13 reproduction: impact of the wakeup latency (9..18 cycles) on
 * average packet latency at the PARSEC-average load, uniform random.
 *
 * Paper anchors: Conv_PG and Conv_PG_OPT degrade by ~1.5x as the wakeup
 * latency grows from 9 to 18 cycles; NoRD stays flat because the bypass
 * removes the wakeup from the critical path entirely.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    const double rate = 0.05;  // PARSEC-average network load
    const Cycle warmup = 10000;
    const Cycle measure = 150000;

    std::printf("=== Figure 13: latency vs wakeup latency "
                "(uniform random @ %.2f flits/node/cycle) ===\n", rate);
    std::printf("%-10s %9s %12s %8s\n", "wakeup", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    double first[4] = {0, 0, 0, 0};
    double last[4] = {0, 0, 0, 0};
    const int lats[] = {9, 12, 15, 18};
    for (int wl : lats) {
        std::printf("%-10d", wl);
        for (int d = 1; d < 4; ++d) {
            NocConfig cfg =
                makeShippedConfig(static_cast<PgDesign>(d), 4, 4);
            cfg.wakeupLatency = wl;
            RunRecord r = runSynthetic(cfg, TrafficPattern::kUniformRandom,
                                       rate, warmup, measure, 5);
            std::printf(" %9.2f%s", r.avgLatency, d == 2 ? "  " : "");
            if (wl == lats[0])
                first[d] = r.avgLatency;
            last[d] = r.avgLatency;
        }
        std::printf("\n");
    }
    std::printf("\nlatency growth 9 -> 18 cycles:\n");
    std::printf("  Conv_PG     %.2fx (paper: ~1.5x)\n", last[1] / first[1]);
    std::printf("  Conv_PG_OPT %.2fx (paper: ~1.5x)\n", last[2] / first[2]);
    std::printf("  NoRD        %.2fx (paper: ~1.0x, flat)\n",
                last[3] / first[3]);
    return bench::stdoutStatus();
}
