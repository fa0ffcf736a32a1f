/**
 * @file
 * Figure 7 reproduction: determining the wakeup threshold.
 *
 * All routers are forced into sleep mode (wakeup thresholds set beyond
 * reach for the "ring only" row, or uniformly to Req = 1..5), traffic is
 * concentrated on the Bypass Ring, and the average latency is recorded
 * while the load rate varies.
 *
 * Paper anchors: the Bypass Ring alone saturates at ~14% of the all-on
 * throughput; a threshold of 4+ VC requests costs ~60% extra latency, so
 * power-centric routers use 3 and performance-centric routers use 1.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    const double rates[] = {0.01, 0.02, 0.03, 0.04, 0.05,
                            0.06, 0.08, 0.10};
    const Cycle warmup = 10000;
    const Cycle measure = 100000;

    std::printf("=== Figure 7: latency vs injection rate per wakeup "
                "threshold (4x4, uniform random) ===\n");
    std::printf("%-8s", "rate");
    for (int req = 1; req <= 5; ++req)
        std::printf("  Req=%d   ", req);
    std::printf("%-10s %-10s\n", "ring-only", "all-on");

    for (double rate : rates) {
        std::printf("%-8.3f", rate);
        for (int req = 1; req <= 5; ++req) {
            NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
            cfg.nordPerfThreshold = req;
            cfg.nordPowerThreshold = req;
            cfg.nordPerfCentricCount = 0;
            RunRecord r = runSynthetic(cfg, TrafficPattern::kUniformRandom,
                                       rate, warmup, measure, 11);
            std::printf(" %8.2f", r.avgLatency);
        }
        // Ring only: thresholds unreachably high, routers never wake.
        NocConfig ringCfg = makeShippedConfig(PgDesign::kNord, 4, 4);
        ringCfg.nordPerfThreshold = 1 << 20;
        ringCfg.nordPowerThreshold = 1 << 20;
        ringCfg.nordPerfCentricCount = 0;
        RunRecord ringOnly = runSynthetic(
            ringCfg, TrafficPattern::kUniformRandom, rate, warmup, measure,
            11);
        RunRecord allOn = runSynthetic(
            makeShippedConfig(PgDesign::kNoPg, 4, 4),
            TrafficPattern::kUniformRandom, rate, warmup, measure, 11);
        std::printf(" %9.2f %9.2f\n", ringOnly.avgLatency,
                    allOn.avgLatency);
    }
    std::printf("\nA latency blow-up in the ring-only column marks the "
                "Bypass Ring saturation point\n(paper: ~14%% of the all-on "
                "throughput).\n");
    return bench::stdoutStatus();
}
