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

    // Per rate: Req = 1..5, ring only (Req 2^20: never wakes), No_PG (0).
    std::vector<Point> points;
    for (double rate : {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10}) {
        for (int req : {1, 2, 3, 4, 5, 1 << 20, 0}) {
            NocConfig cfg = makeShippedConfig(
                req ? PgDesign::kNord : PgDesign::kNoPg, 4, 4);
            if (req) {
                cfg.nordPerfThreshold = req;
                cfg.nordPowerThreshold = req;
                cfg.nordPerfCentricCount = 0;
            }
            points.push_back({.cfg = cfg, .rate = rate, .warmup = 10000,
                              .measure = 100000, .seed = 11});
        }
    }
    runPoints(points);

    std::printf("=== Figure 7: latency vs injection rate per wakeup "
                "threshold (4x4, uniform random) ===\n");
    std::printf("%-8s", "rate");
    for (int req = 1; req <= 5; ++req)
        std::printf("  Req=%d   ", req);
    std::printf("%-10s %-10s\n", "ring-only", "all-on");
    for (std::size_t i = 0; i < points.size(); i += 7) {
        std::printf("%-8.3f", points[i].rate);
        for (std::size_t k = i; k < i + 5; ++k)
            std::printf(" %8.2f", points[k].rec.avgLatency);
        std::printf(" %9.2f %9.2f\n", points[i + 5].rec.avgLatency,
                    points[i + 6].rec.avgLatency);
    }
    std::printf("\nA latency blow-up in the ring-only column marks the "
                "Bypass Ring saturation point\n(paper: ~14%% of the all-on "
                "throughput).\n");
    return bench::stdoutStatus();
}
