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
    std::vector<Point> points;  // per wakeup latency: Conv_PG, OPT, NoRD
    for (int wl : {9, 12, 15, 18}) {
        for (int d = 1; d < 4; ++d) {
            NocConfig cfg =
                makeShippedConfig(static_cast<PgDesign>(d), 4, 4);
            cfg.wakeupLatency = wl;
            points.push_back({.cfg = cfg, .rate = rate, .warmup = 10000,
                              .measure = 150000, .seed = 5});
        }
    }
    runPoints(points);

    std::printf("=== Figure 13: latency vs wakeup latency "
                "(uniform random @ %.2f flits/node/cycle) ===\n", rate);
    std::printf("%-10s %9s %12s %8s\n", "wakeup", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    for (std::size_t i = 0; i < points.size(); i += 3) {
        std::printf("%-10d %9.2f %9.2f   %9.2f\n", points[i].cfg.wakeupLatency,
                    points[i].rec.avgLatency, points[i + 1].rec.avgLatency,
                    points[i + 2].rec.avgLatency);
    }
    // growth(k): design k's latency at 18 cycles over that at 9.
    auto growth = [&](std::size_t k) {
        return points[points.size() - 3 + k].rec.avgLatency /
               points[k].rec.avgLatency;
    };
    std::printf("\nlatency growth 9 -> 18 cycles:\n");
    std::printf("  Conv_PG     %.2fx (paper: ~1.5x)\n", growth(0));
    std::printf("  Conv_PG_OPT %.2fx (paper: ~1.5x)\n", growth(1));
    std::printf("  NoRD        %.2fx (paper: ~1.0x, flat)\n", growth(2));
    return bench::stdoutStatus();
}
