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

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    std::vector<Point> points;
    addLoadSweep(points, 8, TrafficPattern::kUniformRandom,
                 {0.02, 0.05, 0.10, 0.15, 0.20, 0.28, 0.35}, 60000, 33);
    addLoadSweep(points, 8, TrafficPattern::kBitComplement,
                 {0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.18}, 60000, 33);
    runPoints(points);

    std::printf("=== Figure 15: 64-node load sweeps ===\n");
    const std::size_t n = points.size() / 2;  // points per sweep
    for (std::size_t first = 0; first < points.size(); first += n) {
        std::printf("--- %s ---\n",
                    trafficPatternName(points[first].pattern));
        renderLoadSweep(std::span(points).subspan(first, n), 3);
        std::printf("\n");
    }
    std::printf("paper reference @0.10 uniform: No_PG 36, "
                "Conv_PG_OPT 52, NoRD 44 cycles\n");
    return bench::stdoutStatus();
}
