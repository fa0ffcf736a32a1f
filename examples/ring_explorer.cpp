/**
 * @file
 * Example: visualize the Bypass Ring construction and the router
 * criticality analysis for an arbitrary mesh size.
 *
 * Usage: ring_explorer [rows] [cols]   (default: 4 4)
 *
 * Each argument must be a whole number; anything else prints the usage
 * and exits 2. A mesh smaller than 2x2 is MeshTopology's to reject
 * (exit 1).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/parse_number.hh"
#include "topology/criticality.hh"

int
main(int argc, char **argv)
{
    using namespace nord;

    int rows = 4;
    int cols = 4;
    if (argc > 3 || (argc > 1 && !parseNumber(argv[1], &rows)) ||
        (argc > 2 && !parseNumber(argv[2], &cols))) {
        std::fprintf(stderr, "usage: ring_explorer [rows] [cols]\n");
        return 2;
    }
    MeshTopology mesh(rows, cols);
    BypassRing ring(mesh);

    std::printf("=== Bypass Ring for a %dx%d mesh ===\n\n", rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c)
            std::printf("%4d", mesh.nodeAt(r, c));
        std::printf("\n");
    }

    std::printf("\nring order: ");
    for (NodeId n : ring.order())
        std::printf("%d ", n);
    std::printf("\n\nper-router bypass ports (in -> node -> out):\n");
    for (NodeId n = 0; n < mesh.numNodes(); ++n) {
        std::printf("  node %2d: %s -> [%2d] -> %s   (pred %2d, succ %2d)%s\n",
                    n, dirName(ring.bypassInport(n)), n,
                    dirName(ring.bypassOutport(n)), ring.predecessor(n),
                    ring.successor(n),
                    ring.crossesDateline(n) ? "  <- dateline edge" : "");
    }

    // The sweep takes about 0.2 s at 12x12 and grows as n^4 log n.
    if (mesh.numNodes() <= 144) {
        CriticalityAnalyzer analyzer(mesh, ring);
        auto sweep = analyzer.greedySweep();
        const int knee = CriticalityAnalyzer::kneePoint(sweep);
        std::printf("\ncriticality knee: %d routers\n", knee);
        std::printf("performance-centric set:");
        for (NodeId n : sweep[knee].poweredOn)
            std::printf(" %d", n);
        std::printf("\nring-only avg distance: %.2f hops @ %.2f "
                    "cycles/hop\n",
                    sweep[0].avgDistanceHops, sweep[0].avgPerHopLatency);
        std::printf("knee avg distance:      %.2f hops @ %.2f "
                    "cycles/hop\n",
                    sweep[knee].avgDistanceHops,
                    sweep[knee].avgPerHopLatency);
        std::printf("all-on avg distance:    %.2f hops @ %.2f "
                    "cycles/hop\n",
                    sweep.back().avgDistanceHops,
                    sweep.back().avgPerHopLatency);
    } else {
        std::printf("\n(criticality sweep skipped for large meshes; "
                    "run fig06_router_criticality)\n");
    }
    return bench::stdoutStatus();
}
