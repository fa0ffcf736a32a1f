/**
 * @file
 * Figure 6 reproduction: impact of the number of powered-on routers on
 * average node-to-node distance and per-hop latency, via the off-line
 * Floyd-Warshall program of Section 4.4.
 *
 * Paper anchors: distance falls from ~8 hops (ring only) towards the
 * all-on mesh average (2.67 for 4x4) while per-hop latency rises from the
 * 3-cycle bypass towards the 5-cycle full pipeline; six routers form the
 * knee and become the performance-centric class.
 */

#include <cstdio>

#include "bench_util.hh"
#include "topology/criticality.hh"

int
main()
{
    using namespace nord;

    MeshTopology mesh(4, 4);
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);

    std::printf("=== Figure 6: greedy powered-on sweep (4x4) ===\n");
    std::printf("%-4s %-10s %-12s %s\n", "k", "distance", "per-hop",
                "powered-on set");
    auto sweep = analyzer.greedySweep();
    for (const CriticalityPoint &pt : sweep) {
        std::printf("%-4d %-10.3f %-12.3f", pt.numPoweredOn,
                    pt.avgDistanceHops, pt.avgPerHopLatency);
        for (NodeId r : pt.poweredOn)
            std::printf(" %d", r);
        std::printf("\n");
    }

    const int knee = CriticalityAnalyzer::kneePoint(sweep);
    std::printf("\nknee: %d routers (paper: 6)\n", knee);
    std::printf("performance-centric set:");
    for (NodeId r : sweep[knee].poweredOn)
        std::printf(" %d", r);
    std::printf("\n(paper's set {4,5,6,7,13,14} assumes the paper's ring "
                "construction;\n ours differs but the knee and curve "
                "shapes are the reproduction targets)\n");
    return bench::stdoutStatus();
}
