/**
 * @file
 * Example: explore the power model across technology nodes and voltages,
 * and analyze idle-period structure for one benchmark under No_PG --
 * the analysis that motivates NoRD (Sections 2 and 3).
 *
 * Usage: power_explorer [benchmark]   (default: canneal)
 */

#include <cstdio>

#include "bench_util.hh"
#include "network/noc_system.hh"
#include "power/power_model.hh"
#include "traffic/parsec_workload.hh"

int
main(int argc, char **argv)
{
    using namespace nord;

    std::printf("=== Technology sweep: router static power share ===\n");
    std::printf("%-6s", "node");
    for (double v : {1.2, 1.1, 1.0})
        std::printf("   %.1fV ", v);
    std::printf("\n");
    for (TechNode node : {TechNode::k65nm, TechNode::k45nm,
                          TechNode::k32nm}) {
        std::printf("%-6s", techNodeName(node));
        for (double v : {1.2, 1.1, 1.0}) {
            PowerModel pm(TechParams{node, v, 3.0});
            std::printf("  %5.1f%%", 100.0 * pm.staticShareAtReference());
        }
        std::printf("\n");
    }

    PowerModel pm;
    std::printf("\nbreakeven time: %.1f cycles (paper: ~10)\n",
                pm.breakEvenCycles(pm.wakeupOverheadEnergy(10)));
    std::printf("bypass hop / router hop energy: %.0f%%\n",
                100.0 * (pm.bypassLatchEnergy() +
                         pm.bypassForwardEnergy()) /
                    pm.routerHopEnergy());

    // Idle-period anatomy under a real workload.
    const char *name = argc > 1 ? argv[1] : "canneal";
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    ParsecWorkload wl(parsecByName(name), 1);
    sys.setWorkload(&wl);
    if (!sys.runToCompletion(30'000'000))
        std::fprintf(stderr, "warning: cycle limit hit\n");
    sys.finalizeStats();

    IdlePeriodHistogram hist = sys.stats().combinedIdleHistogram();
    std::printf("\n=== Idle periods under %s (No_PG) ===\n", name);
    std::printf("router idleness: %.1f%%\n",
                100.0 * sys.stats().avgIdleFraction());
    std::printf("idle periods: %llu, mean length %.1f cycles\n",
                static_cast<unsigned long long>(hist.count()),
                hist.mean());
    for (Cycle limit : {2, 5, 10, 20, 50}) {
        std::printf("  <= %2llu cycles: %5.1f%% of periods\n",
                    static_cast<unsigned long long>(limit),
                    100.0 * hist.fractionAtOrBelow(limit));
    }
    std::printf("Periods at or below the %d-cycle breakeven time cannot "
                "profit from\nconventional power-gating -- the "
                "opportunity NoRD unlocks.\n", cfg.betCycles);
    return bench::stdoutStatus();
}
