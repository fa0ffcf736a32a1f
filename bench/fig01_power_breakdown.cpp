/**
 * @file
 * Figure 1 reproduction: static power share of on-chip routers across
 * technology generations and voltages (1a), and the router power
 * decomposition at 45 nm / 1.0 V (1b).
 *
 * Paper anchors: 17.9% @ 65nm/1.2V, 35.4% @ 45nm/1.1V, 47.7% @ 32nm/1.0V;
 * Fig 1b: dynamic 62%, buffer static 21%, VA 7%, SA 2%, xbar 5%, clock 4%.
 */

#include <cstdio>

#include "bench_util.hh"
#include "power/power_model.hh"
#include "power/tech_params.hh"

int
main()
{
    using namespace nord;

    std::printf("=== Figure 1(a): router static power percentage ===\n");
    std::printf("%-6s %-6s %-10s\n", "node", "Vdd", "static%");
    const TechNode nodes[] = {TechNode::k65nm, TechNode::k45nm,
                              TechNode::k32nm};
    const double volts[] = {1.2, 1.1, 1.0};
    for (TechNode node : nodes) {
        for (double v : volts) {
            PowerModel pm(TechParams{node, v, 3.0});
            std::printf("%-6s %-6.1f %-10.1f\n", techNodeName(node), v,
                        100.0 * pm.staticShareAtReference());
        }
    }
    std::printf("paper: 17.9%% @65nm/1.2V, 35.4%% @45nm/1.1V, "
                "47.7%% @32nm/1.0V\n\n");

    std::printf("=== Figure 1(b): router power decomposition "
                "(45nm, 1.0V) ===\n");
    PowerModel pm(TechParams{TechNode::k45nm, 1.0, 3.0});
    const double staticShare = pm.staticShareAtReference();
    const double dynShare = 1.0 - staticShare;
    std::printf("%-16s %5.1f%%  (paper: 62%%)\n", "dynamic",
                100.0 * dynShare);
    std::printf("%-16s %5.1f%%  (paper: 21%%)\n", "buffer_static",
                100.0 * staticShare * PowerModel::kBufferStaticShare);
    std::printf("%-16s %5.1f%%  (paper:  7%%)\n", "VA_static",
                100.0 * staticShare * PowerModel::kVaStaticShare);
    std::printf("%-16s %5.1f%%  (paper:  2%%)\n", "SA_static",
                100.0 * staticShare * PowerModel::kSaStaticShare);
    std::printf("%-16s %5.1f%%  (paper:  5%%)\n", "Xbar_static",
                100.0 * staticShare * PowerModel::kXbarStaticShare);
    std::printf("%-16s %5.1f%%  (paper:  4%%)\n", "Clock_static",
                100.0 * staticShare * PowerModel::kClockStaticShare);
    return bench::stdoutStatus();
}
