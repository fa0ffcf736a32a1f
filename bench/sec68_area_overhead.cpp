/**
 * @file
 * Section 6.8 reproduction: area overhead of the NoRD bypass hardware.
 *
 * Paper anchors: a well-designed power-gating block costs 4-10% of the
 * gated area; NoRD's added bypass hardware (latches, demux/mux,
 * forwarding control) costs only 3.1% over Conv_PG_OPT. The fine-grained
 * alternative of [25] saves an extra 17.6% static energy but costs 15.9%
 * area, making NoRD the more cost-effective point.
 */

#include <cstdio>

#include "bench_util.hh"
#include "network/noc_config.hh"
#include "power/area_model.hh"

int
main()
{
    using namespace nord;

    NocConfig cfg;  // Table 1 defaults
    AreaModel area(cfg);

    std::printf("=== Section 6.8: router area accounting "
                "(normalized units) ===\n");
    std::printf("%-24s %10.0f\n", "input buffers", area.bufferArea());
    std::printf("%-24s %10.0f\n", "allocators/control",
                area.controlArea());
    std::printf("%-24s %10.0f\n", "crossbar", area.crossbarArea());
    std::printf("%-24s %10.0f\n", "base router", area.baseRouterArea());
    std::printf("%-24s %10.0f (%.1f%% of gated area; paper: 4-10%%)\n",
                "PG switches+distrib.", area.pgSwitchArea(),
                100.0 * area.pgSwitchArea() / area.baseRouterArea());
    std::printf("%-24s %10.0f\n", "NoRD bypass hardware",
                area.nordBypassArea());

    std::printf("\n%-24s %10.0f\n", "No_PG total",
                area.totalArea(PgDesign::kNoPg));
    std::printf("%-24s %10.0f\n", "Conv_PG_OPT total",
                area.totalArea(PgDesign::kConvPgOpt));
    std::printf("%-24s %10.0f\n", "NoRD total",
                area.totalArea(PgDesign::kNord));
    std::printf("\nNoRD overhead vs Conv_PG_OPT: %.1f%% (paper: 3.1%%)\n",
                100.0 * area.overheadVs(PgDesign::kNord,
                                        PgDesign::kConvPgOpt));
    return bench::stdoutStatus();
}
