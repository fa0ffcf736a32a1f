/**
 * @file
 * Example: run one PARSEC-like benchmark model under all four designs
 * (No_PG, Conv_PG, Conv_PG_OPT, NoRD) and compare the paper's headline
 * metrics: static energy, wakeups, packet latency and execution time.
 *
 * Usage: parsec_campaign [benchmark_name]   (default: canneal)
 *
 * NORD_QUICK=1 shortens the script 8x, as it does for the figure benches.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "traffic/parsec_workload.hh"

int
main(int argc, char **argv)
{
    using namespace nord;

    const char *name = argc > 1 ? argv[1] : "canneal";
    const ParsecParams &params = parsecByName(name);

    std::vector<bench::Point> points;
    for (int d = 0; d < 4; ++d) {
        NocConfig cfg;
        cfg.design = static_cast<PgDesign>(d);
        points.push_back({.cfg = cfg, .parsec = &params});
    }
    bench::runPoints(points);

    std::printf("benchmark: %s (gap %.0f, mlp %d, %d txns/core)\n\n",
                params.name.c_str(), params.computeGapMean,
                params.maxOutstanding, params.transactionsPerCore);
    std::printf("%-12s %9s %9s %9s %8s %8s %8s %9s\n", "design",
                "exec(cyc)", "latency", "wakeups", "idle%", "off%",
                "staticE", "totalE");

    const RunRecord &base = points[0].rec;
    for (const bench::Point &pt : points) {
        const RunRecord &r = pt.rec;
        std::printf("%-12s %9llu %9.2f %9llu %7.1f%% %7.1f%% %8.2f%% %8.2f%%\n",
                    pgDesignName(pt.cfg.design),
                    static_cast<unsigned long long>(r.cycles),
                    r.avgLatency,
                    static_cast<unsigned long long>(r.wakeups),
                    100.0 * r.idleFraction, 100.0 * r.offFraction,
                    100.0 * r.staticEnergy() / base.staticEnergy(),
                    100.0 * r.energy.total() / base.energy.total());
    }
    std::printf("\nstaticE/totalE are normalized to No_PG "
                "(static includes PG overhead).\n");
    return bench::stdoutStatus();
}
