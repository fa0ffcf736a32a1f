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

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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
    ParsecParams script = params;
    if (const char *quick = std::getenv("NORD_QUICK"); quick &&
        quick[0] == '1')
        script.transactionsPerCore =
            std::max(50, script.transactionsPerCore / 8);

    std::printf("benchmark: %s (gap %.0f, mlp %d, %d txns/core)\n\n",
                params.name.c_str(), params.computeGapMean,
                params.maxOutstanding, params.transactionsPerCore);
    std::printf("%-12s %9s %9s %9s %8s %8s %8s %9s\n", "design",
                "exec(cyc)", "latency", "wakeups", "idle%", "off%",
                "staticE", "totalE");

    RunRecord base;
    for (int d = 0; d < 4; ++d) {
        NocConfig cfg;
        cfg.design = static_cast<PgDesign>(d);
        NocSystem sys(cfg);
        ParsecWorkload wl(script, 1);
        sys.setWorkload(&wl);
        sys.runToCompletion(30'000'000);
        const RunRecord r = recordRun(sys);
        if (d == 0)
            base = r;
        std::printf("%-12s %9llu %9.2f %9llu %7.1f%% %7.1f%% %8.2f%% %8.2f%%\n",
                    pgDesignName(cfg.design),
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
