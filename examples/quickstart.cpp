/**
 * @file
 * Quickstart: build a 4x4 NoRD mesh, drive it with uniform random
 * traffic, and print latency / power-gating statistics.
 *
 * Usage: quickstart [injection_rate_flits_per_node_cycle]
 *
 * The rate must be wholly a number in (0, 1]; anything else prints the
 * usage and exits 2.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/parse_number.hh"
#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "traffic/synthetic_traffic.hh"

int
main(int argc, char **argv)
{
    using namespace nord;

    double rate = 0.05;
    if (argc > 2 || (argc > 1 && !(parseNumber(argv[1], &rate) &&
                                   rate > 0.0 && rate <= 1.0))) {
        std::fprintf(stderr, "usage: quickstart [rate in (0, 1]]\n");
        return 2;
    }

    NocConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.design = PgDesign::kNord;
    cfg.statsWarmup = 10000;

    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, rate, 42);
    sys.setWorkload(&traffic);

    std::printf("NoRD quickstart: 4x4 mesh, %s, %.3f flits/node/cycle\n",
                pgDesignName(cfg.design), rate);
    std::printf("bypass ring:");
    NodeId n = 0;
    for (int i = 0; i < cfg.numNodes(); ++i) {
        std::printf(" %d ->", n);
        n = sys.ring().successor(n);
    }
    std::printf(" 0\n");
    std::printf("performance-centric routers:");
    for (NodeId r : sys.perfCentricRouters())
        std::printf(" %d", r);
    std::printf("\n\n");

    sys.run(110000);
    const RunRecord r = recordRun(sys);
    const double seconds = r.cycles * PowerModel().tech().cycleTime();

    std::printf("packets delivered: %llu\n",
                static_cast<unsigned long long>(r.delivered));
    std::printf("avg packet latency: %.2f cycles\n", r.avgLatency);
    std::printf("avg hops:          %.2f\n", r.avgHops);
    std::printf("router idle:       %.1f%%\n", 100.0 * r.idleFraction);
    std::printf("router wakeups:    %llu\n",
                static_cast<unsigned long long>(r.wakeups));
    std::printf("gated-off cycles:  %.1f%%\n", 100.0 * r.offFraction);
    std::printf("NoC power:         %.3f W\n", r.avgPowerW);
    std::printf("  router static    %.3f W\n",
                r.energy.routerStatic / seconds);
    std::printf("  router dynamic   %.3f W\n",
                r.energy.routerDynamic / seconds);
    std::printf("  PG overhead      %.3f W\n",
                r.energy.pgOverhead / seconds);
    return bench::stdoutStatus();
}
