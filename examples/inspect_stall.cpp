/**
 * @file
 * Diagnostic: run uniform traffic on a chosen design and dump component
 * state if deliveries stop making progress (stall detector).
 *
 * Usage: inspect_stall [design 0-3] [rate] [cycles]
 *
 * Each argument must be a whole number (design, cycles > 0) or a rate in
 * (0, 1]; anything else prints the usage and exits 2. A design number
 * outside the four designs is NocConfig::validate's to reject (exit 1).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/parse_number.hh"
#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

int
main(int argc, char **argv)
{
    using namespace nord;
    int design = 3;
    double rate = 0.05;
    Cycle cycles = 100000;
    if (argc > 4 || (argc > 1 && !parseNumber(argv[1], &design)) ||
        (argc > 2 && !(parseNumber(argv[2], &rate) && rate > 0.0 &&
                       rate <= 1.0)) ||
        (argc > 3 && !(parseNumber(argv[3], &cycles) && cycles > 0))) {
        std::fprintf(stderr,
                     "usage: inspect_stall [design 0-3] [rate in (0, 1]] "
                     "[cycles > 0]\n");
        return 2;
    }

    NocConfig cfg;
    cfg.design = static_cast<PgDesign>(design);
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, rate, 7);
    sys.setWorkload(&traffic);

    std::uint64_t lastDelivered = 0;
    Cycle lastProgress = 0;
    for (Cycle t = 0; t < cycles; t += 500) {
        sys.run(500);
        if (sys.stats().packetsDelivered() != lastDelivered) {
            lastDelivered = sys.stats().packetsDelivered();
            lastProgress = sys.now();
        } else if (sys.now() - lastProgress > 5000) {
            std::printf("STALL: no deliveries since cycle %llu\n",
                        static_cast<unsigned long long>(lastProgress));
            sys.dumpState(stdout);
            return 1;
        }
    }
    std::printf("OK: delivered %llu packets, latency %.2f, idle %.1f%%\n",
                static_cast<unsigned long long>(
                    sys.stats().packetsDelivered()),
                sys.stats().avgPacketLatency(),
                100.0 * sys.stats().avgIdleFraction());
    return bench::stdoutStatus();
}
