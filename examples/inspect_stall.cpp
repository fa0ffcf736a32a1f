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

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace {

/** Parse all of @p arg as an int; false on any other text. */
bool
parseInt(const char *arg, int *out)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(arg, &end, 10);
    if (*arg == '\0' || *end != '\0' || errno == ERANGE || v < INT_MIN ||
        v > INT_MAX)
        return false;
    *out = static_cast<int>(v);
    return true;
}

/** Parse all of @p arg as a rate in (0, 1]. */
bool
parseRate(const char *arg, double *out)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(arg, &end);
    if (*arg == '\0' || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v <= 0.0 || v > 1.0)
        return false;
    *out = v;
    return true;
}

/** Parse all of @p arg as a positive cycle count. */
bool
parseCycles(const char *arg, nord::Cycle *out)
{
    // strtoull accepts a sign and wraps "-5"; demand digits only.
    if (*arg < '0' || *arg > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(arg, &end, 10);
    if (*end != '\0' || errno == ERANGE || v == 0)
        return false;
    *out = v;
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    using namespace nord;
    int design = 3;
    double rate = 0.05;
    Cycle cycles = 100000;
    if (argc > 4 || (argc > 1 && !parseInt(argv[1], &design)) ||
        (argc > 2 && !parseRate(argv[2], &rate)) ||
        (argc > 3 && !parseCycles(argv[3], &cycles))) {
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
