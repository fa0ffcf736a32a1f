/**
 * @file
 * Section 3.1 / 3.2 (and Figure 3) reproduction: router idleness and
 * idle-period fragmentation under the PARSEC workload models.
 *
 * Paper anchors: routers idle 30%~70% of the time (x264 lowest at 30.4%,
 * blackscholes highest at 71.2%); more than 61% of idle periods are at or
 * below the 10-cycle breakeven time.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    std::printf("=== Section 3.1/3.2: router idleness under No_PG ===\n");
    std::printf("%-14s %8s %10s %12s %12s\n", "benchmark", "idle%",
                "<=BET%", "inj(f/n/c)", "exec(cyc)");

    double idleSum = 0.0;
    double betSum = 0.0;
    double minIdle = 1.0;
    double maxIdle = 0.0;
    std::string minName;
    std::string maxName;
    for (const ParsecParams &p : parsecSuite()) {
        RunRecord r = runParsec(makeShippedConfig(PgDesign::kNoPg, 4, 4), p);
        const double inj = static_cast<double>(r.delivered) * 3.0 /
                           (16.0 * static_cast<double>(r.cycles));
        std::printf("%-14s %7.1f%% %9.1f%% %12.4f %12llu\n",
                    p.name.c_str(), 100.0 * r.idleFraction,
                    100.0 * r.idleLeqBet, inj,
                    static_cast<unsigned long long>(r.cycles));
        idleSum += r.idleFraction;
        betSum += r.idleLeqBet;
        if (r.idleFraction < minIdle) {
            minIdle = r.idleFraction;
            minName = p.name;
        }
        if (r.idleFraction > maxIdle) {
            maxIdle = r.idleFraction;
            maxName = p.name;
        }
    }
    const double n = static_cast<double>(parsecSuite().size());
    std::printf("\naverage idleness: %.1f%%\n", 100.0 * idleSum / n);
    std::printf("lowest: %s %.1f%% (paper: x264 30.4%%)\n",
                minName.c_str(), 100.0 * minIdle);
    std::printf("highest: %s %.1f%% (paper: blackscholes 71.2%%)\n",
                maxName.c_str(), 100.0 * maxIdle);
    std::printf("idle periods <= BET: %.1f%% of all periods "
                "(paper: > 61%%)\n", 100.0 * betSum / n);
    return 0;
}
