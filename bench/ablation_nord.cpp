/**
 * @file
 * Ablation study of NoRD's design choices (beyond the paper's figures):
 * what do the performance-centric class, the steering table, and the
 * asymmetric thresholds each contribute?
 *
 * Variants:
 *   full        - the complete NoRD design (defaults)
 *   no-perf     - no performance-centric class (uniform high threshold)
 *   all-perf    - every router performance-centric (threshold 1)
 *   uniform-thr - asymmetry off: one mid threshold and guard everywhere
 *   perf-10     - a larger performance-centric class (10 routers)
 *
 * Printed per variant: packet latency, wakeups, gated-off fraction and
 * static energy (normalized to No_PG) on a mid-load PARSEC mix.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace nord;
    using namespace nord::bench;

    const char *benchmarks[] = {"canneal", "fluidanimate", "x264"};

    struct Variant
    {
        const char *name;
        void (*apply)(NocConfig &);
    };
    const Variant variants[] = {
        {"full", [](NocConfig &) {}},
        {"no-perf", [](NocConfig &c) { c.nordPerfCentricCount = 0; }},
        {"all-perf", [](NocConfig &c) {
             c.nordPerfCentricCount = c.numNodes();
         }},
        {"uniform-thr", [](NocConfig &c) {
             c.nordPerfThreshold = 2;
             c.nordPowerThreshold = 2;
             c.nordPerfSleepGuard = 6;
             c.nordPowerSleepGuard = 6;
         }},
        {"perf-10", [](NocConfig &c) { c.nordPerfCentricCount = 10; }},
    };

    std::printf("=== NoRD ablation (PARSEC mix: canneal, fluidanimate, "
                "x264) ===\n");
    std::printf("%-12s %9s %9s %8s %9s\n", "variant", "latency",
                "wakeups", "off%", "staticE%");
    for (const Variant &v : variants) {
        double lat = 0.0;
        double off = 0.0;
        double staticFrac = 0.0;
        std::uint64_t wakeups = 0;
        for (const char *name : benchmarks) {
            const ParsecParams &p = parsecByName(name);
            NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
            v.apply(cfg);
            RunRecord r = runParsec(cfg, p);
            RunRecord base =
                runParsec(makeShippedConfig(PgDesign::kNoPg, 4, 4), p);
            lat += r.avgLatency;
            off += r.offFraction;
            wakeups += r.wakeups;
            staticFrac += r.staticEnergy() / base.staticEnergy();
        }
        const double n = 3.0;
        std::printf("%-12s %9.2f %9llu %7.1f%% %8.1f%%\n", v.name,
                    lat / n, static_cast<unsigned long long>(wakeups),
                    100.0 * off / n, 100.0 * staticFrac / n);
    }
    std::printf("\nExpected: 'no-perf' trades latency for off-time; "
                "'all-perf' the reverse;\n'full' sits at the paper's "
                "balance point (Section 4.4).\n");
    return 0;
}
