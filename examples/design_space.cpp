/**
 * @file
 * Example: design-space exploration with the public API -- sweep buffer
 * depth, VC count, wakeup latency and the aggressive bypass, and report
 * latency / energy for NoRD under a PARSEC-like load.
 *
 * Usage: design_space [benchmark]   (default: ferret)
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

    const ParsecParams &params =
        parsecByName(argc > 1 ? argv[1] : "ferret");

    struct Variant
    {
        const char *name;
        void (*apply)(NocConfig &);
    };
    const Variant variants[] = {
        {"baseline (Table 1)", [](NocConfig &) {}},
        {"shallow buffers (2)", [](NocConfig &c) { c.bufferDepth = 2; }},
        {"deep buffers (10)", [](NocConfig &c) { c.bufferDepth = 10; }},
        {"6 VCs (4 adaptive)", [](NocConfig &c) {
             c.numVcs = 6;
             c.numEscapeVcs = 2;
         }},
        {"slow wakeup (20)", [](NocConfig &c) { c.wakeupLatency = 20; }},
        {"aggressive bypass",
         [](NocConfig &c) { c.nordAggressiveBypass = true; }},
        {"no perf-centric",
         [](NocConfig &c) { c.nordPerfCentricCount = 0; }},
    };

    std::vector<bench::Point> points;
    for (const Variant &v : variants) {
        NocConfig cfg;
        cfg.design = PgDesign::kNord;
        v.apply(cfg);
        points.push_back({.cfg = cfg, .parsec = &params});
    }
    bench::runPoints(points);

    std::printf("=== NoRD design space on %s ===\n", params.name.c_str());
    std::printf("%-22s %10s %12s\n", "variant", "latency", "energy(uJ)");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunRecord &r = points[i].rec;
        std::printf("%-22s %10.2f %12.2f\n", variants[i].name, r.avgLatency,
                    r.energy.total() * 1e6 /* uJ */);
    }
    return bench::stdoutStatus();
}
