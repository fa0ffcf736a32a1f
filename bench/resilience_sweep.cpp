/**
 * @file
 * Resilience sweep: delivered fraction, tail latency and energy overhead
 * of the four designs under an escalating transient-fault campaign, plus
 * a permanently dead router scenario.
 *
 * Every configuration runs with the end-to-end reliability layer on and
 * the invariant auditor in recover mode, so the numbers measure the cost
 * of *successful* recovery, not silent corruption. Each run is one JSON
 * line: scenario, design, faultRate, the recordJson() members of a
 * campaign result line, then retransmits, recovered, flitsEaten and
 * energyOverhead. A short human-readable table follows on stderr.
 *
 * Expected shape: all designs hold 100% delivery through retransmission
 * at 1e-4 transients/link/cycle with a latency tail and a small energy
 * overhead that grow with the fault rate. With a dead router, NoRD keeps
 * the victim's node reachable over the bypass ring (delivered fraction
 * stays 1.0) while the baselines can only eat what routes into the dead
 * router and account the loss.
 *
 *   --out=FILE             write the JSON lines to FILE instead of stdout
 *   --min-delivered=F      fail when a zero-fault-rate transient run
 *                          delivers less than this fraction
 *                          (default 0.99)
 *
 * Crash-resumable fault campaigns are `nord-campaign --fault-rates ...`
 * (DESIGN.md section 5.9). Exit codes follow the campaign taxonomy
 * (src/campaign/exit_codes.hh): 10 = the delivery gate failed, 11 = bad
 * arguments, 12 = the JSON lines could not be written (to FILE or stdout).
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign_point.hh"
#include "campaign/exit_codes.hh"

namespace {

using namespace nord;
using namespace nord::bench;

/** One run of the sweep: its scenario and, once run, its record. */
struct SweepRun
{
    PgDesign design = PgDesign::kNoPg;
    double rate = 0.0;
    NodeId deadRouter = kInvalidNode;
    RunRecord rec;

    const char *scenario() const
    {
        return deadRouter != kInvalidNode ? "dead-router" : "transient";
    }

    /** The fault-free transient run that gates delivery. */
    bool isBaseline() const
    {
        return deadRouter == kInvalidNode && rate == 0.0;
    }
};

RunRecord
runSweepPoint(const SweepRun &run, int rows, int cols, Cycle measure)
{
    NocConfig cfg = makeShippedConfig(run.design, rows, cols);
    campaign::enableFaults(cfg, run.rate);
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 1);
    if (run.deadRouter != kInvalidNode)
        sys.killRouter(run.deadRouter);
    sys.setWorkload(&traffic);
    sys.run(measure);
    sys.setWorkload(nullptr);  // stop injecting, let recovery finish
    if (!sys.completionReached())
        sys.runTowardCompletion(measure + 500000);
    return recordRun(sys);
}

/** Read the flags; false (after a diagnostic) on bad input. */
bool
parseArgs(int argc, char **argv, std::string *outPath,
          double *minDelivered)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--out=", 6) == 0) {
            *outPath = arg + 6;
            continue;
        }
        if (std::strncmp(arg, "--min-delivered=", 16) != 0) {
            std::fprintf(stderr, "unknown argument: %s\n", arg);
            return false;
        }
        // Whole-string strtod, as nord-campaign parses its flags.
        const char *v = arg + 16;
        char *end = nullptr;
        errno = 0;
        *minDelivered = std::strtod(v, &end);
        if (*v == '\0' || *end != '\0' || errno == ERANGE ||
            !std::isfinite(*minDelivered)) {
            std::fprintf(stderr, "bad --min-delivered value '%s'\n", v);
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    double minDelivered = 0.99;
    if (!parseArgs(argc, argv, &outPath, &minDelivered))
        return campaign::kExitBadConfig;

    const bool quick = quickMode();
    const int rows = quick ? 4 : 8;
    const int cols = rows;
    const Cycle measure = quick ? 2000 : 5000;
    const NodeId center =
        static_cast<NodeId>((rows / 2) * cols + cols / 2);
    const std::vector<double> rates = quick
        ? std::vector<double>{0.0, 1e-4}
        : std::vector<double>{0.0, 1e-5, 1e-4, 1e-3};

    std::vector<SweepRun> runs;
    for (int d = 0; d < 4; ++d) {
        for (double rate : rates)
            runs.push_back({static_cast<PgDesign>(d), rate, kInvalidNode, {}});
        // Permanently dead center router, no transients on top.
        runs.push_back({static_cast<PgDesign>(d), 0.0, center, {}});
    }

    std::fprintf(stderr,
                 "=== Resilience sweep: %dx%d mesh, %llu cycles/run ===\n",
                 rows, cols, static_cast<unsigned long long>(measure));
    double baselineJ[4] = {0, 0, 0, 0};
    for (SweepRun &run : runs) {
        run.rec = runSweepPoint(run, rows, cols, measure);
        if (run.isBaseline())
            baselineJ[static_cast<int>(run.design)] = run.rec.energy.total();
        if (run.deadRouter != kInvalidNode)
            std::fprintf(stderr, "  [sweep] %s done\n",
                         pgDesignName(run.design));
    }

    // Emit the JSON lines in run order, with each design's energy
    // overhead normalized to its own zero-rate transient run.
    std::FILE *out = stdout;
    if (!outPath.empty()) {
        out = std::fopen(outPath.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         outPath.c_str());
            return campaign::kExitInfraFailure;
        }
    }
    for (const SweepRun &run : runs) {
        const RunRecord &r = run.rec;
        const double baseJ = baselineJ[static_cast<int>(run.design)];
        std::fprintf(out,
                     "{\"scenario\":\"%s\",\"design\":\"%s\","
                     "\"faultRate\":%g,%s,\"retransmits\":%llu,"
                     "\"recovered\":%llu,\"flitsEaten\":%llu,"
                     "\"energyOverhead\":%.4f}\n",
                     run.scenario(), pgDesignName(run.design), run.rate,
                     recordJson(r).c_str(),
                     static_cast<unsigned long long>(r.retransmits),
                     static_cast<unsigned long long>(r.recovered),
                     static_cast<unsigned long long>(r.flitsEaten),
                     baseJ > 0 ? r.energy.total() / baseJ : 1.0);
    }
    // Write errors (ENOSPC on /dev/full, a closed pipe) surface at the
    // flush or close, not at the fprintf calls.
    const bool failed = std::fflush(out) != 0 || std::ferror(out) != 0;
    if ((out != stdout && std::fclose(out) != 0) || failed) {
        std::fprintf(stderr, "cannot write %s\n",
                     outPath.empty() ? "stdout" : outPath.c_str());
        return campaign::kExitInfraFailure;
    }

    std::fprintf(stderr, "\n%-12s %-12s %9s %10s %9s %9s\n", "design",
                 "scenario", "rate", "delivered", "p99", "retrans");
    for (const SweepRun &run : runs) {
        std::fprintf(stderr, "%-12s %-12s %9g %9.2f%% %9.1f %9llu\n",
                     pgDesignName(run.design), run.scenario(), run.rate,
                     100.0 * run.rec.deliveredFraction, run.rec.p99Latency,
                     static_cast<unsigned long long>(run.rec.retransmits));
    }

    // Delivery gate: a fault-free run that loses packets is a regression,
    // not noise.
    int exitCode = 0;
    for (const SweepRun &run : runs) {
        const double delivered = run.rec.deliveredFraction;
        if (!run.isBaseline() || delivered >= minDelivered)
            continue;
        std::fprintf(stderr,
                     "FAIL: %s delivered %.4f < --min-delivered "
                     "%.4f at fault rate 0\n",
                     pgDesignName(run.design), delivered, minDelivered);
        exitCode = campaign::kExitGateFailure;
    }
    return exitCode;
}
