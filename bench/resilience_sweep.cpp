/**
 * @file
 * Resilience sweep: delivered fraction, tail latency and energy overhead
 * of the four designs under an escalating transient-fault campaign, plus
 * a permanently dead router scenario.
 *
 * Every configuration runs with the end-to-end reliability layer on and
 * the invariant auditor in recover mode, so the numbers measure the cost
 * of *successful* recovery, not silent corruption. Results are emitted as
 * JSON lines (one object per run) for downstream plotting, with a short
 * human-readable table at the end.
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
 * arguments, 12 = the output file could not be written.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "campaign/exit_codes.hh"

namespace {

using namespace nord;
using namespace nord::bench;

struct SweepResult
{
    std::string scenario;
    PgDesign design = PgDesign::kNoPg;
    double rate = 0.0;
    std::uint64_t created = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t recovered = 0;
    std::uint64_t eaten = 0;
    std::uint64_t injectedFaults = 0;
    bool drained = false;
    double avgLatency = 0.0;
    double p99Latency = 0.0;
    double offFraction = 0.0;
    double energyJ = 0.0;

    double deliveredFraction() const
    {
        return created > 0
            ? static_cast<double>(delivered) / static_cast<double>(created)
            : 1.0;
    }
};

/** One run of the sweep. */
struct RunSpec
{
    PgDesign design = PgDesign::kNoPg;
    double rate = 0.0;
    NodeId deadRouter = kInvalidNode;
};

struct Options
{
    std::string outPath;
    double minDelivered = 0.99;
};

NocConfig
runConfig(const RunSpec &spec, int rows, int cols)
{
    NocConfig cfg = makeConfig(spec.design, rows, cols);
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = spec.rate;
    cfg.fault.flitDropRate = spec.rate;
    cfg.verify.interval = 256;
    cfg.verify.policy = AuditPolicy::kRecover;
    return cfg;
}

SweepResult
runSweepPoint(const RunSpec &spec, int rows, int cols, Cycle measure,
              const PowerModel &pm)
{
    NocSystem sys(runConfig(spec, rows, cols));
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 1);
    if (spec.deadRouter != kInvalidNode)
        sys.killRouter(spec.deadRouter);
    sys.setWorkload(&traffic);
    sys.run(measure);
    sys.setWorkload(nullptr);  // stop injecting, let recovery finish

    SweepResult r;
    r.scenario =
        spec.deadRouter != kInvalidNode ? "dead-router" : "transient";
    r.design = spec.design;
    r.rate = spec.rate;
    r.drained = sys.completionReached() ||
                sys.runTowardCompletion(measure + 500000);
    sys.finalizeStats();

    const RunResult run = summarize(sys, pm);
    const NetworkStats &st = sys.stats();
    const FlowStats flows = st.flowTotals();
    r.created = st.packetsCreated();
    r.delivered = st.packetsDelivered();
    r.failed = st.packetsFailed();
    r.retransmits = flows.retransmits;
    r.recovered = flows.recovered;
    r.eaten = st.flitsEaten();
    r.injectedFaults = sys.injector()->counts().total();
    r.avgLatency = run.avgLatency;
    r.p99Latency = st.latencyPercentile(0.99);
    r.offFraction = run.offFraction;
    r.energyJ = run.energy.total();
    return r;
}

void
emitJson(std::FILE *out, const SweepResult &r, double energyBaselineJ)
{
    std::fprintf(
        out,
        "{\"scenario\":\"%s\",\"design\":\"%s\",\"faultRate\":%g,"
        "\"created\":%llu,\"delivered\":%llu,\"failed\":%llu,"
        "\"deliveredFraction\":%.6f,\"retransmits\":%llu,"
        "\"recovered\":%llu,\"flitsEaten\":%llu,\"injectedFaults\":%llu,"
        "\"drained\":%s,\"avgLatency\":%.3f,\"p99Latency\":%.3f,"
        "\"offFraction\":%.4f,\"energyJ\":%.6e,\"energyOverhead\":%.4f}\n",
        r.scenario.c_str(), pgDesignName(r.design), r.rate,
        static_cast<unsigned long long>(r.created),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.failed), r.deliveredFraction(),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.recovered),
        static_cast<unsigned long long>(r.eaten),
        static_cast<unsigned long long>(r.injectedFaults),
        r.drained ? "true" : "false", r.avgLatency, r.p99Latency,
        r.offFraction, r.energyJ,
        energyBaselineJ > 0 ? r.energyJ / energyBaselineJ : 1.0);
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *flag) -> const char * {
            const size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0 && arg.size() > n &&
                arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (const char *v = value("--out")) {
            opt->outPath = v;
        } else if (const char *v = value("--min-delivered")) {
            opt->minDelivered = std::atof(v);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt))
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

    std::vector<RunSpec> specs;
    for (int d = 0; d < 4; ++d) {
        for (double rate : rates)
            specs.push_back({static_cast<PgDesign>(d), rate,
                             kInvalidNode});
        // Permanently dead center router, no transients on top.
        specs.push_back({static_cast<PgDesign>(d), 0.0, center});
    }

    std::fprintf(stderr,
                 "=== Resilience sweep: %dx%d mesh, %llu cycles/run ===\n",
                 rows, cols, static_cast<unsigned long long>(measure));
    PowerModel pm;
    std::vector<SweepResult> results;
    for (const RunSpec &spec : specs) {
        results.push_back(runSweepPoint(spec, rows, cols, measure, pm));
        if (spec.deadRouter != kInvalidNode)
            std::fprintf(stderr, "  [sweep] %s done\n",
                         pgDesignName(spec.design));
    }

    // Emit the JSON lines in run order, with each design's energy
    // overhead normalized to its own zero-rate transient run.
    std::FILE *out = stdout;
    if (!opt.outPath.empty()) {
        out = std::fopen(opt.outPath.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         opt.outPath.c_str());
            return campaign::kExitInfraFailure;
        }
    }
    double baselineJ[4] = {0, 0, 0, 0};
    for (const SweepResult &r : results) {
        if (r.scenario == "transient" && r.rate == 0.0)
            baselineJ[static_cast<int>(r.design)] = r.energyJ;
    }
    for (const SweepResult &r : results)
        emitJson(out, r, baselineJ[static_cast<int>(r.design)]);
    if (out != stdout)
        std::fclose(out);

    std::fprintf(stderr, "\n%-12s %-12s %9s %10s %9s %9s\n", "design",
                 "scenario", "rate", "delivered", "p99", "retrans");
    for (const SweepResult &r : results) {
        std::fprintf(stderr, "%-12s %-12s %9g %9.2f%% %9.1f %9llu\n",
                     pgDesignName(r.design), r.scenario.c_str(), r.rate,
                     100.0 * r.deliveredFraction(), r.p99Latency,
                     static_cast<unsigned long long>(r.retransmits));
    }

    // Delivery gate: a fault-free run that loses packets is a regression,
    // not noise -- fail loudly so CI catches it.
    int exitCode = 0;
    for (const SweepResult &r : results) {
        if (r.scenario != "transient" || r.rate != 0.0)
            continue;
        if (r.deliveredFraction() < opt.minDelivered) {
            std::fprintf(stderr,
                         "FAIL: %s delivered %.4f < --min-delivered "
                         "%.4f at fault rate 0\n",
                         pgDesignName(r.design), r.deliveredFraction(),
                         opt.minDelivered);
            exitCode = campaign::kExitGateFailure;
        }
    }
    return exitCode;
}
