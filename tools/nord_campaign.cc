/**
 * @file
 * nord-campaign: fault-tolerant simulation campaign runner.
 *
 * Expands a (design x workload x rate x faultRate x seed) grid into a
 * crash-resumable work queue, supervises a fleet of forked workers
 * (heartbeats, per-point hang kills, capped jittered retry backoff,
 * poison-point quarantine) and aggregates the results into
 * report.json / report.csv / provenance.json. See DESIGN.md section 5.9.
 *
 * There is one supervision loop, campaign::runExecutor. --out DIR runs
 * it as a fleet of one: executor id "local", worker artifacts directly
 * in DIR. SIGKILL it at any moment, rerun the same command line, and it
 * resumes from its journal to a byte-identical report. With --join, any
 * number of nord-campaign processes (same host or different machines
 * over a shared filesystem) cooperatively drain the SAME campaign
 * directory: work is claimed through per-shard lease files with
 * monotonic fencing tokens, an executor that loses its lease self-fences
 * and exits kExitLeaseLost, and a deterministic merge of the
 * per-executor journals keeps report.json / report.csv byte-identical
 * regardless of fleet membership history.
 *
 * Exit codes follow the campaign taxonomy (src/campaign/exit_codes.hh):
 * 0 when every point completed, 10 when any point was quarantined, 12
 * on orchestration failure, 13 when drained by SIGINT/SIGTERM, 14 when
 * this executor lost a shard lease and self-fenced.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/executor.hh"
#include "campaign/exit_codes.hh"
#include "campaign/orchestrator.hh"
#include "verify/static/config_registry.hh"

namespace {

using namespace nord;
using namespace nord::campaign;

void
usage()
{
    std::printf(
        "usage: nord-campaign (--out DIR | --join DIR) [grid options]\n"
        "                     [supervision options]\n"
        "\n"
        "Runs (or resumes) a crash-resumable simulation campaign: the\n"
        "grid is expanded into a journaled work queue, each point runs\n"
        "as a supervised, checkpointing worker process, failures retry\n"
        "with capped jittered backoff, and deterministic failures are\n"
        "quarantined as poison with diagnostics. Rerunning the same\n"
        "command resumes from the journal and reproduces the report\n"
        "byte-for-byte.\n"
        "\n"
        "grid options:\n"
        "  --designs LIST       comma list of nopg|convpg|convpgopt|nord\n"
        "                       (default nord)\n"
        "  --patterns LIST      comma list of uniform_random|\n"
        "                       bit_complement|transpose|hotspot\n"
        "                       (default uniform_random)\n"
        "  --parsec LIST        comma list of PARSEC benchmark names\n"
        "                       (closed loop; added alongside patterns)\n"
        "  --rates LIST         synthetic injection rates (default 0.10)\n"
        "  --fault-rates LIST   transient fault rates (default 0)\n"
        "  --seeds LIST         simulation seeds (default 1)\n"
        "  --rows R --cols C    mesh shape (default 4x4)\n"
        "  --cycles N           synthetic measurement window (default\n"
        "                       2000)\n"
        "  --min-delivered F    delivery-fraction gate; below it a point\n"
        "                       fails deterministically and quarantines\n"
        "\n"
        "supervision options:\n"
        "  --out DIR            run the campaign in DIR as a fleet of one\n"
        "                       (executor id \"local\"; checkpoints and\n"
        "                       results go straight into DIR). A second\n"
        "                       live --out on the same DIR is refused.\n"
        "                       Rerunning after a SIGKILL may first wait\n"
        "                       one lease grace for the old leases to\n"
        "                       expire; a run suspended longer than\n"
        "                       grace/2 self-fences (exit 14) and a rerun\n"
        "                       resumes it\n"
        "  --workers N          concurrent workers (default 2)\n"
        "  --max-failures K     counted failures before quarantine\n"
        "                       (default 3)\n"
        "  --hang-timeout SEC   heartbeat starvation kill (default 30)\n"
        "  --checkpoint-every N worker checkpoint period in cycles\n"
        "                       (default 500)\n"
        "  --backoff-initial S  first retry delay (default 0.25)\n"
        "  --backoff-max S      retry delay cap (default 30)\n"
        "\n"
        "multi-executor mode:\n"
        "  --join DIR           join (or start) the shared campaign in\n"
        "                       DIR: work is claimed shard-by-shard via\n"
        "                       lease files with fencing tokens, every\n"
        "                       executor appends to its own journal, and\n"
        "                       a deterministic merge yields the same\n"
        "                       report bytes as an --out run. Run the\n"
        "                       same command in N terminals (or on N\n"
        "                       machines over a shared filesystem) to\n"
        "                       drain the grid cooperatively\n"
        "  --executor-id ID     (--join only) stable executor id\n"
        "                       (default: generated from host/pid)\n"
        "  --shards N           shard count, first joiner only (default\n"
        "                       min(points, 8); later joiners adopt the\n"
        "                       manifest's)\n"
        "  --lease-grace SEC    observed silence before a lease steal,\n"
        "                       first joiner only (default 2)\n"
        "  --lease-renew SEC    heartbeat period (default grace/8)\n"
        "\n"
        "chaos self-test:\n"
        "  --chaos              kill random workers on a seeded schedule;\n"
        "                       kills are never counted against points,\n"
        "                       so the final report must be byte-identical\n"
        "                       to an undisturbed run's\n"
        "  --chaos-seed N       schedule seed (default 1)\n"
        "  --chaos-interval S   mean seconds between kills (default 0.5)\n"
        "  --chaos-max-kills N  stop killing after N (default unlimited)\n"
        "  --chaos-partition-mean S\n"
        "                       mean seconds between self-partitions:\n"
        "                       SIGSTOP this executor, let its leases\n"
        "                       expire, SIGCONT it and watch it\n"
        "                       self-fence (default off)\n"
        "  --chaos-partition-duration S\n"
        "                       suspension length (default 0)\n"
        "  --chaos-max-partitions N\n"
        "                       stop after N partitions (default 1)\n"
        "  --poison-points LIST point ids forced to fail their gate\n"
        "                       deterministically (quarantine test)\n"
        "  --hang-points LIST   point ids forced to stop heartbeating\n"
        "                       (hang-kill test)\n"
        "\n"
        "  --drain-after-launches N\n"
        "                       drain this executor after N worker\n"
        "                       launches -- deterministic handover\n"
        "                       testing (default off)\n"
        "  --list               print the expanded grid and exit\n"
        "  --help               this text\n");
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

bool
parseU64List(const std::string &arg, std::vector<std::uint64_t> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        if (!end || *end != '\0')
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

bool
parseDoubleList(const std::string &arg, std::vector<double> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        char *end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (!end || *end != '\0')
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

void
onSignal(int)
{
    requestCampaignDrain();
}

}  // namespace

int
main(int argc, char **argv)
{
    GridSpec grid;
    ExecutorOptions opts;
    std::vector<std::uint64_t> poisonIds;
    std::vector<std::uint64_t> hangIds;
    bool list = false;
    bool join = false;
    std::string executorId;

    auto needValue = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(kExitBadConfig);
        }
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--list") {
            list = true;
        } else if (a == "--out") {
            join = false;
            opts.outDir = needValue(i);
            ++i;
        } else if (a == "--join") {
            join = true;
            opts.outDir = needValue(i);
            ++i;
        } else if (a == "--executor-id") {
            executorId = needValue(i);
            ++i;
        } else if (a == "--shards") {
            opts.shards = std::strtoull(needValue(i), nullptr, 10);
            ++i;
        } else if (a == "--lease-grace") {
            opts.leaseGraceSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--lease-renew") {
            opts.leaseRenewSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--drain-after-launches") {
            opts.drainAfterLaunches =
                std::strtoull(needValue(i), nullptr, 10);
            ++i;
        } else if (a == "--designs") {
            grid.designs.clear();
            for (const std::string &name : splitList(needValue(i))) {
                PgDesign d = PgDesign::kNord;
                if (!parseDesignName(name, &d)) {
                    std::fprintf(stderr, "unknown design '%s'\n",
                                 name.c_str());
                    return kExitBadConfig;
                }
                grid.designs.push_back(d);
            }
            ++i;
        } else if (a == "--patterns") {
            grid.patterns.clear();
            for (const std::string &name : splitList(needValue(i))) {
                bool found = false;
                for (int p = 0; p <= 3; ++p) {
                    const auto tp = static_cast<TrafficPattern>(p);
                    if (name == trafficPatternName(tp)) {
                        grid.patterns.push_back(tp);
                        found = true;
                    }
                }
                if (!found) {
                    std::fprintf(stderr, "unknown pattern '%s'\n",
                                 name.c_str());
                    return kExitBadConfig;
                }
            }
            ++i;
        } else if (a == "--parsec") {
            grid.parsec = splitList(needValue(i));
            ++i;
        } else if (a == "--rates") {
            if (!parseDoubleList(needValue(i), &grid.rates)) {
                std::fprintf(stderr, "bad --rates list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--fault-rates") {
            if (!parseDoubleList(needValue(i), &grid.faultRates)) {
                std::fprintf(stderr, "bad --fault-rates list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--seeds") {
            if (!parseU64List(needValue(i), &grid.seeds)) {
                std::fprintf(stderr, "bad --seeds list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--rows") {
            grid.rows = std::atoi(needValue(i));
            ++i;
        } else if (a == "--cols") {
            grid.cols = std::atoi(needValue(i));
            ++i;
        } else if (a == "--cycles") {
            grid.measure =
                static_cast<Cycle>(std::strtoull(needValue(i), nullptr,
                                                 10));
            ++i;
        } else if (a == "--min-delivered") {
            grid.minDelivered = std::atof(needValue(i));
            ++i;
        } else if (a == "--workers") {
            opts.workers = std::atoi(needValue(i));
            ++i;
        } else if (a == "--max-failures") {
            opts.maxFailures = std::atoi(needValue(i));
            ++i;
        } else if (a == "--hang-timeout") {
            opts.hangTimeoutSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--checkpoint-every") {
            opts.worker.checkpointEvery =
                static_cast<Cycle>(std::strtoull(needValue(i), nullptr,
                                                 10));
            ++i;
        } else if (a == "--backoff-initial") {
            opts.backoff.initialSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--backoff-max") {
            opts.backoff.maxSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--chaos") {
            opts.chaos.enabled = true;
        } else if (a == "--chaos-seed") {
            opts.chaos.seed = std::strtoull(needValue(i), nullptr, 10);
            ++i;
        } else if (a == "--chaos-interval") {
            opts.chaos.meanIntervalSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--chaos-max-kills") {
            opts.chaos.maxKills = std::atoi(needValue(i));
            ++i;
        } else if (a == "--chaos-partition-mean") {
            opts.chaos.partitionMeanSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--chaos-partition-duration") {
            opts.chaos.partitionDurationSec = std::atof(needValue(i));
            ++i;
        } else if (a == "--chaos-max-partitions") {
            opts.chaos.maxPartitions = std::atoi(needValue(i));
            ++i;
        } else if (a == "--poison-points") {
            if (!parseU64List(needValue(i), &poisonIds)) {
                std::fprintf(stderr, "bad --poison-points list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--hang-points") {
            if (!parseU64List(needValue(i), &hangIds)) {
                std::fprintf(stderr, "bad --hang-points list\n");
                return kExitBadConfig;
            }
            ++i;
        } else {
            std::fprintf(stderr, "unknown option '%s' (--help)\n",
                         a.c_str());
            return kExitBadConfig;
        }
    }

    std::vector<PointSpec> specs = expandGrid(grid);
    for (std::uint64_t id : poisonIds) {
        if (id < specs.size())
            specs[id].selfTest = SelfTest::kPoison;
    }
    for (std::uint64_t id : hangIds) {
        if (id < specs.size())
            specs[id].selfTest = SelfTest::kHang;
    }

    if (list) {
        for (const PointSpec &spec : specs)
            std::printf("%s\n", specJson(spec).c_str());
        return 0;
    }
    if (opts.outDir.empty()) {
        std::fprintf(stderr, "--out DIR or --join DIR is required "
                             "(--help)\n");
        return kExitBadConfig;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "the grid is empty\n");
        return kExitBadConfig;
    }

    // An unbounded chaos schedule that fires faster than the hang
    // timeout livelocks any hang point: the chaos kill always lands
    // before the heartbeat timeout, is never counted, and the point
    // relaunches forever. Warn rather than refuse -- grids without hang
    // points are fine -- but make the trap visible up front.
    if (opts.chaos.enabled && opts.chaos.maxKills == 0 &&
        opts.chaos.meanIntervalSec < opts.hangTimeoutSec) {
        std::fprintf(stderr,
                     "warning: --chaos-interval (%.3gs) is below "
                     "--hang-timeout (%.3gs) with no --chaos-max-kills; "
                     "hang points can be killed forever without ever "
                     "being counted\n",
                     opts.chaos.meanIntervalSec, opts.hangTimeoutSec);
    }

    // --out is a fleet of one whose worker artifacts live in DIR itself.
    if (join) {
        opts.execId = executorId;
    } else {
        opts.execId = "local";
        opts.artifactDir = opts.outDir;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ExecutorOutcome out;
    std::string err;
    if (!runExecutor(specs, opts, &out, &err)) {
        std::fprintf(stderr, "campaign failed: %s\n", err.c_str());
        return kExitInfraFailure;
    }
    std::printf("nord-campaign[%s]: completed %llu, quarantined %llu, "
                "missing %llu (launched %llu, %llu chaos kill(s), %llu "
                "partition(s), %llu stale commit(s) dropped)\n",
                out.execId.c_str(),
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.quarantined),
                static_cast<unsigned long long>(out.missing),
                static_cast<unsigned long long>(out.launches),
                static_cast<unsigned long long>(out.chaosKills),
                static_cast<unsigned long long>(out.partitions),
                static_cast<unsigned long long>(out.staleDropped));
    if (out.fenced) {
        std::fprintf(stderr,
                     "nord-campaign[%s]: lease lost (%s); rerun to resume, "
                     "or let another executor retry the shard\n",
                     out.execId.c_str(), out.fenceReason.c_str());
        return kExitLeaseLost;
    }
    if (out.interrupted) {
        std::printf("nord-campaign: drained by signal; rerun the same "
                    "command to resume\n");
        return kExitInterrupted;
    }
    if (out.wroteReports)
        std::printf("nord-campaign: report %s\n", out.reportJson.c_str());
    return out.quarantined > 0 ? kExitGateFailure : kExitOk;
}
