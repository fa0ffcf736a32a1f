/**
 * @file
 * nord-campaign: fault-tolerant simulation campaign runner.
 *
 * Expands a (design x workload x rate x faultRate x deadRouter x seed)
 * grid into a crash-resumable work queue, supervises a fleet of forked
 * workers (heartbeats, per-point hang kills, capped jittered retry
 * backoff, poison-point quarantine) and aggregates the results into
 * report.json / report.csv / provenance.json. See DESIGN.md section 5.9.
 *
 * There is one supervision loop, campaign::runExecutor, over one
 * campaign directory: the flock()ed journal DIR/journal.jsonl, the
 * worker artifacts and the reports all live in DIR. SIGKILL it at any
 * moment, rerun the same command line, and it resumes from its journal
 * to a byte-identical report; a second live run on the same DIR is
 * refused.
 *
 * Exit codes follow the campaign taxonomy (src/campaign/exit_codes.hh):
 * 0 when every point completed, 10 when any point was quarantined, 11
 * on a bad command line, 12 on orchestration failure or when stdout
 * cannot be written, 13 when drained by SIGINT/SIGTERM.
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
#include "common/log.hh"
#include "common/parse_number.hh"
#include "network/noc_config.hh"

namespace {

using namespace nord;
using namespace nord::campaign;

void
usage()
{
    std::printf(
        "usage: nord-campaign --out DIR [grid options]\n"
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
        "  --dead-routers LIST  comma list of node ids (or none) whose\n"
        "                       router is dead from cycle 0 (default\n"
        "                       none); such a point has no delivery\n"
        "                       gate\n"
        "  --seeds LIST         simulation seeds (default 1)\n"
        "  --rows R --cols C    mesh shape (default 4x4)\n"
        "  --cycles N           synthetic measurement window (default\n"
        "                       2000)\n"
        "  --min-delivered F    delivery-fraction gate; below it a point\n"
        "                       fails deterministically and quarantines\n"
        "\n"
        "supervision options:\n"
        "  --out DIR            campaign directory: journal, worker\n"
        "                       checkpoints/results and reports. A\n"
        "                       second live run on the same DIR is\n"
        "                       refused\n"
        "  --workers N          concurrent workers (default 2)\n"
        "  --max-failures K     counted failures before quarantine\n"
        "                       (default 3)\n"
        "  --hang-timeout SEC   heartbeat starvation kill (default 30)\n"
        "  --checkpoint-every N worker full-checkpoint period in cycles\n"
        "                       (default 5000); between full saves the\n"
        "                       worker touches the file every 500 cycles\n"
        "                       as its heartbeat\n"
        "  --backoff-initial S  first retry delay (default 0.25)\n"
        "  --backoff-max S      retry delay cap (default 30)\n"
        "\n"
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

/** A non-empty comma list of numbers. */
template <typename T>
bool
parseNumberList(const std::string &arg, std::vector<T> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        T v{};
        if (!parseNumber(s, &v))
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

/** A comma list of node ids, `none` standing for kInvalidNode. */
bool
parseNodeList(const std::string &arg, std::vector<NodeId> *out)
{
    out->clear();
    for (const std::string &s : splitList(arg)) {
        int v = kInvalidNode;
        if (s != "none" && !(parseNumber(s, &v) && v >= 0))
            return false;
        out->push_back(v);
    }
    return !out->empty();
}

/** @p code, or kExitInfraFailure when stdout could not be written. */
int
stdoutStatus(int code = kExitOk)
{
    return flushStdout() ? code : kExitInfraFailure;
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
    bool list = false;

    auto needValue = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(kExitBadConfig);
        }
        return argv[i + 1];
    };
    // Parse argv[i + 1] as the scalar value of flag argv[i], or exit.
    auto scalar = [&](int i, auto *out) {
        if (!parseNumber(needValue(i), out)) {
            std::fprintf(stderr, "bad %s value '%s'\n", argv[i],
                         argv[i + 1]);
            std::exit(kExitBadConfig);
        }
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            return stdoutStatus();
        } else if (a == "--list") {
            list = true;
        } else if (a == "--out") {
            opts.outDir = needValue(i);
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
            if (!parseNumberList(needValue(i), &grid.rates)) {
                std::fprintf(stderr, "bad --rates list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--fault-rates") {
            if (!parseNumberList(needValue(i), &grid.faultRates)) {
                std::fprintf(stderr, "bad --fault-rates list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--dead-routers") {
            if (!parseNodeList(needValue(i), &grid.deadRouters)) {
                std::fprintf(stderr, "bad --dead-routers list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--seeds") {
            if (!parseNumberList(needValue(i), &grid.seeds)) {
                std::fprintf(stderr, "bad --seeds list\n");
                return kExitBadConfig;
            }
            ++i;
        } else if (a == "--rows") {
            scalar(i, &grid.rows);
            ++i;
        } else if (a == "--cols") {
            scalar(i, &grid.cols);
            ++i;
        } else if (a == "--cycles") {
            scalar(i, &grid.measure);
            ++i;
        } else if (a == "--min-delivered") {
            scalar(i, &grid.minDelivered);
            ++i;
        } else if (a == "--workers") {
            scalar(i, &opts.workers);
            ++i;
        } else if (a == "--max-failures") {
            scalar(i, &opts.maxFailures);
            ++i;
        } else if (a == "--hang-timeout") {
            scalar(i, &opts.hangTimeoutSec);
            ++i;
        } else if (a == "--checkpoint-every") {
            scalar(i, &opts.worker.checkpointEvery);
            ++i;
        } else if (a == "--backoff-initial") {
            scalar(i, &opts.backoff.initialSec);
            ++i;
        } else if (a == "--backoff-max") {
            scalar(i, &opts.backoff.maxSec);
            ++i;
        } else {
            std::fprintf(stderr, "unknown option '%s' (--help)\n",
                         a.c_str());
            return kExitBadConfig;
        }
    }

    // --rows and --cols may follow --dead-routers.
    const long long nodes = static_cast<long long>(grid.rows) * grid.cols;
    for (NodeId id : grid.deadRouters) {
        if (id != kInvalidNode && id >= nodes) {
            std::fprintf(stderr,
                         "bad --dead-routers id %d: the %dx%d mesh has "
                         "nodes 0..%lld\n",
                         id, grid.rows, grid.cols, nodes - 1);
            return kExitBadConfig;
        }
    }

    const std::vector<PointSpec> specs = expandGrid(grid);

    if (list) {
        for (const PointSpec &spec : specs)
            std::printf("%s\n", specJson(spec).c_str());
        return stdoutStatus();
    }
    if (opts.outDir.empty()) {
        std::fprintf(stderr, "--out DIR is required (--help)\n");
        return kExitBadConfig;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "the grid is empty\n");
        return kExitBadConfig;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ExecutorOutcome out;
    std::string err;
    if (!runExecutor(specs, opts, &out, &err)) {
        std::fprintf(stderr, "campaign failed: %s\n", err.c_str());
        return kExitInfraFailure;
    }
    std::printf("nord-campaign: completed %llu, quarantined %llu, "
                "missing %llu (launched %llu)\n",
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.quarantined),
                static_cast<unsigned long long>(out.missing),
                static_cast<unsigned long long>(out.launches));
    if (out.interrupted) {
        std::printf("nord-campaign: drained by signal; rerun the same "
                    "command to resume\n");
        return stdoutStatus(kExitInterrupted);
    }
    if (out.wroteReports)
        std::printf("nord-campaign: report %s\n", out.reportJson.c_str());
    return stdoutStatus(out.quarantined > 0 ? kExitGateFailure : kExitOk);
}
