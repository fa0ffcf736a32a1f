/**
 * @file
 * nord-campaign: resumable simulation campaign runner.
 *
 * Expands a (design x workload x rate x faultRate x deadRouter x seed)
 * grid into points, runs each in its own forked worker process
 * (campaign::runCampaign) and aggregates the results into report.json /
 * report.csv. See DESIGN.md section 5.9.
 *
 * The worker artifacts and the reports all live in one campaign
 * directory DIR. Kill the run at any moment, rerun the same command
 * line, and it skips the finished points and resumes the others from
 * their checkpoints to a byte-identical report; a second live run on
 * the same DIR, or a run of a different grid on it, is refused.
 *
 * Exit codes follow the campaign taxonomy (src/campaign/exit_codes.hh):
 * 0 when every point completed, 10 when any point was quarantined, 11
 * on a bad command line, 12 on a campaign failure or when stdout cannot
 * be written.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
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
        "usage: nord-campaign --out DIR [--workers N] [grid options]\n"
        "\n"
        "Runs (or resumes) a simulation campaign: each point of the grid\n"
        "runs as its own checkpointing worker process, and a point whose\n"
        "worker fails is quarantined at once with its exit code or\n"
        "signal. Rerunning the same command skips the finished points,\n"
        "resumes the others from their checkpoints and reproduces the\n"
        "report byte-for-byte.\n"
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
        "run options:\n"
        "  --out DIR            campaign directory: worker checkpoints\n"
        "                       (every 5000 cycles) and results, and\n"
        "                       the reports. A second live run on DIR,\n"
        "                       or a run of another grid, is refused\n"
        "  --workers N          concurrent workers (default 2)\n"
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

}  // namespace

int
main(int argc, char **argv)
{
    GridSpec grid;
    std::string outDir;
    int workers = 2;
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
            outDir = needValue(i);
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
            scalar(i, &workers);
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
    if (outDir.empty()) {
        std::fprintf(stderr, "--out DIR is required (--help)\n");
        return kExitBadConfig;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "the grid is empty\n");
        return kExitBadConfig;
    }

    CampaignOutcome out;
    std::string err;
    if (!runCampaign(specs, outDir, workers, &out, &err)) {
        std::fprintf(stderr, "campaign failed: %s\n", err.c_str());
        return kExitInfraFailure;
    }
    std::printf("nord-campaign: completed %llu, quarantined %llu, "
                "missing %llu (launched %llu)\n",
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.quarantined),
                static_cast<unsigned long long>(out.missing),
                static_cast<unsigned long long>(out.launches));
    std::printf("nord-campaign: report %s\n", out.reportJson.c_str());
    return stdoutStatus(out.quarantined > 0 ? kExitGateFailure : kExitOk);
}
