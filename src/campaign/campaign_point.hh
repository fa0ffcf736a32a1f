/**
 * @file
 * One campaign point: a (design, config, seed, workload) simulation unit.
 *
 * A campaign is a grid of PointSpecs expanded in a fixed deterministic
 * order; the point id is the index in that order and is what the
 * checkpoint files, the result files and the report key on. Each point
 * runs as its own forked worker process (runPointWorker). Every
 * WorkerOptions::checkpointEvery cycles the worker saves a full
 * checkpoint, so a killed worker resumes bit-exactly from its last one
 * instead of starting over.
 *
 * The worker's contract with the campaign loop:
 *  - exit codes follow the campaign taxonomy (exit_codes.hh);
 *  - the result file is written atomically, so it either holds one
 *    complete JSON line or does not exist;
 *  - the result is a pure function of the spec: however many times the
 *    worker is killed and resumed, the bytes that eventually land in
 *    the result file are identical (this is what checkpoint bit-exactness
 *    buys, and what makes a resumed campaign's report byte-identical).
 */

#ifndef NORD_CAMPAIGN_CAMPAIGN_POINT_HH
#define NORD_CAMPAIGN_CAMPAIGN_POINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace campaign {

/** Workload family of one point. */
enum class WorkloadKind : std::uint8_t
{
    kSynthetic = 0,  ///< open-loop synthetic pattern at a fixed rate
    kParsec = 1,     ///< closed-loop PARSEC benchmark model
};

/** Full specification of one point (see file comment). */
struct PointSpec
{
    std::uint64_t id = 0;
    PgDesign design = PgDesign::kNoPg;
    int rows = 4;
    int cols = 4;
    WorkloadKind kind = WorkloadKind::kSynthetic;
    TrafficPattern pattern = TrafficPattern::kUniformRandom;
    double rate = 0.10;        ///< synthetic injection rate (flits/node/cy)
    std::string parsec;        ///< benchmark name when kind == kParsec
    std::uint64_t seed = 1;
    Cycle measure = 2000;      ///< synthetic measurement window
    double faultRate = 0.0;    ///< transient corrupt+drop rate (0 = off)
    NodeId deadRouter = kInvalidNode;  ///< permanently dead router (none)
    double minDelivered = 0.0; ///< delivery gate (0 = no gate)
};

/** Human/report name of the point's workload. */
std::string workloadName(const PointSpec &spec);

/**
 * Canonical single-line JSON rendering of a spec. This is the unit the
 * grid fingerprint hashes and the report embeds, so its byte layout is
 * part of the resume contract.
 */
std::string specJson(const PointSpec &spec);

/** FNV-1a fingerprint over every spec's canonical JSON, in order. */
std::uint64_t gridFingerprint(const std::vector<PointSpec> &specs);

/** Cross-product description of a campaign grid. */
struct GridSpec
{
    std::vector<PgDesign> designs{PgDesign::kNord};
    std::vector<TrafficPattern> patterns{TrafficPattern::kUniformRandom};
    std::vector<std::string> parsec;  ///< benchmark names (may be empty)
    std::vector<double> rates{0.10};
    std::vector<double> faultRates{0.0};
    std::vector<NodeId> deadRouters{kInvalidNode};
    std::vector<std::uint64_t> seeds{1};
    int rows = 4;
    int cols = 4;
    Cycle measure = 2000;
    double minDelivered = 0.0;
};

/**
 * Expand a grid into its points in the canonical order:
 * design > workload (patterns then parsec) > rate > faultRate >
 * deadRouter > seed. Ids are assigned sequentially from 0. (PARSEC
 * workloads are closed loop, so the rate axis does not multiply them.)
 * A dead-router point has no delivery gate: losing the victim's traffic
 * is what it measures.
 */
std::vector<PointSpec> expandGrid(const GridSpec &grid);

/** Where one point's artifacts live under the campaign out-dir. */
struct PointPaths
{
    std::string checkpoint;  ///< resume state
    std::string result;      ///< atomically-written result JSON line
};

/** Compose the artifact paths of point @p id under @p outDir. */
PointPaths pointPaths(const std::string &outDir, std::uint64_t id);

/** The worker's fixed schedule. */
struct WorkerOptions
{
    static constexpr Cycle checkpointEvery = 5000;  ///< full-save period
    static constexpr Cycle drainBudget = 500000;    ///< cycles to drain
};

/**
 * The worker body: run @p spec to completion and atomically write the
 * result line to paths.result. It runs in chunks of
 * WorkerOptions::checkpointEvery cycles and saves a full checkpoint to
 * paths.checkpoint after each chunk that does not end its phase, and
 * once when the workload detaches for the drain. Resumes transparently
 * from an existing checkpoint; a corrupt or mismatched checkpoint is
 * discarded and the point restarts from scratch (diagnosed on the
 * worker's stderr). Returns a campaign taxonomy exit code.
 */
int runPointWorker(const PointSpec &spec, const PointPaths &paths,
                   const WorkerOptions &opts);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_CAMPAIGN_POINT_HH
