/**
 * @file
 * One campaign point: a (design, config, seed, workload) simulation unit.
 *
 * A campaign is a grid of PointSpecs expanded in a fixed deterministic
 * order; the point id is the index in that order and is what the journal,
 * the checkpoint files and the report key on. Each point runs as its own
 * supervised worker process (runPointWorker), checkpointing periodically
 * so the executor can read heartbeats from the checkpoint file's
 * mtime and so a killed attempt resumes bit-exactly instead of starting
 * over.
 *
 * The worker's contract with the supervisor:
 *  - exit codes follow the campaign taxonomy (exit_codes.hh);
 *  - the result file is written atomically, so it either holds one
 *    complete JSON line or does not exist;
 *  - the result is a pure function of the spec: however many times the
 *    attempt is killed and resumed, the bytes that eventually land in
 *    the result file are identical (this is what checkpoint bit-exactness
 *    buys, and what makes campaign reports chaos-invariant).
 */

#ifndef NORD_CAMPAIGN_CAMPAIGN_POINT_HH
#define NORD_CAMPAIGN_CAMPAIGN_POINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {

struct NocConfig;

namespace campaign {

/** Workload family of one point. */
enum class WorkloadKind : std::uint8_t
{
    kSynthetic = 0,  ///< open-loop synthetic pattern at a fixed rate
    kParsec = 1,     ///< closed-loop PARSEC benchmark model
};

/**
 * Self-test behavior injected into a worker, used by the campaign tests
 * to create deterministic poison and hang points without hand-crafting
 * a failing configuration.
 */
enum class SelfTest : std::uint8_t
{
    kNone = 0,
    kPoison = 1,  ///< fail the delivery gate deterministically
    kHang = 2,    ///< stop heartbeating forever mid-run
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
    double minDelivered = 0.0; ///< delivery gate (0 = no gate)
    SelfTest selfTest = SelfTest::kNone;
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
    std::vector<std::uint64_t> seeds{1};
    int rows = 4;
    int cols = 4;
    Cycle measure = 2000;
    double minDelivered = 0.0;
};

/**
 * Expand a grid into its points in the canonical order:
 * design > workload (patterns then parsec) > rate > faultRate > seed.
 * Ids are assigned sequentially from 0. (PARSEC workloads are closed
 * loop, so the rate axis does not multiply them.)
 */
std::vector<PointSpec> expandGrid(const GridSpec &grid);

/** Where one point's artifacts live under the campaign out-dir. */
struct PointPaths
{
    std::string checkpoint;  ///< heartbeat + resume state
    std::string result;      ///< atomically-written result JSON line
    std::string stderrLog;   ///< worker stderr capture
};

/** Compose the artifact paths of point @p id under @p outDir. */
PointPaths pointPaths(const std::string &outDir, std::uint64_t id);

/**
 * The campaign's fault recipe: transient flit corruption and drops at
 * @p faultRate per link per cycle, the end-to-end retransmission layer,
 * and the invariant auditor in recover mode every 256 cycles.
 */
void enableFaults(NocConfig &cfg, double faultRate);

/** Worker knobs forwarded by the executor. */
struct WorkerOptions
{
    Cycle checkpointEvery = 500;  ///< checkpoint/heartbeat period
    Cycle drainBudget = 500000;   ///< extra cycles allowed for draining
};

/**
 * The worker body: run @p spec to completion, checkpointing to
 * paths.checkpoint every opts.checkpointEvery cycles, and atomically
 * write the result line to paths.result. Resumes transparently from an
 * existing checkpoint; a corrupt or mismatched checkpoint is discarded
 * and the point restarts from scratch (diagnosed on the worker's
 * stderr). Returns a campaign taxonomy exit code.
 */
int runPointWorker(const PointSpec &spec, const PointPaths &paths,
                   const WorkerOptions &opts);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_CAMPAIGN_POINT_HH
