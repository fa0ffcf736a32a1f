/**
 * @file
 * Campaign executor: the one supervision loop behind nord-campaign.
 *
 * An executor supervises a fleet of forked point workers, each
 * heartbeating through its checkpoint file's mtime (a full save or a
 * touch every kHeartbeatCycles simulated cycles):
 *
 *  - no heartbeat progress for hangTimeoutSec  -> SIGKILL, class "hang";
 *  - nonzero taxonomy exit                     -> classified per
 *    exit_codes.hh (deterministic failures quarantine immediately,
 *    transient ones retry with capped jittered backoff);
 *  - death by signal                           -> class "crash", retried;
 *  - chaos self-test kill (ChaosOptions)       -> class "chaos", retried
 *    and NEVER counted toward the quarantine budget -- the kill was
 *    inflicted by the executor itself and says nothing about the point.
 *    This is what keeps chaos runs' reports byte-identical to
 *    undisturbed runs'.
 *
 * After maxFailures counted failures a point is quarantined as poison
 * with diagnostics (class, exit code/signal, stderr tail, last
 * checkpoint path) instead of wedging the campaign.
 *
 * Everything lives in one campaign directory:
 *
 *  - "<outDir>/journal.jsonl" -- the flock()ed, fsync'd journal
 *    (journal.hh). Every event is journaled before the executor acts on
 *    it, so SIGKILL the executor at any moment, rerun it, and it replays
 *    the journal and resumes; a second live executor on the same
 *    directory is refused by the lock.
 *  - worker artifacts (pointPaths(outDir, id): checkpoint, result,
 *    stderr log) -- a killed worker's checkpoint is where its next
 *    attempt resumes from.
 *  - "report.json", "report.csv", "provenance.json" -- rendered from the
 *    replayed journal state once every point is terminal.
 */

#ifndef NORD_CAMPAIGN_EXECUTOR_HH
#define NORD_CAMPAIGN_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/backoff.hh"
#include "campaign/campaign_point.hh"

namespace nord {
namespace campaign {

/** Chaos self-test: kill random live workers on a seeded schedule. */
struct ChaosOptions
{
    bool enabled = false;
    std::uint64_t seed = 1;        ///< schedule + victim selection seed
    double meanIntervalSec = 0.5;  ///< mean time between kills
    int maxKills = 0;              ///< stop after this many (0 = no cap)
};

/** Executor knobs. */
struct ExecutorOptions
{
    std::string outDir;    ///< campaign directory
    int workers = 2;
    int maxFailures = 3;
    double hangTimeoutSec = 30.0;
    double pollIntervalSec = 0.005;
    BackoffPolicy backoff;
    WorkerOptions worker;
    ChaosOptions chaos;
    /** Test hook: request a drain after this many launches (0 = off).
     *  Lets tests interrupt a campaign deterministically. */
    std::uint64_t drainAfterLaunches = 0;
};

/** Final (or drained) executor state. */
struct ExecutorOutcome
{
    std::uint64_t completed = 0;   ///< terminal counts over the grid
    std::uint64_t quarantined = 0;
    std::uint64_t missing = 0;
    std::uint64_t launches = 0;    ///< forks by this run
    std::uint64_t chaosKills = 0;
    bool interrupted = false;      ///< drained by SIGINT/SIGTERM
    bool wroteReports = false;     ///< every point terminal, reports out
    std::string reportJson;
    std::string reportCsv;
    std::string provenance;
};

/**
 * Run (or resume) the campaign for @p specs in opts.outDir until every
 * point is terminal or a drain is requested.
 *
 * Returns false with @p err only on orchestration failure (I/O, a held
 * journal lock, a journal that belongs to a different grid).
 * Quarantined points and drains are reported through @p out.
 */
bool runExecutor(const std::vector<PointSpec> &specs,
                 const ExecutorOptions &opts, ExecutorOutcome *out,
                 std::string *err);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_EXECUTOR_HH
