/**
 * @file
 * Campaign executor: the one supervision loop behind nord-campaign.
 *
 * An executor supervises a fleet of forked point workers, each
 * heartbeating through its checkpoint file's mtime:
 *
 *  - no heartbeat progress for hangTimeoutSec  -> SIGKILL, class "hang";
 *  - nonzero taxonomy exit                     -> classified per
 *    exit_codes.hh (deterministic failures quarantine immediately,
 *    transient ones retry with capped jittered backoff);
 *  - death by signal                           -> class "crash", retried;
 *  - chaos self-test kill (--chaos)            -> class "chaos", retried
 *    and NEVER counted toward the quarantine budget -- the kill was
 *    inflicted by the executor itself and says nothing about the point.
 *    This is what keeps chaos runs' reports byte-identical to
 *    undisturbed runs'.
 *
 * After maxFailures counted failures a point is quarantined as poison
 * with diagnostics (class, exit code/signal, stderr tail, last
 * checkpoint path) instead of wedging the campaign.
 *
 * Any number of executors cooperatively drain one grid over a shared
 * filesystem; `nord-campaign --out DIR` is simply a fleet of one (fixed
 * executor id "local", worker artifacts directly in DIR), and
 * `--join DIR` adds executors. Joining a campaign directory:
 *
 *  1. MANIFEST -- the first joiner link(2)s "<outDir>/campaign.json"
 *     into existence, freezing the grid (points, fingerprint), the
 *     shard count and the lease grace period. Later joiners validate
 *     the grid against the manifest and ADOPT its shards and grace --
 *     the self-fencing soundness argument (lease.hh) requires every
 *     executor to use the same grace.
 *  2. SHARDS -- point ids are partitioned statically: shard(id) =
 *     id % shards. An executor may only launch and commit points of
 *     shards whose lease it currently holds (lease.hh), and it stamps
 *     every journal event with the shard's fencing token. A shard's
 *     lease is released as soon as every point in it is terminal.
 *  3. JOURNALS -- each executor appends to its own flock()ed
 *     "<outDir>/journal-<execId>.jsonl" (so a second live executor with
 *     the same id is refused). Nobody ever writes another executor's
 *     journal; the canonical view is the deterministic merge (merge.hh)
 *     of all of them, re-read every scheduling tick. Every event is
 *     journaled before the executor acts on it: SIGKILL it, rerun it,
 *     and it resumes -- after one lease grace, since its old leases
 *     must expire first.
 *  4. SELF-FENCE -- when the lease layer cannot prove ownership
 *     (partition, suspension longer than grace/2, steal), the executor
 *     kills its worker fleet and exits kExitLeaseLost WITHOUT
 *     journaling anything further -- completed workers it had not yet
 *     committed are simply abandoned; the shard's next owner (or the
 *     rerun) re-runs those points under a higher token, and the merge's
 *     token rule rejects any stale commit that did land.
 *  5. COMPLETION -- the executor that observes every point terminal in
 *     the merged view writes the canonical journal "<outDir>/journal.jsonl"
 *     and the reports (byte-identical regardless of which executor
 *     writes them, or how many do).
 *
 * Worker artifacts (checkpoints, result files, stderr logs) live under
 * ExecutorOptions::artifactDir; joined executors default to
 * "<outDir>/<execId>/" so two executors' workers can never collide on a
 * temp file. Results travel between executors through journal "done"
 * events, not artifact files.
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

    // Partition chaos: SIGSTOP the executor itself for
    // partitionDurationSec on a seeded schedule, simulating a network
    // partition -- lease expiry, takeover by another executor, and a
    // stale-writer resume, the full self-fencing path.
    double partitionMeanSec = 0.0;     ///< mean time between (0 = off)
    double partitionDurationSec = 0.0; ///< suspension length
    int maxPartitions = 1;             ///< stop after this many (floored
                                       ///< to 1; unbounded is never sane)
};

/** Executor knobs. */
struct ExecutorOptions
{
    std::string outDir;    ///< shared campaign directory
    std::string execId;    ///< unique executor id ("" = auto-generate)
    /** Worker checkpoints, results and stderr logs
     *  ("" = "<outDir>/<execId>"). */
    std::string artifactDir;
    std::uint64_t shards = 0;    ///< 0 = auto (first joiner decides)
    double leaseGraceSec = 2.0;  ///< first joiner freezes this
    double leaseRenewSec = 0.0;  ///< 0 = grace/8
    int workers = 2;
    int maxFailures = 3;
    double hangTimeoutSec = 30.0;
    double pollIntervalSec = 0.05;
    BackoffPolicy backoff;
    WorkerOptions worker;
    ChaosOptions chaos;
    /** Test hook: request a drain after this many local launches
     *  (0 = off). Lets tests hand a campaign from one executor to the
     *  next deterministically. */
    std::uint64_t drainAfterLaunches = 0;
};

/** Final (or fenced / drained) executor state. */
struct ExecutorOutcome
{
    std::string execId;            ///< resolved id (after auto-generate)
    std::uint64_t completed = 0;   ///< merged-view terminal counts
    std::uint64_t quarantined = 0;
    std::uint64_t missing = 0;
    std::uint64_t launches = 0;    ///< this executor's forks
    std::uint64_t chaosKills = 0;
    std::uint64_t partitions = 0;  ///< self-inflicted SIGSTOPs
    std::uint64_t staleDropped = 0;///< stale commits the merge rejected
    bool interrupted = false;      ///< drained by SIGINT/SIGTERM
    bool fenced = false;           ///< lost a lease; exit kExitLeaseLost
    std::string fenceReason;
    bool wroteReports = false;     ///< this executor wrote the reports
    std::string reportJson;
    std::string reportCsv;
    std::string provenance;
};

/**
 * Join (or start) the campaign for @p specs under opts.outDir and work
 * it until every point is terminal in the merged view, a drain is
 * requested, or this executor fences.
 *
 * Returns false with @p err only on orchestration failure (I/O, a held
 * journal lock, a grid mismatch against the manifest, a merge
 * conflict). Quarantined points and drains are reported through
 * @p out. Fencing is NOT an error either: the function returns true
 * with outcome.fenced set and the caller exits kExitLeaseLost.
 */
bool runExecutor(const std::vector<PointSpec> &specs,
                 const ExecutorOptions &opts, ExecutorOutcome *out,
                 std::string *err);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_EXECUTOR_HH
