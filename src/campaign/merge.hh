/**
 * @file
 * Deterministic fold of per-executor journals into one canonical
 * campaign state.
 *
 * Every executor in a multi-executor campaign appends to its own
 * journal; the canonical view is a pure, ORDER-INDEPENDENT function of
 * the set of journal contents. That is what keeps report.json /
 * report.csv byte-identical regardless of executor count, kill
 * schedule, or partition timing. The fold is commutative by
 * construction:
 *
 *  - launches and countedFailures are summed (addition commutes);
 *  - each point's terminal state is chosen by a total order on
 *    candidates: highest fencing token wins; at equal tokens a "done"
 *    beats a quarantine (success is definitive); equal-token
 *    quarantines tie-break on their rendered bytes. No rule consults
 *    the order journals were read in.
 *  - a stale writer's terminal event (lower token -- committed by an
 *    executor that had already lost the shard's lease when a new owner
 *    re-ran the point) loses by the token rule and is counted in
 *    MergeStats::staleDropped: this is the fencing-token check that
 *    rejects a resumed-after-partition executor's commits;
 *  - two "done" events with the SAME token but DIFFERENT result bytes
 *    cannot be ordered deterministically and are a hard error: workers
 *    are pure functions of their spec, so divergent bytes under one
 *    token mean the simulator itself is nondeterministic -- exactly the
 *    bug this engine exists to surface, never to paper over.
 *
 * renderCanonicalJournal emits the merged state as an unstamped
 * snapshot journal (terminal state plus counted-failure totals, no
 * shard/token stamps) that CampaignJournal replays like any other.
 */

#ifndef NORD_CAMPAIGN_MERGE_HH
#define NORD_CAMPAIGN_MERGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.hh"

namespace nord {
namespace campaign {

/** Merge bookkeeping (diagnostics; not part of the canonical state). */
struct MergeStats
{
    std::uint64_t journals = 0;      ///< states folded in
    std::uint64_t staleDropped = 0;  ///< lower-token terminals rejected
    std::uint64_t duplicates = 0;    ///< equal terminals deduped
};

/**
 * Fold @p states (one per executor journal) into @p merged. Returns
 * false with @p err only on a same-token divergence (see file
 * comment). @p stats may be null.
 */
bool mergeReplayStates(const std::vector<ReplayState> &states,
                       ReplayState *merged, MergeStats *stats,
                       std::string *err);

/**
 * Convenience for tests and tools: replay each journal content against
 * the (points, gridFp) header and fold. Returns false on a replay
 * failure or a merge conflict.
 */
bool mergeJournals(std::uint64_t points, std::uint64_t gridFp,
                   const std::vector<std::string> &contents,
                   ReplayState *merged, MergeStats *stats,
                   std::string *err);

/**
 * Render @p merged as a snapshot journal (open header, then per
 * point in id order: counted-failure total, terminal event). Byte-equal
 * for byte-equal merged states.
 */
std::string renderCanonicalJournal(const ReplayState &merged);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_MERGE_HH
