/**
 * @file
 * Campaign reports and the drain latch.
 *
 * The report files are a pure function of the grid: any sequence of
 * crashes, chaos kills, resumes and executor re-execs yields the same
 * report.json / report.csv bytes. Provenance
 * (attempt counts, checkpoint paths) is deliberately segregated into
 * provenance.json, which is NOT part of that contract.
 *
 * The drain latch is how SIGINT/SIGTERM reach the executor loop
 * (executor.hh): workers are killed -- their checkpoints ARE the
 * resumable state -- the journal is flushed, and rerunning resumes.
 */

#ifndef NORD_CAMPAIGN_ORCHESTRATOR_HH
#define NORD_CAMPAIGN_ORCHESTRATOR_HH

#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/journal.hh"

namespace nord {
namespace campaign {

/**
 * Ask a running campaign to drain: stop launching, kill and reap the
 * fleet, flush the journal, return with outcome.interrupted set.
 * Async-signal-safe; wired to SIGINT/SIGTERM by the CLI.
 */
void requestCampaignDrain();

/** Reset the drain latch (tests run several campaigns per process). */
void clearCampaignDrain();

/** Poll the drain latch. */
bool campaignDrainRequested();

// --- Report rendering ---------------------------------------------------

/**
 * Render the aggregate JSON report for @p specs from replayed journal
 * state @p state: one entry per point in id order, status
 * completed/quarantined/missing, completed metrics pasted verbatim from
 * the worker result lines. Deterministic by construction.
 */
std::string renderReportJson(const std::vector<PointSpec> &specs,
                             const ReplayState &state);

/** CSV twin of renderReportJson (one row per point, id order). */
std::string renderReportCsv(const std::vector<PointSpec> &specs,
                            const ReplayState &state);

/**
 * Render provenance.json: launches, counted failures, retry counts and
 * artifact paths per point. Carries everything nondeterministic that the
 * byte-identical report must exclude.
 */
std::string renderProvenanceJson(const std::vector<PointSpec> &specs,
                                 const ReplayState &state,
                                 const std::string &outDir);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_ORCHESTRATOR_HH
