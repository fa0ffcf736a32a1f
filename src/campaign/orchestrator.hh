/**
 * @file
 * The campaign loop and its reports.
 *
 * runCampaign forks one worker process per point (runPointWorker) and
 * keeps at most `workers` of them alive. Everything lives in one
 * campaign directory DIR:
 *
 *  - "DIR/campaign.lock" -- flock()ed for the run, so a second live run
 *    on DIR is refused;
 *  - "DIR/grid.fp" -- the grid fingerprint, written by the first run; a
 *    run of a different grid on DIR is refused, so no result or
 *    checkpoint of another grid is ever reused;
 *  - the worker artifacts (pointPaths(DIR, id): checkpoint and result);
 *  - "report.json" and "report.csv", written once every point ended.
 *
 * A worker that exits 0 having written its result line completed its
 * point. Any other end quarantines the point at once, with its class,
 * exit code and signal: points are deterministic, so a retry would fail
 * the same way. A rerun skips every point that has a result file and
 * runs the rest, each resuming from its last checkpoint; a killed run
 * therefore resumes by being run again.
 *
 * The report files are a pure function of the grid: however often a run
 * is killed and rerun, report.json and report.csv come out the same
 * bytes.
 */

#ifndef NORD_CAMPAIGN_ORCHESTRATOR_HH
#define NORD_CAMPAIGN_ORCHESTRATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/exit_codes.hh"

namespace nord {
namespace campaign {

/**
 * How one point of a campaign ended: completed (a result line),
 * quarantined (a failure class) or missing (neither).
 */
struct PointOutcome
{
    std::string resultLine;  ///< the worker's result line, no newline
    FailureClass cls = FailureClass::kNone;  ///< why it was quarantined
    int exitCode = 0;  ///< the worker's exit code (0 on a signal)
    int signal = 0;    ///< the signal that killed it (0 on an exit)

    bool completed() const { return !resultLine.empty(); }
    bool quarantined() const { return cls != FailureClass::kNone; }
};

/** The end of one runCampaign. */
struct CampaignOutcome
{
    std::uint64_t completed = 0;  ///< terminal counts over the grid
    std::uint64_t quarantined = 0;
    std::uint64_t missing = 0;
    std::uint64_t launches = 0;   ///< workers forked by this run
    std::string reportJson;       ///< path of report.json
};

/**
 * Run (or resume) the campaign for @p specs in @p outDir with at most
 * @p workers live workers, then write report.json and report.csv.
 * Returns false with @p err only when the campaign itself fails (I/O, a
 * held lock, a directory that holds a different grid, a failed fork);
 * quarantined points are reported through @p out.
 */
bool runCampaign(const std::vector<PointSpec> &specs,
                 const std::string &outDir, int workers,
                 CampaignOutcome *out, std::string *err);

/**
 * Render the aggregate JSON report: one entry per point in id order,
 * status completed/quarantined/missing from @p outcomes (indexed by
 * id), completed metrics pasted verbatim from the worker result lines.
 */
std::string renderReportJson(const std::vector<PointSpec> &specs,
                             const std::vector<PointOutcome> &outcomes);

/** CSV twin of renderReportJson (one row per point, id order). */
std::string renderReportCsv(const std::vector<PointSpec> &specs,
                            const std::vector<PointOutcome> &outcomes);

/**
 * The worker result file is written atomically, so it either holds one
 * complete JSON line or does not exist. Reads that line without its
 * newline; false on anything else.
 */
bool readResultLine(const std::string &path, std::string *out);

/**
 * Extract the raw text of "key":<value> from a result line, where value
 * is a number or a bare literal -- verbatim, for byte-exact
 * re-emission. False when absent or empty.
 */
bool jsonFieldRaw(const std::string &line, const std::string &key,
                  std::string *out);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_ORCHESTRATOR_HH
