/**
 * @file
 * Append-only campaign journal: the crash-resumable work-queue record.
 *
 * The journal is the single source of truth for a campaign's progress.
 * One JSON object per line (JSONL); every append is flushed and fsync'd
 * before the executor acts on it, so the failure model is simple:
 * whatever the journal says happened, happened. Event vocabulary:
 *
 *   open       {"event":"open","format":1,"points":N,"gridFp":H}
 *   attempt    {"event":"attempt","point":i,"launch":n}
 *   done       {"event":"done","point":i,"result":{...verbatim worker
 *              result object...}}
 *   fail       {"event":"fail","point":i,"class":"infra","exit":12,
 *              "signal":0,"counted":true,"ckpt":"...","stderrTail":"..."}
 *   quarantine {"event":"quarantine","point":i,"class":"gate",...}
 *
 * Crash-safety rules:
 *  - appends go to the end of the file; a torn final line (crash or
 *    ENOSPC mid-append) is detected on replay by the missing newline and
 *    ignored -- the event simply never happened;
 *  - the journal is exclusively flock()ed for its executor's lifetime,
 *    so two executors can never interleave writes (a second executor
 *    on the same campaign directory is refused);
 *  - every fwrite/fflush/fsync/rename is checked (nord-lint's
 *    unchecked-io rule enforces this for src/campaign/ and src/ckpt/):
 *    an I/O error makes the journal sticky-failed rather than silently
 *    corrupting resumable state.
 *
 * The "done" event embeds the worker's result line *verbatim*; the
 * aggregate report pastes these bytes back out, which is what makes a
 * resumed or chaos-disturbed campaign's report byte-identical to an
 * undisturbed run's.
 */

#ifndef NORD_CAMPAIGN_JOURNAL_HH
#define NORD_CAMPAIGN_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "campaign/exit_codes.hh"
#include "common/json_escape.hh"

namespace nord {
namespace campaign {

/** Journal file format version. */
inline constexpr int kJournalFormat = 1;

// --- Minimal JSON helpers ----------------------------------------------
// The journal both writes and replays its own lines, so the parser only
// has to understand the writer's flat, known-key output -- but it must
// never crash on a torn or hand-edited line. The typed field readers
// are private to journal.cc.

/**
 * Extract the raw text of "key":<value> where value is an object (brace
 * balanced), number, or bare literal -- verbatim, for byte-exact
 * re-emission. False when absent/malformed.
 */
bool jsonFieldRaw(const std::string &line, const std::string &key,
                  std::string *out);

// --- Replayed state -----------------------------------------------------

/** One quarantine record (diagnostics attached to a poison point). */
struct QuarantineRecord
{
    FailureClass cls = FailureClass::kUnknown;
    int exitCode = 0;
    int signal = 0;
    std::string stderrTail;  ///< last lines of the final attempt's stderr
    std::string ckptPath;    ///< last checkpoint written, "" if none
};

/** Per-point state reconstructed by replaying the journal. */
struct ReplayPoint
{
    int countedFailures = 0;  ///< failures charged against the budget
    int launches = 0;         ///< total attempts ever forked
    bool done = false;
    bool quarantined = false;
    std::string resultLine;   ///< verbatim worker result object when done
    QuarantineRecord quarantine;
};

/** Journal replay result. */
struct ReplayState
{
    bool opened = false;          ///< an "open" header was seen
    std::uint64_t points = 0;     ///< grid size from the header
    std::uint64_t gridFp = 0;     ///< grid fingerprint from the header
    std::uint64_t events = 0;     ///< complete events replayed
    bool tornTail = false;        ///< file ended mid-line (crash artifact)
    std::size_t completeBytes = 0;///< prefix covered by complete lines
    std::map<std::uint64_t, ReplayPoint> perPoint;
};

// --- The journal --------------------------------------------------------

/**
 * Append-only campaign journal (see file comment). All append methods
 * return false once the journal is sticky-failed; call error() for the
 * first failure's description.
 */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /**
     * Open @p path for a campaign of @p points points with grid
     * fingerprint @p gridFp. When the file already holds a matching
     * campaign, its events are replayed into @p replay and appending
     * continues where it left off; a fresh file gets an "open" header.
     * Returns false (with @p err) on I/O failure, on a held lock
     * (another executor is live) or on a header mismatch (the
     * journal belongs to a different grid).
     */
    bool open(const std::string &path, std::uint64_t points,
              std::uint64_t gridFp, ReplayState *replay,
              std::string *err);

    /** Sticky-failure state. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const std::string &path() const { return path_; }

    // Point events.
    bool appendAttempt(std::uint64_t point, int launch);
    bool appendDone(std::uint64_t point, const std::string &resultLine);
    bool appendFail(std::uint64_t point, FailureClass cls, int exitCode,
                    int signal, bool counted,
                    const std::string &stderrTail,
                    const std::string &ckptPath);
    bool appendQuarantine(std::uint64_t point,
                          const QuarantineRecord &rec);

    /** Close (drops the flock). Safe to call twice. */
    void close();

  private:
    bool fail(const std::string &what);
    bool appendLine(const std::string &line);

    std::FILE *file_ = nullptr;
    int lockFd_ = -1;
    std::string path_;
    std::string error_;
};

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_JOURNAL_HH
