/**
 * @file
 * Deterministic journal merge (see merge.hh for the commutativity
 * argument).
 */

#include "campaign/merge.hh"

#include <algorithm>

#include "common/log.hh"

namespace nord {
namespace campaign {

namespace {

void
setErr(std::string *err, std::string what)
{
    if (err)
        *err = std::move(what);
}

/** Snapshot-dialect "fails" line. */
std::string
renderFailsLine(std::uint64_t id, int counted)
{
    return detail::formatString(
        "{\"event\":\"fails\",\"point\":%llu,\"counted\":%d}\n",
        static_cast<unsigned long long>(id), counted);
}

/** Snapshot-dialect "done" line. */
std::string
renderDoneLine(std::uint64_t id, const std::string &resultLine)
{
    return detail::formatString(
               "{\"event\":\"done\",\"point\":%llu,\"result\":",
               static_cast<unsigned long long>(id)) +
           resultLine + "}\n";
}

/** Snapshot-dialect quarantine line. */
std::string
renderQuarantineLine(std::uint64_t id, const QuarantineRecord &q)
{
    return detail::formatString(
               "{\"event\":\"quarantine\",\"point\":%llu,"
               "\"class\":\"%s\",\"exit\":%d,\"signal\":%d,"
               "\"ckpt\":\"",
               static_cast<unsigned long long>(id),
               failureClassName(q.cls), q.exitCode, q.signal) +
           jsonEscape(q.ckptPath) + "\",\"stderrTail\":\"" +
           jsonEscape(q.stderrTail) + "\"}\n";
}

/** Canonical bytes of a candidate's terminal event (tie-breaking key). */
std::string
terminalBytes(std::uint64_t id, const ReplayPoint &p)
{
    if (p.done)
        return renderDoneLine(id, p.resultLine);
    return renderQuarantineLine(id, p.quarantine);
}

/**
 * Fold the terminal state of candidate @p c into winner @p w (both for
 * point @p id). Returns false on a same-token done divergence.
 */
bool
foldTerminal(std::uint64_t id, const ReplayPoint &c, ReplayPoint *w,
             MergeStats *stats, std::string *err)
{
    if (!c.done && !c.quarantined)
        return true;
    if (!w->done && !w->quarantined) {
        w->done = c.done;
        w->quarantined = !c.done && c.quarantined;
        w->resultLine = c.resultLine;
        w->quarantine = c.quarantine;
        w->token = c.token;
        return true;
    }
    // Total order: token, then done-over-quarantine, then bytes.
    // (Same-token done divergence was already rejected by the caller's
    // cross-journal check, which is order-independent.)
    (void)err;
    bool cWins = false;
    if (c.token != w->token) {
        cWins = c.token > w->token;
    } else if (c.done != w->done) {
        cWins = c.done;
    } else {
        // Equal-token equal-kind: lexicographically smallest rendered
        // bytes win -- arbitrary but order-independent.
        const std::string cb = terminalBytes(id, c);
        const std::string wb = terminalBytes(id, *w);
        if (cb == wb) {
            if (stats)
                stats->duplicates += 1;
            return true;
        }
        cWins = cb < wb;
    }
    if (stats)
        stats->staleDropped += 1;
    if (cWins) {
        w->done = c.done;
        w->quarantined = !c.done && c.quarantined;
        w->resultLine = c.resultLine;
        w->quarantine = c.quarantine;
        w->token = c.token;
    }
    return true;
}

}  // namespace

bool
mergeReplayStates(const std::vector<ReplayState> &states,
                  ReplayState *merged, MergeStats *stats, std::string *err)
{
    *merged = ReplayState();
    if (stats)
        *stats = MergeStats();
    // Divergence detection must not depend on fold order, so every done
    // result is checked against every OTHER done result for its (point,
    // token) pair, not just against the current winner.
    std::map<std::uint64_t, std::map<std::uint64_t, std::string>> seen;
    for (const ReplayState &s : states) {
        if (stats)
            stats->journals += 1;
        if (!merged->opened) {
            merged->opened = true;
            merged->points = s.points;
            merged->gridFp = s.gridFp;
        }
        for (const auto &kv : s.shardTokens) {
            std::uint64_t &best = merged->shardTokens[kv.first];
            best = std::max(best, kv.second);
        }
        for (const auto &kv : s.perPoint) {
            const std::uint64_t id = kv.first;
            const ReplayPoint &c = kv.second;
            if (c.done) {
                auto &byToken = seen[id];
                const auto it = byToken.find(c.token);
                if (it == byToken.end()) {
                    byToken.emplace(c.token, c.resultLine);
                } else if (it->second != c.resultLine) {
                    setErr(err,
                           detail::formatString(
                               "point %llu has divergent results under "
                               "fencing token %llu: the worker is "
                               "nondeterministic",
                               static_cast<unsigned long long>(id),
                               static_cast<unsigned long long>(c.token)));
                    return false;
                }
            }
            ReplayPoint &m = merged->perPoint[id];
            m.launches += c.launches;
            m.countedFailures += c.countedFailures;
            if (!foldTerminal(id, c, &m, stats, err))
                return false;
        }
        merged->events += s.events;
    }
    return true;
}

bool
mergeJournals(std::uint64_t points, std::uint64_t gridFp,
              const std::vector<std::string> &contents,
              ReplayState *merged, MergeStats *stats, std::string *err)
{
    std::vector<ReplayState> states(contents.size());
    for (std::size_t i = 0; i < contents.size(); ++i) {
        if (!CampaignJournal::replayContent(contents[i], points, gridFp,
                                            &states[i], err))
            return false;
    }
    return mergeReplayStates(states, merged, stats, err);
}

std::string
renderCanonicalJournal(const ReplayState &merged)
{
    std::string out =
        CampaignJournal::openLine(merged.points, merged.gridFp) + "\n";
    for (const auto &kv : merged.perPoint) {
        const std::uint64_t id = kv.first;
        const ReplayPoint &p = kv.second;
        if (p.countedFailures > 0)
            out += renderFailsLine(id, p.countedFailures);
        if (p.done)
            out += renderDoneLine(id, p.resultLine);
        else if (p.quarantined)
            out += renderQuarantineLine(id, p.quarantine);
    }
    return out;
}

}  // namespace campaign
}  // namespace nord
