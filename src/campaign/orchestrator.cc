/**
 * @file
 * Campaign report rendering and the drain latch (see orchestrator.hh for
 * the byte-identical-report contract).
 */

#include "campaign/orchestrator.hh"

#include <algorithm>
#include <csignal>
#include <iterator>

#include "common/log.hh"

namespace nord {
namespace campaign {

namespace {

// Drain latch set from the CLI's SIGINT/SIGTERM handlers; a
// sig_atomic_t is the only type that is safe to touch there.
// nord-lint-allow(mutable-static)
volatile std::sig_atomic_t g_drainRequested = 0;

}  // namespace

void
requestCampaignDrain()
{
    g_drainRequested = 1;
}

void
clearCampaignDrain()
{
    g_drainRequested = 0;
}

bool
campaignDrainRequested()
{
    return g_drainRequested != 0;
}

// --- Report rendering ---------------------------------------------------

std::string
renderReportJson(const std::vector<PointSpec> &specs,
                 const ReplayState &state)
{
    std::uint64_t completed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t missing = 0;
    std::string entries;
    for (const PointSpec &spec : specs) {
        const auto it = state.perPoint.find(spec.id);
        const ReplayPoint *p =
            it != state.perPoint.end() ? &it->second : nullptr;
        if (!entries.empty())
            entries += ",\n";
        entries += "{\"spec\":" + specJson(spec);
        if (p && p->done) {
            ++completed;
            entries += ",\"status\":\"completed\",\"result\":" +
                       p->resultLine + "}";
        } else if (p && p->quarantined) {
            ++quarantined;
            // Class / exit / signal are deterministic properties of the
            // point; the stderr tail and checkpoint path are not (resume
            // cycles vary with kill timing) and live in provenance.json.
            entries += detail::formatString(
                ",\"status\":\"quarantined\",\"class\":\"%s\","
                "\"exit\":%d,\"signal\":%d}",
                failureClassName(p->quarantine.cls),
                p->quarantine.exitCode, p->quarantine.signal);
        } else {
            ++missing;
            entries += ",\"status\":\"missing\"}";
        }
    }
    std::string out = detail::formatString(
        "{\n\"campaign\":{\"format\":%d,\"points\":%llu,"
        "\"gridFp\":%llu},\n"
        "\"summary\":{\"completed\":%llu,\"quarantined\":%llu,"
        "\"missing\":%llu},\n\"points\":[\n",
        kJournalFormat, static_cast<unsigned long long>(specs.size()),
        static_cast<unsigned long long>(state.gridFp),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(quarantined),
        static_cast<unsigned long long>(missing));
    out += entries;
    out += "\n]}\n";
    return out;
}

std::string
renderReportCsv(const std::vector<PointSpec> &specs,
                const ReplayState &state)
{
    // Metric cells of a completed row, pasted raw from its result line
    // so the CSV inherits the report's byte-identity. The header, the
    // completed rows and the empty cells of the other rows all come from
    // this one list, so their field counts cannot drift apart.
    static const char *const kMetricCols[] = {
        "endCycle", "created", "delivered", "deliveredFraction",
        "avgLatency", "p99Latency", "avgHops", "wakeups", "offFraction",
        "energyJ", "retransmits", "recovered", "flitsEaten", "drained"};
    std::string out =
        "id,design,workload,rate,seed,faultRate,deadRouter,status,class";
    for (const char *col : kMetricCols)
        out += std::string(",") + col;
    out += "\n";
    const std::string emptyMetrics(std::size(kMetricCols), ',');
    for (const PointSpec &spec : specs) {
        const auto it = state.perPoint.find(spec.id);
        const ReplayPoint *p =
            it != state.perPoint.end() ? &it->second : nullptr;
        out += detail::formatString(
            "%llu,%s,%s,%g,%llu,%g,",
            static_cast<unsigned long long>(spec.id),
            pgDesignName(spec.design), workloadName(spec).c_str(),
            spec.rate, static_cast<unsigned long long>(spec.seed),
            spec.faultRate);
        out += spec.deadRouter != kInvalidNode
            ? std::to_string(spec.deadRouter) : std::string("none");
        if (p && p->done) {
            out += ",completed,";
            for (const char *col : kMetricCols) {
                std::string raw;
                out += ",";
                if (jsonFieldRaw(p->resultLine, col, &raw))
                    out += raw;
            }
        } else if (p && p->quarantined) {
            out += ",quarantined,";
            out += failureClassName(p->quarantine.cls);
            out += emptyMetrics;
        } else {
            out += ",missing," + emptyMetrics;
        }
        out += "\n";
    }
    return out;
}

std::string
renderProvenanceJson(const std::vector<PointSpec> &specs,
                     const ReplayState &state, const std::string &outDir)
{
    std::string out = "{\n\"points\":[\n";
    bool first = true;
    for (const PointSpec &spec : specs) {
        const auto it = state.perPoint.find(spec.id);
        const ReplayPoint *p =
            it != state.perPoint.end() ? &it->second : nullptr;
        const PointPaths paths = pointPaths(outDir, spec.id);
        if (!first)
            out += ",\n";
        first = false;
        const char *status = "missing";
        if (p && p->done)
            status = "completed";
        else if (p && p->quarantined)
            status = "quarantined";
        out += detail::formatString(
            "{\"id\":%llu,\"status\":\"%s\",\"launches\":%d,"
            "\"countedFailures\":%d,\"retried\":%d",
            static_cast<unsigned long long>(spec.id), status,
            p ? p->launches : 0, p ? p->countedFailures : 0,
            p ? std::max(0, p->launches - 1) : 0);
        if (p && p->quarantined) {
            out += ",\"quarantine\":{\"class\":\"" +
                   std::string(failureClassName(p->quarantine.cls)) +
                   "\",\"stderrTail\":\"" +
                   jsonEscape(p->quarantine.stderrTail) +
                   "\",\"ckpt\":\"" +
                   jsonEscape(p->quarantine.ckptPath) + "\"}";
        }
        out += ",\"artifacts\":{\"result\":\"" + jsonEscape(paths.result) +
               "\",\"stderrLog\":\"" + jsonEscape(paths.stderrLog) +
               "\",\"checkpoint\":\"" + jsonEscape(paths.checkpoint) +
               "\"}}";
    }
    out += "\n]}\n";
    return out;
}

}  // namespace campaign
}  // namespace nord
