/**
 * @file
 * The campaign loop and its reports (see orchestrator.hh).
 */

#include "campaign/orchestrator.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "common/log.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace nord {
namespace campaign {

namespace {

/** The report's format version (report.json's "format" field). */
constexpr int kReportFormat = 1;

void
setErr(std::string *err, std::string what)
{
    if (err)
        *err = std::move(what);
}

/** Whole file as bytes ("" when unreadable). */
std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Refuse @p outDir when it holds another grid's artifacts; on its first
 * run, record @p gridFp in it.
 */
bool
guardGrid(const std::string &outDir, std::uint64_t gridFp, std::string *err)
{
    const std::string path = outDir + "/grid.fp";
    const std::string mine = detail::formatString(
        "%llu\n", static_cast<unsigned long long>(gridFp));
    const std::string theirs = readWholeFile(path);
    if (theirs.empty()) {
        std::string werr;
        if (atomicWriteFile(path, mine, {}, &werr))
            return true;
        setErr(err, "grid fingerprint write failed: " + werr);
        return false;
    }
    if (theirs == mine)
        return true;
    setErr(err, detail::formatString(
                    "%s holds a different grid (fingerprint %s), not "
                    "this one (%llu); use a fresh --out",
                    outDir.c_str(),
                    theirs.substr(0, theirs.size() - 1).c_str(),
                    static_cast<unsigned long long>(gridFp)));
    return false;
}

/**
 * Fork the worker of @p spec. The child drops the campaign lock, dies
 * with its parent and inherits its stderr. Returns the child's pid, or
 * -1 when fork failed.
 */
pid_t
forkWorker(const PointSpec &spec, const std::string &outDir, int lockFd)
{
    // Unflushed stdio would otherwise be written twice, once by the child.
    if (std::fflush(nullptr) != 0) {
        // The CLI checks stdout itself when it exits.
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    ::close(lockFd);
#ifdef __linux__
    // Die with the campaign: a SIGKILLed parent runs no exit path, so
    // reaping its orphans is the kernel's job. The getppid re-check
    // closes the race where the parent died between fork and prctl.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent)
        _exit(kExitInfraFailure);
#else
    (void)parent;
#endif
    _exit(runPointWorker(spec, pointPaths(outDir, spec.id),
                         WorkerOptions{}));
}

/** Record how the worker of point @p id ended (@p wstatus). */
void
recordExit(std::uint64_t id, const std::string &outDir, int wstatus,
           PointOutcome *p)
{
    const bool exited = WIFEXITED(wstatus);
    p->exitCode = exited ? WEXITSTATUS(wstatus) : 0;
    p->signal = WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : 0;
    p->cls = classifyExit(exited, p->exitCode, WIFSIGNALED(wstatus));
    if (p->cls == FailureClass::kNone) {
        if (readResultLine(pointPaths(outDir, id).result, &p->resultLine))
            return;
        p->cls = FailureClass::kInfra;
    }
    std::fprintf(diagStream(),
                 "[campaign] point %llu quarantined (%s): %s %d\n",
                 static_cast<unsigned long long>(id),
                 failureClassName(p->cls), p->signal ? "signal" : "exit",
                 p->signal ? p->signal : p->exitCode);
}

}  // namespace

bool
runCampaign(const std::vector<PointSpec> &specs, const std::string &outDir,
            int workers, CampaignOutcome *out, std::string *err)
{
    *out = CampaignOutcome{};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].id != i) {
            setErr(err, "campaign point ids must be dense and ordered");
            return false;
        }
    }
    if (mkdir(outDir.c_str(), 0755) != 0 && errno != EEXIST) {
        setErr(err, detail::formatString("cannot create %s: %s",
                                         outDir.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    const std::string lockPath = outDir + "/campaign.lock";
    const int lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (lockFd < 0) {
        setErr(err, detail::formatString("cannot open %s: %s",
                                         lockPath.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    if (flock(lockFd, LOCK_EX | LOCK_NB) != 0) {
        ::close(lockFd);
        setErr(err, detail::formatString(
                        "%s is locked (another nord-campaign is running on "
                        "%s)",
                        lockPath.c_str(), outDir.c_str()));
        return false;
    }
    if (!guardGrid(outDir, gridFingerprint(specs), err)) {
        ::close(lockFd);
        return false;
    }

    // A point that has its result file is done: a rerun skips it.
    std::vector<PointOutcome> outcomes(specs.size());
    for (const PointSpec &spec : specs)
        readResultLine(pointPaths(outDir, spec.id).result,
                       &outcomes[spec.id].resultLine);

    // Fork in id order while a slot is free; block until a worker ends.
    std::vector<std::pair<pid_t, std::uint64_t>> live;
    std::size_t next = 0;
    std::string forkErr;
    while (true) {
        while (forkErr.empty() && next < specs.size() &&
               static_cast<int>(live.size()) < std::max(1, workers)) {
            const std::uint64_t id = next++;
            if (outcomes[id].completed())
                continue;
            const pid_t pid = forkWorker(specs[id], outDir, lockFd);
            if (pid < 0) {
                forkErr = detail::formatString("fork failed: %s",
                                               std::strerror(errno));
                break;
            }
            live.emplace_back(pid, id);
            out->launches += 1;
        }
        if (live.empty())
            break;
        int wstatus = 0;
        const pid_t pid = waitpid(-1, &wstatus, 0);
        if (pid < 0 && errno == EINTR)
            continue;
        if (pid < 0) {
            // No child left to wait for: nothing more can end.
            forkErr = detail::formatString("waitpid failed: %s",
                                           std::strerror(errno));
            break;
        }
        const auto it = std::find_if(
            live.begin(), live.end(),
            [pid](const auto &w) { return w.first == pid; });
        if (it == live.end())
            continue;  // not one of this campaign's workers
        recordExit(it->second, outDir, wstatus, &outcomes[it->second]);
        live.erase(it);
    }

    for (const PointOutcome &p : outcomes) {
        if (p.completed())
            out->completed += 1;
        else if (p.quarantined())
            out->quarantined += 1;
        else
            out->missing += 1;
    }
    // The reports are written under the lock, so no second run writes
    // them at once.
    std::string werr;
    out->reportJson = outDir + "/report.json";
    const bool ok =
        forkErr.empty() &&
        atomicWriteFile(out->reportJson, renderReportJson(specs, outcomes),
                        {}, &werr) &&
        atomicWriteFile(outDir + "/report.csv",
                        renderReportCsv(specs, outcomes), {}, &werr);
    if (!ok)
        setErr(err, forkErr.empty() ? "report write failed: " + werr
                                    : forkErr);
    ::close(lockFd);
    return ok;
}

std::string
renderReportJson(const std::vector<PointSpec> &specs,
                 const std::vector<PointOutcome> &outcomes)
{
    std::uint64_t completed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t missing = 0;
    std::string entries;
    for (const PointSpec &spec : specs) {
        const PointOutcome &p = outcomes.at(spec.id);
        if (!entries.empty())
            entries += ",\n";
        entries += "{\"spec\":" + specJson(spec);
        if (p.completed()) {
            ++completed;
            entries += ",\"status\":\"completed\",\"result\":" +
                       p.resultLine + "}";
        } else if (p.quarantined()) {
            ++quarantined;
            entries += detail::formatString(
                ",\"status\":\"quarantined\",\"class\":\"%s\","
                "\"exit\":%d,\"signal\":%d}",
                failureClassName(p.cls), p.exitCode, p.signal);
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
        kReportFormat, static_cast<unsigned long long>(specs.size()),
        static_cast<unsigned long long>(gridFingerprint(specs)),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(quarantined),
        static_cast<unsigned long long>(missing));
    out += entries;
    out += "\n]}\n";
    return out;
}

std::string
renderReportCsv(const std::vector<PointSpec> &specs,
                const std::vector<PointOutcome> &outcomes)
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
        const PointOutcome &p = outcomes.at(spec.id);
        out += detail::formatString(
            "%llu,%s,%s,%g,%llu,%g,",
            static_cast<unsigned long long>(spec.id),
            pgDesignName(spec.design), workloadName(spec).c_str(),
            spec.rate, static_cast<unsigned long long>(spec.seed),
            spec.faultRate);
        out += spec.deadRouter != kInvalidNode
            ? std::to_string(spec.deadRouter) : std::string("none");
        if (p.completed()) {
            out += ",completed,";
            for (const char *col : kMetricCols) {
                std::string raw;
                out += ",";
                if (jsonFieldRaw(p.resultLine, col, &raw))
                    out += raw;
            }
        } else if (p.quarantined()) {
            out += ",quarantined,";
            out += failureClassName(p.cls);
            out += emptyMetrics;
        } else {
            out += ",missing," + emptyMetrics;
        }
        out += "\n";
    }
    return out;
}

bool
readResultLine(const std::string &path, std::string *out)
{
    std::string content = readWholeFile(path);
    if (content.empty() || content.back() != '\n')
        return false;
    content.pop_back();
    if (content.empty() || content.find('\n') != std::string::npos)
        return false;
    *out = std::move(content);
    return true;
}

bool
jsonFieldRaw(const std::string &line, const std::string &key,
             std::string *out)
{
    // Searching for the quoted key is unambiguous in a result line:
    // string values are escaped, so a literal "key": cannot hide in one.
    const std::string needle = "\"" + key + "\":";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    const size_t from = at + needle.size();
    const size_t end = line.find_first_of(",}]", from);
    if (end == std::string::npos || end == from)
        return false;
    *out = line.substr(from, end - from);
    return true;
}

}  // namespace campaign
}  // namespace nord
