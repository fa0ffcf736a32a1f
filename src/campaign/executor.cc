/**
 * @file
 * Campaign executor implementation (see executor.hh for the supervision
 * rules, journal.hh for the crash-safety argument).
 */

#include "campaign/executor.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "campaign/fleet.hh"
#include "campaign/orchestrator.hh"
#include "ckpt/checkpoint.hh"
#include "common/log.hh"
#include "common/rng.hh"

#ifdef NORD_CAMPAIGN_POSIX
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#endif

namespace nord {
namespace campaign {

#ifdef NORD_CAMPAIGN_POSIX

namespace {

void
setErr(std::string *err, std::string what)
{
    if (err)
        *err = std::move(what);
}

bool
isTerminal(const PointRuntime &rt)
{
    return rt.phase == PointPhase::kDone ||
           rt.phase == PointPhase::kQuarantined;
}

}  // namespace

bool
runExecutor(const std::vector<PointSpec> &specs,
            const ExecutorOptions &opts, ExecutorOutcome *out,
            std::string *err)
{
    ExecutorOutcome outcome;
    if (opts.outDir.empty()) {
        setErr(err, "campaign outDir must not be empty");
        return false;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].id != i) {
            setErr(err, "campaign point ids must be dense and ordered");
            return false;
        }
    }
    if (mkdir(opts.outDir.c_str(), 0755) != 0 && errno != EEXIST) {
        setErr(err, detail::formatString("cannot create %s: %s",
                                         opts.outDir.c_str(),
                                         std::strerror(errno)));
        return false;
    }

    const std::uint64_t gridFp = gridFingerprint(specs);
    CampaignJournal journal;
    ReplayState state;
    if (!journal.open(opts.outDir + "/journal.jsonl", specs.size(), gridFp,
                      &state, err))
        return false;

    std::vector<PointRuntime> runtime(specs.size());
    for (const auto &[id, p] : state.perPoint) {
        if (id >= specs.size())
            continue;
        if (p.done)
            runtime[id].phase = PointPhase::kDone;
        else if (p.quarantined)
            runtime[id].phase = PointPhase::kQuarantined;
    }

    std::vector<WorkerSlot> fleet;
    Rng chaosRng(opts.chaos.seed);
    double nextChaosAt = monotonicSec();
    if (opts.chaos.enabled)
        nextChaosAt += opts.chaos.meanIntervalSec *
                       (0.5 + chaosRng.uniform());

    const int maxWorkers = std::max(1, opts.workers);
    const int maxFailures = std::max(1, opts.maxFailures);
    bool failed = false;
    bool drainSelf = false;

    /** Journal, then act on, the exit of one reaped worker. */
    const auto handleExit = [&](const WorkerSlot &slot, int wstatus) {
        const std::uint64_t id = slot.point;
        const PointPaths paths = pointPaths(opts.outDir, id);
        const bool exited = WIFEXITED(wstatus);
        const int exitCode = exited ? WEXITSTATUS(wstatus) : 0;
        const bool signaled = WIFSIGNALED(wstatus);
        const int sig = signaled ? WTERMSIG(wstatus) : 0;
        FailureClass cls =
            classifyExit(exited, exitCode, signaled, sig,
                         slot.killedForHang, slot.killedForChaos);
        ReplayPoint &p = state.perPoint[id];

        if (cls == FailureClass::kNone) {
            std::string result;
            if (readResultLine(paths.result, &result)) {
                journal.appendDone(id, result);
                p.done = true;
                p.resultLine = std::move(result);
                runtime[id].phase = PointPhase::kDone;
                return;
            }
            cls = FailureClass::kInfra;
        }

        const bool counted = failureCountsTowardQuarantine(cls);
        const std::string tail = stderrTail(paths.stderrLog);
        const std::string ckpt =
            fileExists(paths.checkpoint) ? paths.checkpoint : "";
        journal.appendFail(id, cls, exited ? exitCode : 0, sig, counted,
                           tail, ckpt);
        if (counted)
            p.countedFailures += 1;

        if (isDeterministicFailure(cls) ||
            (counted && p.countedFailures >= maxFailures)) {
            QuarantineRecord rec;
            rec.cls = cls;
            rec.exitCode = exited ? exitCode : 0;
            rec.signal = sig;
            rec.stderrTail = tail;
            rec.ckptPath = ckpt;
            journal.appendQuarantine(id, rec);
            p.quarantined = true;
            p.quarantine = rec;
            runtime[id].phase = PointPhase::kQuarantined;
            std::fprintf(diagStream(),
                         "[campaign] point %llu quarantined (%s) after %d "
                         "counted failure(s)\n",
                         static_cast<unsigned long long>(id),
                         failureClassName(cls), p.countedFailures);
            return;
        }

        const int attempt = counted ? std::max(1, p.countedFailures) : 1;
        const std::uint64_t noise = gridFp ^ (id * 0x9e3779b97f4a7c15ULL);
        runtime[id].phase = PointPhase::kWaiting;
        runtime[id].readyAt =
            monotonicSec() + backoffDelaySec(opts.backoff, attempt, noise);
    };

    const auto spawn = [&](std::uint64_t id) -> bool {
        const PointPaths paths = pointPaths(opts.outDir, id);
        ReplayPoint &p = state.perPoint[id];
        if (!journal.appendAttempt(id, p.launches + 1))
            return false;
        p.launches += 1;
        const long pid = spawnPointWorker(specs[id], paths, opts.worker);
        if (pid < 0)
            return false;
        WorkerSlot slot;
        slot.pid = pid;
        slot.point = id;
        slot.lastProgress = monotonicSec();
        slot.haveMtime = fileMtimeNs(paths.checkpoint, &slot.lastMtimeNs);
        fleet.push_back(slot);
        runtime[id].phase = PointPhase::kRunning;
        outcome.launches += 1;
        if (opts.drainAfterLaunches > 0 &&
            outcome.launches >= opts.drainAfterLaunches)
            drainSelf = true;
        return true;
    };

    while (true) {
        if (campaignDrainRequested() || drainSelf) {
            outcome.interrupted = true;
            break;
        }
        if (!journal.ok()) {
            failed = true;
            setErr(err, journal.error());
            break;
        }

        // Reap.
        for (std::size_t i = 0; i < fleet.size();) {
            int wstatus = 0;
            const pid_t r = waitpid(static_cast<pid_t>(fleet[i].pid),
                                    &wstatus, WNOHANG);
            if (r == static_cast<pid_t>(fleet[i].pid)) {
                const WorkerSlot slot = fleet[i];
                fleet.erase(fleet.begin() +
                            static_cast<std::ptrdiff_t>(i));
                handleExit(slot, wstatus);
            } else {
                ++i;
            }
        }
        // A running point is never terminal, so this implies an empty
        // fleet.
        if (std::all_of(runtime.begin(), runtime.end(), isTerminal))
            break;

        const double now = monotonicSec();

        // Heartbeats: a checkpoint mtime change is progress.
        for (WorkerSlot &slot : fleet) {
            const PointPaths paths = pointPaths(opts.outDir, slot.point);
            std::uint64_t mt = 0;
            if (fileMtimeNs(paths.checkpoint, &mt) &&
                (!slot.haveMtime || mt != slot.lastMtimeNs)) {
                slot.haveMtime = true;
                slot.lastMtimeNs = mt;
                slot.lastProgress = now;
            }
            if (!slot.killedForHang && !slot.killedForChaos &&
                now - slot.lastProgress > opts.hangTimeoutSec) {
                slot.killedForHang = true;
                killWorkerGroup(slot.pid);
                std::fprintf(diagStream(),
                             "[campaign] point %llu hung, killed worker "
                             "%ld\n",
                             static_cast<unsigned long long>(slot.point),
                             slot.pid);
            }
        }

        // Chaos: kill one random live worker per scheduled tick.
        if (opts.chaos.enabled && now >= nextChaosAt &&
            opts.chaos.meanIntervalSec > 0.0 &&
            (opts.chaos.maxKills <= 0 ||
             outcome.chaosKills <
                 static_cast<std::uint64_t>(opts.chaos.maxKills))) {
            nextChaosAt = now + opts.chaos.meanIntervalSec *
                                    (0.5 + chaosRng.uniform());
            std::vector<std::size_t> victims;
            for (std::size_t i = 0; i < fleet.size(); ++i) {
                if (!fleet[i].killedForHang && !fleet[i].killedForChaos)
                    victims.push_back(i);
            }
            if (!victims.empty()) {
                WorkerSlot &slot =
                    fleet[victims[chaosRng.uniformInt(victims.size())]];
                slot.killedForChaos = true;
                killWorkerGroup(slot.pid);
                outcome.chaosKills += 1;
                std::fprintf(diagStream(),
                             "[campaign] chaos: killed worker %ld (point "
                             "%llu)\n",
                             slot.pid,
                             static_cast<unsigned long long>(slot.point));
            }
        }

        // Launch, id order, while slots are free.
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (static_cast<int>(fleet.size()) >= maxWorkers || drainSelf)
                break;
            const PointRuntime &rt = runtime[i];
            if (rt.phase == PointPhase::kPending ||
                (rt.phase == PointPhase::kWaiting && now >= rt.readyAt)) {
                if (!spawn(specs[i].id))
                    break;
            }
        }

        sleepSec(opts.pollIntervalSec);
    }

    killFleet(&fleet);
    if (!failed && !journal.ok()) {
        failed = true;
        setErr(err, journal.error());
    }

    // Reports are rendered while the journal lock is still held, so no
    // second executor can write them concurrently.
    if (!failed) {
        for (const PointSpec &spec : specs) {
            const auto it = state.perPoint.find(spec.id);
            if (it != state.perPoint.end() && it->second.done)
                outcome.completed += 1;
            else if (it != state.perPoint.end() && it->second.quarantined)
                outcome.quarantined += 1;
            else
                outcome.missing += 1;
        }
        if (outcome.missing == 0) {
            std::string werr;
            outcome.reportJson = opts.outDir + "/report.json";
            outcome.reportCsv = opts.outDir + "/report.csv";
            outcome.provenance = opts.outDir + "/provenance.json";
            if (!atomicWriteFile(outcome.reportJson,
                                 renderReportJson(specs, state), {},
                                 &werr) ||
                !atomicWriteFile(outcome.reportCsv,
                                 renderReportCsv(specs, state), {},
                                 &werr) ||
                !atomicWriteFile(outcome.provenance,
                                 renderProvenanceJson(specs, state,
                                                      opts.outDir),
                                 {}, &werr)) {
                failed = true;
                setErr(err, "report write failed: " + werr);
            } else {
                outcome.wroteReports = true;
            }
        }
    }
    journal.close();

    if (out)
        *out = outcome;
    return !failed;
}

#else  // !NORD_CAMPAIGN_POSIX

bool
runExecutor(const std::vector<PointSpec> &specs,
            const ExecutorOptions &opts, ExecutorOutcome *out,
            std::string *err)
{
    (void)specs;
    (void)opts;
    (void)out;
    if (err)
        *err = "campaign execution requires a POSIX host";
    return false;
}

#endif  // NORD_CAMPAIGN_POSIX

}  // namespace campaign
}  // namespace nord
