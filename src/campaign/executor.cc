/**
 * @file
 * Campaign executor implementation (see executor.hh for the supervision
 * rules and the join protocol, merge.hh / lease.hh for the invariants).
 */

#include "campaign/executor.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "campaign/fleet.hh"
#include "campaign/lease.hh"
#include "campaign/merge.hh"
#include "campaign/orchestrator.hh"
#include "ckpt/checkpoint.hh"
#include "common/log.hh"
#include "common/rng.hh"

#ifdef NORD_CAMPAIGN_POSIX
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifdef __linux__
#include <sys/prctl.h>
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

/** Campaign manifest: the frozen fleet-wide parameters. */
struct Manifest
{
    std::uint64_t points = 0;
    std::uint64_t gridFp = 0;
    std::uint64_t shards = 0;
    double graceSec = 0.0;
};

std::string
renderManifest(const Manifest &m)
{
    return detail::formatString(
        "{\"format\":%d,\"points\":%llu,\"gridFp\":%llu,"
        "\"shards\":%llu,\"leaseGraceSec\":%.17g}\n",
        kJournalFormat, static_cast<unsigned long long>(m.points),
        static_cast<unsigned long long>(m.gridFp),
        static_cast<unsigned long long>(m.shards), m.graceSec);
}

bool
parseManifest(const std::string &line, Manifest *out)
{
    Manifest m;
    std::string raw;
    if (!jsonFieldU64(line, "points", &m.points) ||
        !jsonFieldU64(line, "gridFp", &m.gridFp) ||
        !jsonFieldU64(line, "shards", &m.shards) ||
        !jsonFieldRaw(line, "leaseGraceSec", &raw))
        return false;
    m.graceSec = std::strtod(raw.c_str(), nullptr);
    if (m.shards == 0 || m.graceSec <= 0.0)
        return false;
    *out = m;
    return true;
}

/** Write @p bytes to @p path, fsync'd (for a subsequent link). */
bool
writeFileSynced(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = (std::fflush(f) == 0) && ok;
    ok = (fsync(fileno(f)) == 0) && ok;
    ok = (std::fclose(f) == 0) && ok;
    return ok;
}

/**
 * Publish-or-adopt the campaign manifest: link(2) ours into place, and
 * on EEXIST read whoever won. Uniform (shards, grace) across the fleet
 * is REQUIRED for lease soundness, so the manifest, not the CLI, is
 * authoritative for every joiner after the first.
 */
bool
establishManifest(const std::string &outDir, const std::string &execId,
                  Manifest *m, std::string *err)
{
    const std::string path = outDir + "/campaign.json";
    std::string content = readWholeFile(path);
    if (content.empty()) {
        const std::string tmp = path + "." + execId + ".tmp";
        if (!writeFileSynced(tmp, renderManifest(*m))) {
            setErr(err, "cannot write manifest temp " + tmp);
            return false;
        }
        const bool linked = ::link(tmp.c_str(), path.c_str()) == 0;
        if (::unlink(tmp.c_str()) != 0) {
            // Stale temp is harmless.
        }
        if (linked) {
            if (!fsyncParentDir(path)) {
                // Manifest durability is best-effort at creation; every
                // later lease write fsyncs the same directory.
            }
            return true;
        }
        // Lost the creation race: adopt the winner's manifest.
        content = readWholeFile(path);
    }
    Manifest got;
    if (!parseManifest(content, &got)) {
        setErr(err, "unparseable campaign manifest " + path);
        return false;
    }
    if (got.points != m->points || got.gridFp != m->gridFp) {
        setErr(err, detail::formatString(
                        "campaign manifest %s belongs to a different "
                        "grid (points %llu fp %llu, expected %llu/%llu)",
                        path.c_str(),
                        static_cast<unsigned long long>(got.points),
                        static_cast<unsigned long long>(got.gridFp),
                        static_cast<unsigned long long>(m->points),
                        static_cast<unsigned long long>(m->gridFp)));
        return false;
    }
    *m = got;
    return true;
}

std::string
autoExecId()
{
    char host[128] = "host";
    if (gethostname(host, sizeof(host) - 1) != 0) {
        // Keep the placeholder.
    }
    host[sizeof(host) - 1] = '\0';
    std::string clean;
    for (const char *p = host; *p; ++p) {
        const char c = *p;
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '-')
            clean += c;
    }
    if (clean.empty())
        clean = "host";
    return detail::formatString(
        "exec-%s-%ld-%llu", clean.c_str(), static_cast<long>(getpid()),
        static_cast<unsigned long long>(monotonicSec() * 1e9));
}

/** The other executors' journal files under @p outDir, sorted. */
std::vector<std::string>
peerJournals(const std::string &outDir, const std::string &ownName)
{
    std::vector<std::string> out;
    DIR *d = opendir(outDir.c_str());
    if (!d)
        return out;
    while (struct dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() < 15 || name.compare(0, 8, "journal-") != 0)
            continue;
        if (name.compare(name.size() - 6, 6, ".jsonl") != 0)
            continue;
        if (name == ownName)
            continue;
        out.push_back(outDir + "/" + name);
    }
    closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Fork a helper that SIGSTOPs THIS process for @p durationSec, then
 * SIGCONTs it: a self-inflicted partition. The helper re-checks its
 * parentage before every kill so it can never signal a recycled pid,
 * and dies with the executor (Linux PDEATHSIG).
 */
long
spawnPartitionHelper(double durationSec)
{
    const pid_t target = getpid();
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
#ifdef __linux__
        if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0) {
            // Reduced cleanup coverage only.
        }
#endif
        if (getppid() != target)
            _exit(0);
        if (kill(target, SIGSTOP) != 0)
            _exit(0);
        sleepSec(durationSec);
        if (getppid() == target) {
            if (kill(target, SIGCONT) != 0) {
                // Executor already gone.
            }
        }
        _exit(0);
    }
    return static_cast<long>(pid);
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

    const std::string execId =
        opts.execId.empty() ? autoExecId() : opts.execId;
    outcome.execId = execId;

    const std::uint64_t gridFp = gridFingerprint(specs);
    Manifest manifest;
    manifest.points = specs.size();
    manifest.gridFp = gridFp;
    manifest.shards =
        opts.shards > 0
            ? opts.shards
            : std::min<std::uint64_t>(
                  std::max<std::uint64_t>(1, specs.size()), 8);
    manifest.graceSec =
        opts.leaseGraceSec > 0.0 ? opts.leaseGraceSec : 2.0;
    if (!establishManifest(opts.outDir, execId, &manifest, err))
        return false;
    const std::uint64_t shards = manifest.shards;
    const auto shardOf = [shards](std::uint64_t id) {
        return id % shards;
    };

    LeaseOptions lopts;
    lopts.leaseDir = opts.outDir + "/leases";
    lopts.execId = execId;
    lopts.shards = shards;
    lopts.graceSec = manifest.graceSec;
    lopts.renewSec = opts.leaseRenewSec;
    LeaseManager leases;
    if (!leases.init(lopts, err))
        return false;

    // Per-executor artifact directory: no temp-file collisions between
    // executors' workers, ever.
    const std::string execDir = opts.artifactDir.empty()
                                    ? opts.outDir + "/" + execId
                                    : opts.artifactDir;
    if (mkdir(execDir.c_str(), 0755) != 0 && errno != EEXIST) {
        setErr(err, detail::formatString("cannot create %s: %s",
                                         execDir.c_str(),
                                         std::strerror(errno)));
        return false;
    }

    const std::string ownJournalName = "journal-" + execId + ".jsonl";
    CampaignJournal journal;
    ReplayState mine;
    if (!journal.open(opts.outDir + "/" + ownJournalName, specs.size(),
                      gridFp, &mine, err))
        return false;
    mine.points = specs.size();
    mine.gridFp = gridFp;

    /** Merge our in-memory state with every peer journal on disk. */
    ReplayState merged;
    MergeStats mergeStats;
    bool mergeFailed = false;
    const auto refreshView = [&]() -> bool {
        std::vector<ReplayState> states;
        states.push_back(mine);
        for (const std::string &path :
             peerJournals(opts.outDir, ownJournalName)) {
            const std::string content = readWholeFile(path);
            if (content.empty())
                continue;  // a joiner that has not written its header yet
            ReplayState s;
            std::string perr;
            if (!CampaignJournal::replayContent(content, specs.size(),
                                                gridFp, &s, &perr)) {
                // A peer journal we cannot read can only delay
                // completion, never corrupt it: skip this tick.
                std::fprintf(diagStream(),
                             "[executor %s] skipping peer journal %s: "
                             "%s\n",
                             execId.c_str(), path.c_str(), perr.c_str());
                continue;
            }
            states.push_back(std::move(s));
        }
        std::string merr;
        if (!mergeReplayStates(states, &merged, &mergeStats, &merr)) {
            setErr(err, "journal merge failed: " + merr);
            mergeFailed = true;
            return false;
        }
        merged.points = specs.size();
        merged.gridFp = gridFp;
        return true;
    };

    std::vector<PointRuntime> runtime(specs.size());
    std::vector<WorkerSlot> fleet;
    Rng chaosRng(opts.chaos.seed);
    double nextChaosAt = monotonicSec();
    double nextPartitionAt = monotonicSec();
    if (opts.chaos.enabled) {
        nextChaosAt += opts.chaos.meanIntervalSec *
                       (0.5 + chaosRng.uniform());
        if (opts.chaos.partitionMeanSec > 0.0)
            nextPartitionAt += opts.chaos.partitionMeanSec *
                               (0.5 + chaosRng.uniform());
    }
    std::vector<long> helperPids;

    const int maxWorkers = std::max(1, opts.workers);
    const int maxFailures = std::max(1, opts.maxFailures);
    const int maxPartitions = std::max(1, opts.chaos.maxPartitions);
    bool orchestrationFailed = false;
    bool drainSelf = false;

    /** Commit the consequences of one reaped worker -- ONLY while the
     *  point's shard lease is provably ours (the fencing check at
     *  result-commit time). */
    const auto handleExit = [&](const WorkerSlot &slot, int wstatus) {
        const std::uint64_t id = slot.point;
        const std::uint64_t shard = shardOf(id);
        if (!leases.writable(shard, monotonicSec()))
            return;  // fence latched; the result is abandoned
        const ShardStamp stamp{shard, leases.token(shard)};
        const PointPaths paths = pointPaths(execDir, id);
        const bool exited = WIFEXITED(wstatus);
        const int exitCode = exited ? WEXITSTATUS(wstatus) : 0;
        const bool signaled = WIFSIGNALED(wstatus);
        const int sig = signaled ? WTERMSIG(wstatus) : 0;
        FailureClass cls =
            classifyExit(exited, exitCode, signaled, sig,
                         slot.killedForHang, slot.killedForChaos);

        if (cls == FailureClass::kNone) {
            std::string result;
            if (readResultLine(paths.result, &result)) {
                journal.appendDone(id, result, stamp);
                ReplayPoint &p = mine.perPoint[id];
                p.done = true;
                p.resultLine = std::move(result);
                p.token = std::max(p.token, stamp.token);
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
                           tail, ckpt, stamp);
        ReplayPoint &p = mine.perPoint[id];
        if (counted)
            p.countedFailures += 1;

        // Quarantine on the MERGED count: failures charged by previous
        // shard owners count too (the point, not the owner, is poison).
        int mergedCount = p.countedFailures;
        const auto mit = merged.perPoint.find(id);
        if (mit != merged.perPoint.end())
            mergedCount = std::max(
                mergedCount, mit->second.countedFailures + (counted ? 1 : 0));
        if (isDeterministicFailure(cls) ||
            (counted && mergedCount >= maxFailures)) {
            QuarantineRecord rec;
            rec.cls = cls;
            rec.exitCode = exited ? exitCode : 0;
            rec.signal = sig;
            rec.stderrTail = tail;
            rec.ckptPath = ckpt;
            journal.appendQuarantine(id, rec, stamp);
            p.quarantined = true;
            p.quarantine = rec;
            p.token = std::max(p.token, stamp.token);
            runtime[id].phase = PointPhase::kQuarantined;
            std::fprintf(diagStream(),
                         "[executor %s] point %llu quarantined (%s) "
                         "after %d counted failure(s)\n",
                         execId.c_str(),
                         static_cast<unsigned long long>(id),
                         failureClassName(cls), mergedCount);
            return;
        }

        const int attempt = counted ? std::max(1, mergedCount) : 1;
        const std::uint64_t noise = gridFp ^ (id * 0x9e3779b97f4a7c15ULL);
        runtime[id].phase = PointPhase::kWaiting;
        runtime[id].readyAt =
            monotonicSec() + backoffDelaySec(opts.backoff, attempt, noise);
    };

    const auto spawn = [&](std::uint64_t id) -> bool {
        const std::uint64_t shard = shardOf(id);
        const ShardStamp stamp{shard, leases.token(shard)};
        const PointPaths paths = pointPaths(execDir, id);
        ReplayPoint &p = mine.perPoint[id];
        if (!journal.appendAttempt(id, p.launches + 1, stamp))
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

    const auto reapHelpers = [&](bool block) {
        for (std::size_t i = 0; i < helperPids.size();) {
            int st = 0;
            const pid_t r =
                waitpid(static_cast<pid_t>(helperPids[i]), &st,
                        block ? 0 : WNOHANG);
            if (r == static_cast<pid_t>(helperPids[i]) ||
                (r < 0 && errno == ECHILD)) {
                helperPids.erase(helperPids.begin() +
                                 static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
    };

    if (!refreshView()) {
        journal.close();
        if (out)
            *out = outcome;
        return false;
    }

    while (true) {
        if (campaignDrainRequested() || drainSelf) {
            outcome.interrupted = true;
            break;
        }

        // Fence check FIRST: an executor resumed from a partition must
        // classify itself dead BEFORE it reaps and commits anything its
        // workers finished while it was suspended.
        double now = monotonicSec();
        for (const std::uint64_t shard : leases.heldShards()) {
            if (!leases.writable(shard, now))
                break;  // writable() latches the fence
        }
        if (leases.fenced()) {
            outcome.fenced = true;
            outcome.fenceReason = leases.fenceReason();
            break;
        }
        if (!journal.ok()) {
            orchestrationFailed = true;
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
        reapHelpers(false);
        if (leases.fenced()) {
            // handleExit's commit-time check tripped mid-reap.
            outcome.fenced = true;
            outcome.fenceReason = leases.fenceReason();
            break;
        }

        now = monotonicSec();

        // Heartbeats: a checkpoint mtime change is progress.
        for (WorkerSlot &slot : fleet) {
            const PointPaths paths = pointPaths(execDir, slot.point);
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
                             "[executor %s] point %llu hung, killed "
                             "worker %ld\n",
                             execId.c_str(),
                             static_cast<unsigned long long>(slot.point),
                             slot.pid);
            }
        }

        // Chaos: worker kills, then self-partitions.
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
                             "[executor %s] chaos: killed worker %ld "
                             "(point %llu)\n",
                             execId.c_str(), slot.pid,
                             static_cast<unsigned long long>(slot.point));
            }
        }
        if (opts.chaos.enabled && opts.chaos.partitionMeanSec > 0.0 &&
            now >= nextPartitionAt &&
            outcome.partitions <
                static_cast<std::uint64_t>(maxPartitions)) {
            nextPartitionAt = now + opts.chaos.partitionMeanSec *
                                        (0.5 + chaosRng.uniform());
            const long helper =
                spawnPartitionHelper(opts.chaos.partitionDurationSec);
            if (helper > 0) {
                helperPids.push_back(helper);
                outcome.partitions += 1;
                std::fprintf(diagStream(),
                             "[executor %s] chaos: self-partition for "
                             "%.2fs (SIGSTOP)\n",
                             execId.c_str(),
                             opts.chaos.partitionDurationSec);
            }
        }

        // Refresh the merged view and fold it into local scheduling.
        if (!refreshView()) {
            orchestrationFailed = true;
            break;
        }
        bool allTerminal = true;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto it = merged.perPoint.find(specs[i].id);
            const bool terminal =
                it != merged.perPoint.end() &&
                (it->second.done || it->second.quarantined);
            if (!terminal) {
                allTerminal = false;
            } else if (runtime[i].phase != PointPhase::kRunning) {
                runtime[i].phase = it->second.done
                                       ? PointPhase::kDone
                                       : PointPhase::kQuarantined;
            }
        }
        if (allTerminal && fleet.empty())
            break;

        // Acquire another shard only when the held ones cannot feed the
        // worker slots -- the fleet load-shares instead of hoarding.
        now = monotonicSec();
        int runnableLocal = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (runtime[i].phase == PointPhase::kDone ||
                runtime[i].phase == PointPhase::kQuarantined)
                continue;
            if (leases.holds(shardOf(specs[i].id)))
                ++runnableLocal;
        }
        if (runnableLocal < maxWorkers) {
            for (std::uint64_t shard = 0; shard < shards; ++shard) {
                if (leases.holds(shard))
                    continue;
                bool shardHasWork = false;
                for (std::uint64_t id = shard; id < specs.size();
                     id += shards) {
                    const auto it = merged.perPoint.find(id);
                    if (it == merged.perPoint.end() ||
                        (!it->second.done && !it->second.quarantined)) {
                        shardHasWork = true;
                        break;
                    }
                }
                if (!shardHasWork)
                    continue;
                std::uint64_t token = 0;
                if (leases.tryAcquire(shard, now, &token)) {
                    journal.appendClaim(shard, token);
                    std::fprintf(
                        diagStream(),
                        "[executor %s] claimed shard %llu (token "
                        "%llu)\n",
                        execId.c_str(),
                        static_cast<unsigned long long>(shard),
                        static_cast<unsigned long long>(token));
                    break;  // at most one acquisition per tick
                }
            }
        }

        // Launch, id order, while slots are free.
        now = monotonicSec();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            PointRuntime &rt = runtime[i];
            if (rt.phase == PointPhase::kDone ||
                rt.phase == PointPhase::kQuarantined ||
                rt.phase == PointPhase::kRunning)
                continue;
            if (static_cast<int>(fleet.size()) >= maxWorkers)
                break;
            const std::uint64_t shard = shardOf(specs[i].id);
            if (!leases.holds(shard) || !leases.writable(shard, now))
                continue;
            if (rt.phase == PointPhase::kPending ||
                (rt.phase == PointPhase::kWaiting && now >= rt.readyAt)) {
                if (!spawn(specs[i].id))
                    break;
            }
        }

        // Lease upkeep runs after the launches so its fsyncs never delay
        // the next worker. A held shard whose points are all terminal
        // (none running) is released at once: renewing a finished
        // shard's lease is pure fsync cost.
        for (const std::uint64_t shard : leases.heldShards()) {
            bool finished = true;
            for (std::uint64_t id = shard; id < specs.size() && finished;
                 id += shards) {
                finished = runtime[id].phase == PointPhase::kDone ||
                           runtime[id].phase == PointPhase::kQuarantined;
            }
            if (finished)
                leases.release(shard);
        }
        leases.renewDue(monotonicSec());
        if (leases.fenced()) {
            outcome.fenced = true;
            outcome.fenceReason = leases.fenceReason();
            break;
        }

        sleepSec(opts.pollIntervalSec);
    }

    killFleet(&fleet);
    reapHelpers(false);

    if (!orchestrationFailed && !journal.ok()) {
        orchestrationFailed = true;
        setErr(err, journal.error());
    }
    journal.close();

    if (outcome.fenced) {
        std::fprintf(diagStream(),
                     "[executor %s] self-fenced (%s): all further "
                     "writes aborted, exiting lease-lost\n",
                     execId.c_str(), outcome.fenceReason.c_str());
    }
    // No-op when fenced: a fenced executor never touches lease files.
    leases.releaseAll();

    // Final tallies (and, from the executor that sees full coverage,
    // the canonical journal + reports). A fenced executor must not
    // write ANY shared file, reports included.
    if (!orchestrationFailed && !outcome.fenced && !mergeFailed) {
        std::uint64_t terminal = 0;
        for (const PointSpec &spec : specs) {
            const auto it = merged.perPoint.find(spec.id);
            if (it != merged.perPoint.end() && it->second.done) {
                outcome.completed += 1;
                ++terminal;
            } else if (it != merged.perPoint.end() &&
                       it->second.quarantined) {
                outcome.quarantined += 1;
                ++terminal;
            } else {
                outcome.missing += 1;
            }
        }
        outcome.staleDropped = mergeStats.staleDropped;
        if (terminal == specs.size()) {
            const std::string suffix = "." + execId + ".tmp";
            std::string werr;
            outcome.reportJson = opts.outDir + "/report.json";
            outcome.reportCsv = opts.outDir + "/report.csv";
            outcome.provenance = opts.outDir + "/provenance.json";
            if (!atomicWriteFile(opts.outDir + "/journal.jsonl",
                                 renderCanonicalJournal(merged), &werr,
                                 suffix) ||
                !atomicWriteFile(outcome.reportJson,
                                 renderReportJson(specs, merged), &werr,
                                 suffix) ||
                !atomicWriteFile(outcome.reportCsv,
                                 renderReportCsv(specs, merged), &werr,
                                 suffix) ||
                !atomicWriteFile(outcome.provenance,
                                 renderProvenanceJson(specs, merged,
                                                      opts.outDir),
                                 &werr, suffix)) {
                orchestrationFailed = true;
                setErr(err, "report write failed: " + werr);
            } else {
                outcome.wroteReports = true;
            }
        }
    }

    if (out)
        *out = outcome;
    return !orchestrationFailed;
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
