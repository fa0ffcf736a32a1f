/**
 * @file
 * Multi-executor engine tests: the lease protocol, the deterministic
 * journal merge, and end-to-end executor fleets.
 *
 * The contract under test extends the campaign suite's one more
 * level: report.json / report.csv are a pure function of the grid
 * REGARDLESS of executor count, kill schedule, partition timing, or the
 * order journals are merged in. The unit half drives LeaseManager with
 * explicit clocks and folds hand-built and fuzzed journal sets in random
 * orders; the end-to-end half joins real executor processes against
 * tiny grids and compares report bytes against an in-process reference:
 * every point's worker run directly, its results rendered as a
 * completed campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/executor.hh"
#include "campaign/exit_codes.hh"
#include "campaign/fleet.hh"
#include "campaign/journal.hh"
#include "campaign/lease.hh"
#include "campaign/merge.hh"
#include "campaign/orchestrator.hh"

#ifdef NORD_CAMPAIGN_POSIX
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace nord {
namespace campaign {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path,
                      std::ios::out | std::ios::binary | std::ios::trunc);
    out << bytes;
}

#ifdef NORD_CAMPAIGN_POSIX

// ---------------------------------------------------------------------
// Lease protocol.
// ---------------------------------------------------------------------

LeaseOptions
leaseOpts(const std::string &dir, const std::string &execId,
          double graceSec = 0.3)
{
    LeaseOptions o;
    o.leaseDir = dir;
    o.execId = execId;
    o.shards = 2;
    o.graceSec = graceSec;
    o.settleSec = 0.01;
    return o;
}

TEST(LeaseProtocol, FileRoundTripAndGarbageRejected)
{
    const std::string dir = freshDir("lease_file");
    LeaseInfo info;
    info.shard = 3;
    info.token = 7;
    info.beat = 42;
    info.owner = "exec-a";
    const std::string path = leasePath(dir, 3);
    EXPECT_NE(path.find("shard-3.lease"), std::string::npos);
    spew(path, renderLeaseLine(info));
    LeaseInfo got;
    ASSERT_TRUE(readLeaseFile(path, &got));
    EXPECT_EQ(got.shard, 3u);
    EXPECT_EQ(got.token, 7u);
    EXPECT_EQ(got.beat, 42u);
    EXPECT_EQ(got.owner, "exec-a");

    spew(path, "not a lease\n");
    EXPECT_FALSE(readLeaseFile(path, &got));
}

TEST(LeaseProtocol, FreshClaimIsExclusiveWithTokenOne)
{
    const std::string dir = freshDir("lease_claim");
    LeaseManager a, b;
    std::string err;
    ASSERT_TRUE(a.init(leaseOpts(dir, "exec-a"), &err)) << err;
    ASSERT_TRUE(b.init(leaseOpts(dir, "exec-b"), &err)) << err;

    std::uint64_t token = 0;
    const double now = monotonicSec();
    ASSERT_TRUE(a.tryAcquire(0, now, &token));
    EXPECT_EQ(token, 1u) << "a fresh claim always starts the sequence";
    EXPECT_TRUE(a.holds(0));
    EXPECT_TRUE(a.writable(0, monotonicSec()));
    EXPECT_EQ(a.token(0), 1u);

    LeaseInfo file;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &file));
    EXPECT_EQ(file.owner, "exec-a");
    EXPECT_EQ(file.token, 1u);

    // A live lease is not acquirable: b must observe silence first.
    EXPECT_FALSE(b.tryAcquire(0, monotonicSec(), &token));
    EXPECT_FALSE(b.holds(0));
}

TEST(LeaseProtocol, RenewalKeepsOwnershipAgainstObservers)
{
    const std::string dir = freshDir("lease_renew");
    // Generous grace: the loop itself must never fence a on a scheduler
    // stall in a loaded CI runner.
    const double grace = 0.8;
    LeaseManager a, b;
    std::string err;
    ASSERT_TRUE(a.init(leaseOpts(dir, "exec-a", grace), &err)) << err;
    ASSERT_TRUE(b.init(leaseOpts(dir, "exec-b", grace), &err)) << err;

    std::uint64_t token = 0;
    ASSERT_TRUE(a.tryAcquire(0, monotonicSec(), &token));

    // Heartbeat for > graceSec of wall time; b keeps watching and must
    // never see the grace of silence a steal requires.
    const double until = monotonicSec() + grace + 0.2;
    while (monotonicSec() < until) {
        a.renewDue(monotonicSec());
        EXPECT_FALSE(b.tryAcquire(0, monotonicSec(), &token));
        sleepSec(0.02);
    }
    EXPECT_FALSE(a.fenced());
    EXPECT_TRUE(a.writable(0, monotonicSec()));
    LeaseInfo file;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &file));
    EXPECT_EQ(file.owner, "exec-a");
    EXPECT_GT(file.beat, 1u) << "renewals must advance the beat";
}

TEST(LeaseProtocol, ReleasedLeaseIsImmediatelyStealable)
{
    const std::string dir = freshDir("lease_release");
    LeaseManager a, b;
    std::string err;
    ASSERT_TRUE(a.init(leaseOpts(dir, "exec-a"), &err)) << err;
    ASSERT_TRUE(b.init(leaseOpts(dir, "exec-b"), &err)) << err;

    std::uint64_t token = 0;
    ASSERT_TRUE(a.tryAcquire(0, monotonicSec(), &token));
    ASSERT_TRUE(a.tryAcquire(1, monotonicSec(), &token));
    a.release(0);
    EXPECT_FALSE(a.holds(0));
    EXPECT_TRUE(a.holds(1)) << "release() frees only the named shard";
    LeaseInfo file;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &file));
    EXPECT_EQ(file.owner, "") << "released leases carry an empty owner";

    // No grace wait: the very next acquire succeeds, token bumped.
    ASSERT_TRUE(b.tryAcquire(0, monotonicSec(), &token));
    EXPECT_EQ(token, 2u)
        << "the token sequence survives a release (never resets)";
}

TEST(LeaseProtocol, ExpiryStealFencesTheSilentOwner)
{
    const std::string dir = freshDir("lease_steal");
    const double grace = 0.3;
    LeaseManager a, b;
    std::string err;
    ASSERT_TRUE(a.init(leaseOpts(dir, "exec-a", grace), &err)) << err;
    ASSERT_TRUE(b.init(leaseOpts(dir, "exec-b", grace), &err)) << err;

    std::uint64_t token = 0;
    ASSERT_TRUE(a.tryAcquire(0, monotonicSec(), &token));

    // a goes silent (partition). b needs one observation to start its
    // silence clock, then the full grace before the steal lands.
    EXPECT_FALSE(b.tryAcquire(0, monotonicSec(), &token));
    sleepSec(grace + 0.05);
    ASSERT_TRUE(b.tryAcquire(0, monotonicSec(), &token));
    EXPECT_EQ(token, 2u);
    EXPECT_TRUE(b.writable(0, monotonicSec()));

    // The resumed owner must fence on its next renewal, not overwrite
    // the thief -- and a fenced manager never un-fences or writes.
    a.renewDue(monotonicSec());
    EXPECT_TRUE(a.fenced());
    EXPECT_FALSE(a.fenceReason().empty());
    EXPECT_FALSE(a.writable(0, monotonicSec()));
    EXPECT_FALSE(a.holds(0));
    EXPECT_FALSE(a.tryAcquire(1, monotonicSec(), &token))
        << "a fenced manager must refuse every acquisition";
    a.releaseAll();  // must be a no-op
    LeaseInfo file;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &file));
    EXPECT_EQ(file.owner, "exec-b")
        << "the fenced owner wrote a lease file after losing it";
    EXPECT_EQ(file.token, 2u);
}

TEST(LeaseProtocol, StalenessAloneFencesBeforeAnyWrite)
{
    // Self-fencing is clock-local: an owner that cannot prove a renewal
    // younger than grace/2 classifies itself dead even if nobody stole
    // anything -- that margin is what makes the steal sound.
    const std::string dir = freshDir("lease_stale");
    const double grace = 0.2;
    LeaseManager a;
    std::string err;
    ASSERT_TRUE(a.init(leaseOpts(dir, "exec-a", grace), &err)) << err;
    std::uint64_t token = 0;
    ASSERT_TRUE(a.tryAcquire(0, monotonicSec(), &token));
    LeaseInfo before;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &before));

    sleepSec(grace / 2.0 + 0.05);
    EXPECT_FALSE(a.writable(0, monotonicSec()));
    EXPECT_TRUE(a.fenced());
    // renewDue after the fence must not touch the file either.
    a.renewDue(monotonicSec());
    LeaseInfo after;
    ASSERT_TRUE(readLeaseFile(leasePath(dir, 0), &after));
    EXPECT_EQ(after.beat, before.beat)
        << "a fenced owner wrote a heartbeat";
}

TEST(LeaseProtocol, TokenSequencePerShardIsMonotonic)
{
    const std::string dir = freshDir("lease_monotonic");
    std::string err;
    std::uint64_t lastToken = 0;
    for (int gen = 0; gen < 3; ++gen) {
        LeaseManager m;
        ASSERT_TRUE(m.init(leaseOpts(dir, "exec-" + std::to_string(gen)),
                           &err))
            << err;
        std::uint64_t token = 0;
        ASSERT_TRUE(m.tryAcquire(0, monotonicSec(), &token));
        EXPECT_GT(token, lastToken)
            << "tokens must be strictly increasing across owners";
        lastToken = token;
        m.releaseAll();
    }
    EXPECT_EQ(lastToken, 3u);
}

// ---------------------------------------------------------------------
// Deterministic journal merge.
// ---------------------------------------------------------------------

ReplayState
baseState(std::uint64_t points = 4, std::uint64_t fp = 0xfeedULL)
{
    ReplayState s;
    s.opened = true;
    s.points = points;
    s.gridFp = fp;
    return s;
}

void
setDone(ReplayState *s, std::uint64_t id, std::uint64_t token,
        const std::string &result, int launches = 1)
{
    ReplayPoint &p = s->perPoint[id];
    p.done = true;
    p.token = token;
    p.resultLine = result;
    p.launches = launches;
}

void
setQuarantine(ReplayState *s, std::uint64_t id, std::uint64_t token,
              const std::string &tail)
{
    ReplayPoint &p = s->perPoint[id];
    p.quarantined = true;
    p.token = token;
    p.quarantine.cls = FailureClass::kGate;
    p.quarantine.exitCode = kExitGateFailure;
    p.quarantine.stderrTail = tail;
}

TEST(JournalMerge, SumsCountersAndDedupesEqualTerminals)
{
    ReplayState a = baseState(), b = baseState();
    setDone(&a, 0, 1, "{\"v\":1}", 2);
    a.perPoint[0].countedFailures = 1;
    setDone(&b, 0, 1, "{\"v\":1}", 3);
    b.perPoint[0].countedFailures = 2;

    ReplayState merged;
    MergeStats stats;
    std::string err;
    ASSERT_TRUE(mergeReplayStates({a, b}, &merged, &stats, &err)) << err;
    EXPECT_EQ(merged.perPoint[0].launches, 5);
    EXPECT_EQ(merged.perPoint[0].countedFailures, 3);
    EXPECT_TRUE(merged.perPoint[0].done);
    EXPECT_EQ(merged.perPoint[0].resultLine, "{\"v\":1}");
    EXPECT_EQ(stats.duplicates, 1u);
    EXPECT_EQ(stats.staleDropped, 0u);
}

TEST(JournalMerge, StaleLowerTokenCommitRejectedEitherOrder)
{
    // The fencing-token check at merge time: an executor that lost
    // shard ownership committed "done" under token 1 after the new
    // owner re-ran the point under token 2. The stale bytes must lose
    // in BOTH fold orders.
    ReplayState stale = baseState(), fresh = baseState();
    setDone(&stale, 0, 1, "{\"v\":\"stale\"}");
    setDone(&fresh, 0, 2, "{\"v\":\"fresh\"}");

    for (const auto &order :
         {std::vector<ReplayState>{stale, fresh},
          std::vector<ReplayState>{fresh, stale}}) {
        ReplayState merged;
        MergeStats stats;
        std::string err;
        ASSERT_TRUE(mergeReplayStates(order, &merged, &stats, &err))
            << err;
        EXPECT_EQ(merged.perPoint[0].resultLine, "{\"v\":\"fresh\"}");
        EXPECT_EQ(merged.perPoint[0].token, 2u);
        EXPECT_EQ(stats.staleDropped, 1u);
    }
}

TEST(JournalMerge, DoneBeatsQuarantineAtEqualToken)
{
    // One owner quarantined the point, a same-token retry (same owner,
    // later attempt) completed it: success is definitive.
    ReplayState q = baseState(), d = baseState();
    setQuarantine(&q, 1, 2, "boom");
    setDone(&d, 1, 2, "{\"v\":9}");

    for (const auto &order : {std::vector<ReplayState>{q, d},
                              std::vector<ReplayState>{d, q}}) {
        ReplayState merged;
        std::string err;
        ASSERT_TRUE(mergeReplayStates(order, &merged, nullptr, &err))
            << err;
        EXPECT_TRUE(merged.perPoint[1].done);
        EXPECT_FALSE(merged.perPoint[1].quarantined);
    }
}

TEST(JournalMerge, EqualTokenQuarantineTieBreakIsOrderIndependent)
{
    // Quarantine diagnostics (stderr tails) legitimately vary between
    // owners; the winner is chosen by rendered bytes, not fold order.
    ReplayState x = baseState(), y = baseState();
    setQuarantine(&x, 2, 1, "tail-b");
    setQuarantine(&y, 2, 1, "tail-a");

    std::string firstTail;
    for (const auto &order : {std::vector<ReplayState>{x, y},
                              std::vector<ReplayState>{y, x}}) {
        ReplayState merged;
        std::string err;
        ASSERT_TRUE(mergeReplayStates(order, &merged, nullptr, &err))
            << err;
        ASSERT_TRUE(merged.perPoint[2].quarantined);
        if (firstTail.empty())
            firstTail = merged.perPoint[2].quarantine.stderrTail;
        EXPECT_EQ(merged.perPoint[2].quarantine.stderrTail, firstTail);
    }
}

TEST(JournalMerge, SameTokenDivergentDoneIsAHardErrorEitherOrder)
{
    // Two different result byte strings under ONE fencing token cannot
    // both be right: workers are pure functions of their spec, so this
    // means the simulator is nondeterministic. The merge must refuse --
    // in every fold order, including with a third higher-token state
    // that would otherwise win and mask the conflict.
    ReplayState a = baseState(), b = baseState(), c = baseState();
    setDone(&a, 0, 1, "{\"v\":1}");
    setDone(&b, 0, 1, "{\"v\":2}");
    setDone(&c, 0, 2, "{\"v\":3}");

    std::vector<ReplayState> states{a, b, c};
    std::sort(states.begin(), states.end(),
              [](const ReplayState &l, const ReplayState &r) {
                  return l.perPoint.at(0).resultLine <
                         r.perPoint.at(0).resultLine;
              });
    int checked = 0;
    do {
        ReplayState merged;
        std::string err;
        EXPECT_FALSE(mergeReplayStates(states, &merged, nullptr, &err));
        EXPECT_NE(err.find("divergent"), std::string::npos) << err;
        ++checked;
    } while (std::next_permutation(
        states.begin(), states.end(),
        [](const ReplayState &l, const ReplayState &r) {
            return l.perPoint.at(0).resultLine <
                   r.perPoint.at(0).resultLine;
        }));
    EXPECT_EQ(checked, 6);
}

TEST(JournalMerge, FuzzedJournalSetsMergeOrderIndependently)
{
    // Satellite: merge determinism under fuzz. Random journal sets --
    // stale commits, duplicate commits, divergent-diagnostic
    // quarantines, counted failures, torn tails -- must fold to
    // byte-identical canonical journals and reports under every
    // merge order.
    GridSpec grid;
    grid.designs = {PgDesign::kNord};
    grid.rates = {0.05};
    grid.seeds = {1, 2, 3, 4, 5};
    grid.measure = 300;
    const std::vector<PointSpec> specs = expandGrid(grid);
    const std::uint64_t fp = gridFingerprint(specs);
    const std::uint64_t P = specs.size();
    const std::string dir = freshDir("merge_fuzz");

    const auto result = [](std::uint64_t p, std::uint64_t t) {
        // Pure function of (point, token): same-token commits agree,
        // different-token commits differ (so stale drops are visible).
        return std::string("{\"v\":") +
               std::to_string(p * 100 + t) + "}";
    };

    for (unsigned round = 0; round < 6; ++round) {
        std::mt19937 rng(round * 7919u + 13u);
        const int K = 3;

        // Choose each point's winning (token, kind) up front.
        std::vector<std::uint64_t> winTok(P);
        std::vector<bool> winDone(P);
        std::vector<unsigned> winJournal(P);
        for (std::uint64_t p = 0; p < P; ++p) {
            winTok[p] = 1 + rng() % 3;
            winDone[p] = rng() % 4 != 0;
            winJournal[p] = rng() % K;
        }

        std::vector<std::string> contents;
        for (int k = 0; k < K; ++k) {
            const std::string path =
                dir + "/journal-r" + std::to_string(round) + "-" +
                std::to_string(k) + ".jsonl";
            std::error_code ec;
            std::filesystem::remove(path, ec);
            CampaignJournal j;
            ReplayState replay;
            std::string err;
            ASSERT_TRUE(j.open(path, P, fp, &replay, &err)) << err;
            for (std::uint64_t p = 0; p < P; ++p) {
                const ShardStamp stamp{p % 2, winTok[p]};
                if (rng() % 2) {
                    ASSERT_TRUE(j.appendFail(
                        p, FailureClass::kInfra, 12, 0, true,
                        "tail-" + std::to_string(k), "", stamp));
                }
                if (winJournal[p] == static_cast<unsigned>(k)) {
                    if (winDone[p]) {
                        ASSERT_TRUE(j.appendDone(
                            p, result(p, winTok[p]), stamp));
                    } else {
                        QuarantineRecord rec;
                        rec.cls = FailureClass::kGate;
                        rec.exitCode = kExitGateFailure;
                        rec.stderrTail = "q-" + std::to_string(k);
                        ASSERT_TRUE(j.appendQuarantine(p, rec, stamp));
                    }
                } else if (winTok[p] > 1 && rng() % 2) {
                    // A stale commit under a lower token: either kind.
                    const ShardStamp old{p % 2, winTok[p] - 1};
                    if (rng() % 2) {
                        ASSERT_TRUE(j.appendDone(
                            p, result(p, old.token), old));
                    } else {
                        QuarantineRecord rec;
                        rec.cls = FailureClass::kCrash;
                        rec.signal = 9;
                        rec.stderrTail = "stale-" + std::to_string(k);
                        ASSERT_TRUE(j.appendQuarantine(p, rec, old));
                    }
                } else if (winDone[p] && rng() % 2) {
                    // A duplicate of the winner (same token, same
                    // bytes -- the benign steal-race shape).
                    ASSERT_TRUE(j.appendDone(
                        p, result(p, winTok[p]),
                        ShardStamp{p % 2, winTok[p]}));
                }
            }
            j.close();
            std::string content = slurp(path);
            if (rng() % 3 == 0) {
                // Torn tail: cut mid-way through the final line.
                const std::size_t firstNl = content.find('\n');
                ASSERT_NE(firstNl, std::string::npos);
                const std::size_t lastNl =
                    content.find_last_of('\n', content.size() - 2);
                if (lastNl != std::string::npos && lastNl > firstNl)
                    content.resize(lastNl + 1 + rng() % 5);
            }
            contents.push_back(content);
        }

        std::string canonical, reportJ, reportC;
        for (int perm = 0; perm < 5; ++perm) {
            std::shuffle(contents.begin(), contents.end(), rng);
            ReplayState merged;
            MergeStats stats;
            std::string err;
            ASSERT_TRUE(
                mergeJournals(P, fp, contents, &merged, &stats, &err))
                << "round " << round << ": " << err;
            const std::string cj = renderCanonicalJournal(merged);
            const std::string rj = renderReportJson(specs, merged);
            const std::string rc = renderReportCsv(specs, merged);
            if (perm == 0) {
                canonical = cj;
                reportJ = rj;
                reportC = rc;
            } else {
                EXPECT_EQ(cj, canonical)
                    << "round " << round << " perm " << perm
                    << ": canonical journal depends on merge order";
                EXPECT_EQ(rj, reportJ);
                EXPECT_EQ(rc, reportC);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Executor end-to-end.
// ---------------------------------------------------------------------

GridSpec
fleetGrid(int points = 4)
{
    GridSpec grid;
    grid.designs = {PgDesign::kNord};
    grid.rates = {0.05};
    grid.seeds.clear();
    for (int s = 1; s <= points; ++s)
        grid.seeds.push_back(static_cast<std::uint64_t>(s));
    grid.measure = 300;
    return grid;
}

ExecutorOptions
fleetOptions(const std::string &outDir, const std::string &execId)
{
    ExecutorOptions o;
    o.outDir = outDir;
    o.execId = execId;
    o.workers = 2;
    o.maxFailures = 2;
    o.hangTimeoutSec = 30.0;
    o.pollIntervalSec = 0.01;
    o.worker.checkpointEvery = 100;
    o.backoff.initialSec = 0.05;
    o.backoff.maxSec = 0.2;
    return o;
}

/** The report bytes every executor schedule must reproduce. */
struct Reference
{
    std::string json;
    std::string csv;
};

/**
 * In-process reference for @p specs: runPointWorker per point (artifacts
 * under @p dir), then the results rendered as a completed campaign.
 */
Reference
referenceReport(const std::vector<PointSpec> &specs, const std::string &dir)
{
    ReplayState state;
    state.opened = true;
    state.points = specs.size();
    state.gridFp = gridFingerprint(specs);
    WorkerOptions wopts;
    wopts.checkpointEvery = 100;
    for (const PointSpec &spec : specs) {
        const PointPaths paths = pointPaths(dir, spec.id);
        EXPECT_EQ(runPointWorker(spec, paths, wopts), kExitOk);
        ReplayPoint &p = state.perPoint[spec.id];
        p.done = readResultLine(paths.result, &p.resultLine);
        EXPECT_TRUE(p.done) << "no result for point " << spec.id;
    }
    return {renderReportJson(specs, state), renderReportCsv(specs, state)};
}

TEST(ExecutorEndToEnd, SingleJoinMatchesReferenceReportBytes)
{
    clearCampaignDrain();
    const std::vector<PointSpec> specs = expandGrid(fleetGrid());
    const Reference gold =
        referenceReport(specs, freshDir("exec_single_gold"));

    const std::string dir = freshDir("exec_single");
    ExecutorOutcome out;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, fleetOptions(dir, "exec-solo"), &out,
                            &err))
        << err;
    EXPECT_FALSE(out.fenced) << out.fenceReason;
    EXPECT_EQ(out.completed, specs.size());
    EXPECT_TRUE(out.wroteReports);

    EXPECT_EQ(slurp(out.reportJson), gold.json)
        << "a joined fleet of one must reproduce the reference report "
           "byte for byte";
    EXPECT_EQ(slurp(out.reportCsv), gold.csv);

    // The canonical journal replays like any executor journal.
    ReplayState state;
    ASSERT_TRUE(CampaignJournal::replayContent(
        slurp(dir + "/journal.jsonl"), specs.size(),
        gridFingerprint(specs), &state, &err))
        << err;
    for (const PointSpec &s : specs)
        EXPECT_TRUE(state.perPoint[s.id].done);

    // Re-joining a finished campaign launches nothing and rewrites the
    // same bytes (idempotent completion).
    ExecutorOutcome again;
    ASSERT_TRUE(runExecutor(specs, fleetOptions(dir, "exec-late"), &again,
                            &err))
        << err;
    EXPECT_EQ(again.launches, 0u);
    EXPECT_EQ(slurp(again.reportJson), gold.json);
}

TEST(ExecutorEndToEnd, TwoConcurrentExecutorsProduceIdenticalReports)
{
    clearCampaignDrain();
    const std::vector<PointSpec> specs = expandGrid(fleetGrid(6));
    const Reference gold =
        referenceReport(specs, freshDir("exec_pair_gold"));

    const std::string dir = freshDir("exec_pair");
    const pid_t peer = fork();
    ASSERT_GE(peer, 0);
    if (peer == 0) {
        ExecutorOutcome out;
        std::string err;
        const bool ok =
            runExecutor(specs, fleetOptions(dir, "exec-b"), &out, &err);
        _exit(ok && !out.fenced ? 0 : 1);
    }
    ExecutorOutcome out;
    std::string err;
    ASSERT_TRUE(
        runExecutor(specs, fleetOptions(dir, "exec-a"), &out, &err))
        << err;
    int status = 0;
    ASSERT_EQ(waitpid(peer, &status, 0), peer);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "peer executor failed";
    EXPECT_FALSE(out.fenced) << out.fenceReason;

    EXPECT_EQ(slurp(dir + "/report.json"), gold.json)
        << "two cooperating executors must land on the reference bytes";
    EXPECT_EQ(slurp(dir + "/report.csv"), gold.csv);
}

TEST(ExecutorEndToEnd, SequentialHandoverDrainsAndResumes)
{
    clearCampaignDrain();
    const std::vector<PointSpec> specs = expandGrid(fleetGrid());
    const Reference gold =
        referenceReport(specs, freshDir("exec_handover_gold"));

    // Executor 1 drains itself after a single launch (test hook): a
    // deterministic stand-in for an operator Ctrl-C mid-campaign.
    clearCampaignDrain();
    const std::string dir = freshDir("exec_handover");
    ExecutorOptions first = fleetOptions(dir, "exec-first");
    first.drainAfterLaunches = 1;
    ExecutorOutcome out1;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, first, &out1, &err)) << err;
    EXPECT_TRUE(out1.interrupted);
    EXPECT_EQ(out1.launches, 1u);
    EXPECT_FALSE(out1.wroteReports);

    // Executor 2 joins later, adopts the manifest, steals or claims the
    // released shards, and finishes the campaign.
    clearCampaignDrain();
    ExecutorOutcome out2;
    ASSERT_TRUE(runExecutor(specs, fleetOptions(dir, "exec-second"),
                            &out2, &err))
        << err;
    EXPECT_TRUE(out2.wroteReports);
    EXPECT_EQ(out2.completed, specs.size());
    EXPECT_EQ(slurp(out2.reportJson), gold.json);
    EXPECT_EQ(slurp(out2.reportCsv), gold.csv);
}

#endif  // NORD_CAMPAIGN_POSIX

}  // namespace
}  // namespace campaign
}  // namespace nord
