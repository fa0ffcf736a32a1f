/**
 * @file
 * Campaign tests: the crash-resumable work queue.
 *
 * The contract under test mirrors the checkpoint suite's, one level up:
 * the aggregate report is a pure function of the grid. Any sequence of
 * worker crashes, chaos kills, journal truncations and executor SIGKILLs
 * and reruns must yield byte-identical report.json / report.csv. The
 * unit half exercises the pieces (exit taxonomy, backoff determinism,
 * grid expansion, journal replay/locking); the end-to-end half runs the
 * executor behind `nord-campaign --out` against tiny grids, forking real
 * workers, and compares report bytes against an in-process reference:
 * every point's worker run directly, its results rendered as a
 * completed campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/backoff.hh"
#include "campaign/campaign_point.hh"
#include "campaign/executor.hh"
#include "campaign/exit_codes.hh"
#include "campaign/fleet.hh"
#include "campaign/journal.hh"
#include "campaign/orchestrator.hh"
#include "ckpt/checkpoint.hh"
#include "temp_dir.hh"

#ifdef NORD_CAMPAIGN_POSIX
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace nord {
namespace campaign {
namespace {

/** An empty campaign out-dir, fresh under --gtest_repeat too: a
 *  leftover journal would make the campaign resume-to-terminal instead
 *  of actually running. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testTempPath(name);
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
    std::ofstream out(path, std::ios::out | std::ios::binary |
                                std::ios::trunc);
    out << bytes;
}

// ---------------------------------------------------------------------
// Exit-code taxonomy.
// ---------------------------------------------------------------------

TEST(CampaignExitCodes, ClassificationTable)
{
    EXPECT_EQ(classifyExit(true, kExitOk, false, 0),
              FailureClass::kNone);
    EXPECT_EQ(classifyExit(true, kExitGateFailure, false, 0),
              FailureClass::kGate);
    EXPECT_EQ(classifyExit(true, kExitBadConfig, false, 0),
              FailureClass::kBadConfig);
    EXPECT_EQ(classifyExit(true, kExitInfraFailure, false, 0),
              FailureClass::kInfra);
    // Outside the taxonomy: asserts (134 via abort is a signal, but a
    // plain exit(1)) and sanitizer exits classify as unknown -> retried.
    EXPECT_EQ(classifyExit(true, 1, false, 0), FailureClass::kUnknown);
    EXPECT_EQ(classifyExit(true, 2, false, 0), FailureClass::kUnknown);
    EXPECT_EQ(classifyExit(false, 0, true, SIGSEGV),
              FailureClass::kCrash);
    // Supervisor-inflicted kills override the raw wait status.
    EXPECT_EQ(classifyExit(false, 0, true, SIGKILL, true, false),
              FailureClass::kHang);
    EXPECT_EQ(classifyExit(false, 0, true, SIGKILL, false, true),
              FailureClass::kChaos);
    EXPECT_EQ(classifyExit(false, 0, true, SIGKILL, true, true),
              FailureClass::kChaos) << "chaos attribution wins: the "
                                       "schedule killed it first";
}

TEST(CampaignExitCodes, RetryAndQuarantineSemantics)
{
    EXPECT_TRUE(isDeterministicFailure(FailureClass::kGate));
    EXPECT_TRUE(isDeterministicFailure(FailureClass::kBadConfig));
    EXPECT_FALSE(isDeterministicFailure(FailureClass::kInfra));
    EXPECT_FALSE(isDeterministicFailure(FailureClass::kCrash));
    EXPECT_FALSE(isDeterministicFailure(FailureClass::kHang));
    EXPECT_FALSE(isDeterministicFailure(FailureClass::kChaos));
    EXPECT_FALSE(isDeterministicFailure(FailureClass::kUnknown));

    EXPECT_FALSE(failureCountsTowardQuarantine(FailureClass::kNone));
    EXPECT_FALSE(failureCountsTowardQuarantine(FailureClass::kChaos))
        << "chaos kills are the supervisor's own doing and must never "
           "charge the point's budget";
    EXPECT_TRUE(failureCountsTowardQuarantine(FailureClass::kInfra));
    EXPECT_TRUE(failureCountsTowardQuarantine(FailureClass::kHang));
    EXPECT_TRUE(failureCountsTowardQuarantine(FailureClass::kCrash));
}

TEST(CampaignExitCodes, ClassNamesRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(FailureClass::kUnknown); ++i) {
        const FailureClass c = static_cast<FailureClass>(i);
        EXPECT_EQ(failureClassFromName(failureClassName(c)), c);
    }
    EXPECT_EQ(failureClassFromName("not-a-class"),
              FailureClass::kUnknown);
}

// ---------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------

TEST(CampaignBackoff, DeterministicCappedAndBounded)
{
    BackoffPolicy p;
    p.initialSec = 0.25;
    p.maxSec = 4.0;
    p.jitterFraction = 0.5;
    for (int attempt = 1; attempt <= 24; ++attempt) {
        const double d = backoffDelaySec(p, attempt, 0x1234);
        EXPECT_EQ(d, backoffDelaySec(p, attempt, 0x1234))
            << "replayed campaigns must reschedule identically";
        EXPECT_GT(d, 0.0);
        EXPECT_LE(d, p.maxSec);
        // Jitter only shrinks the base delay, never below (1-j) of it.
        double base = p.initialSec;
        for (int i = 1; i < attempt && base < p.maxSec; ++i)
            base *= 2.0;
        base = std::min(base, p.maxSec);
        EXPECT_GE(d, base * (1.0 - p.jitterFraction) - 1e-12);
    }
}

TEST(CampaignBackoff, ZeroJitterIsExactDoubling)
{
    BackoffPolicy p;
    p.initialSec = 0.5;
    p.maxSec = 8.0;
    p.jitterFraction = 0.0;
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 1, 7), 0.5);
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 2, 7), 1.0);
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 3, 7), 2.0);
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 4, 7), 4.0);
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 5, 7), 8.0);
    EXPECT_DOUBLE_EQ(backoffDelaySec(p, 9, 7), 8.0) << "capped";
}

TEST(CampaignBackoff, DistinctNoiseDesynchronizes)
{
    // The whole reason jitter exists: two points that fail together must
    // not retry together.
    BackoffPolicy p;
    int differing = 0;
    for (int attempt = 1; attempt <= 8; ++attempt) {
        if (backoffDelaySec(p, attempt, 1) !=
            backoffDelaySec(p, attempt, 2))
            ++differing;
    }
    EXPECT_GE(differing, 6);
}

TEST(CampaignBackoff, DelaysArePinned)
{
    // The jitter is an FNV-1a fold of (noise, attempt); a resumed
    // campaign reschedules only if these values never move.
    const BackoffPolicy p;
    EXPECT_EQ(backoffDelaySec(p, 1, 0), 0.19865923606743502);
    EXPECT_EQ(backoffDelaySec(p, 1, 0x1234), 0.23836359732508816);
    EXPECT_EQ(backoffDelaySec(p, 2, 0xdeadbeefcafef00dULL),
              0.39203216065032465);
    EXPECT_EQ(backoffDelaySec(p, 3, 0), 0.67362288357438405);
    EXPECT_EQ(backoffDelaySec(p, 8, 0x1234), 26.310108052022976);
}

// ---------------------------------------------------------------------
// Grid expansion.
// ---------------------------------------------------------------------

TEST(CampaignGrid, FingerprintIsPinned)
{
    // The journal's open header stores this value and a replay refuses
    // any other, so a journal written by an earlier build must still
    // match the fingerprint of the same grid.
    GridSpec grid;
    grid.designs = {PgDesign::kNoPg, PgDesign::kNord};
    grid.patterns = {TrafficPattern::kUniformRandom,
                     TrafficPattern::kTranspose};
    grid.parsec = {"canneal"};
    grid.rates = {0.02, 0.1};
    grid.faultRates = {0.0, 1e-4};
    grid.seeds = {1, 2};
    grid.measure = 3000;
    grid.minDelivered = 0.99;
    const std::vector<PointSpec> specs = expandGrid(grid);
    ASSERT_EQ(specs.size(), 40u);
    EXPECT_EQ(gridFingerprint(specs), 0xaf607b6cb9c5c0b5ULL);
}

TEST(CampaignGrid, ExpansionOrderIdsAndFingerprint)
{
    GridSpec grid;
    grid.designs = {PgDesign::kNord, PgDesign::kConvPg};
    grid.patterns = {TrafficPattern::kUniformRandom,
                     TrafficPattern::kTranspose};
    grid.parsec = {"blackscholes"};
    grid.rates = {0.05, 0.10};
    grid.faultRates = {0.0, 1e-4};
    grid.seeds = {1, 2};

    const std::vector<PointSpec> specs = expandGrid(grid);
    // Per design: 2 patterns x 2 rates + 1 parsec (closed loop, no rate
    // axis), then x 2 fault rates x 2 seeds.
    EXPECT_EQ(specs.size(), 2u * (2 * 2 + 1) * 2 * 2);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].id, i) << "ids must be dense and sequential";
    // Design is the major axis.
    EXPECT_EQ(specs.front().design, PgDesign::kNord);
    EXPECT_EQ(specs.back().design, PgDesign::kConvPg);

    // The fingerprint is stable and sensitive.
    const std::uint64_t fp = gridFingerprint(specs);
    EXPECT_EQ(fp, gridFingerprint(expandGrid(grid)));
    grid.seeds = {1, 3};
    EXPECT_NE(fp, gridFingerprint(expandGrid(grid)));
}

TEST(CampaignGrid, SpecJsonIsCanonical)
{
    PointSpec spec;
    spec.id = 7;
    const std::string j = specJson(spec);
    EXPECT_EQ(j, specJson(spec)) << "byte layout is a resume contract";
    EXPECT_NE(j.find("\"id\":7"), std::string::npos) << j;
    EXPECT_EQ(j.find('\n'), std::string::npos) << "one line";
}

// ---------------------------------------------------------------------
// Journal.
// ---------------------------------------------------------------------

TEST(CampaignJournalTest, AppendReplayRoundTrip)
{
    const std::string path = testTempPath("journal_roundtrip.jsonl");
    std::remove(path.c_str());

    ReplayState replay;
    std::string err;
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, 3, 0xabcdef, &replay, &err)) << err;
        EXPECT_FALSE(replay.tornTail);
        EXPECT_TRUE(j.appendAttempt(0, 1));
        EXPECT_TRUE(j.appendDone(0, "{\"x\":1,\"y\":\"a b\"}"));
        EXPECT_TRUE(j.appendAttempt(1, 1));
        EXPECT_TRUE(j.appendFail(1, FailureClass::kInfra,
                                 kExitInfraFailure, 0, true, "tail\ntxt",
                                 "p1.ckpt"));
        QuarantineRecord q;
        q.cls = FailureClass::kGate;
        q.exitCode = kExitGateFailure;
        q.stderrTail = "gate said no";
        q.ckptPath = "p2.ckpt";
        EXPECT_TRUE(j.appendQuarantine(2, q));
        j.close();
    }
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, 3, 0xabcdef, &replay, &err)) << err;
        EXPECT_TRUE(replay.opened);
        EXPECT_TRUE(replay.perPoint[0].done);
        EXPECT_EQ(replay.perPoint[0].resultLine,
                  "{\"x\":1,\"y\":\"a b\"}")
            << "result bytes must round-trip verbatim";
        EXPECT_EQ(replay.perPoint[1].countedFailures, 1);
        EXPECT_EQ(replay.perPoint[1].launches, 1);
        EXPECT_FALSE(replay.perPoint[1].done);
        EXPECT_TRUE(replay.perPoint[2].quarantined);
        EXPECT_EQ(replay.perPoint[2].quarantine.cls,
                  FailureClass::kGate);
        EXPECT_EQ(replay.perPoint[2].quarantine.exitCode,
                  kExitGateFailure);
        EXPECT_EQ(replay.perPoint[2].quarantine.stderrTail,
                  "gate said no");
        j.close();
    }
    // A different grid must refuse the journal, not silently mix runs.
    CampaignJournal other;
    EXPECT_FALSE(other.open(path, 3, 0x999999, &replay, &err));
    EXPECT_FALSE(other.open(path, 4, 0xabcdef, &replay, &err));
    std::remove(path.c_str());
}

TEST(CampaignJournalTest, TornTailIgnoredAndRepaired)
{
    const std::string path = testTempPath("journal_torn.jsonl");
    std::remove(path.c_str());
    ReplayState replay;
    std::string err;
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, 2, 0x42, &replay, &err)) << err;
        ASSERT_TRUE(j.appendAttempt(0, 1));
        ASSERT_TRUE(j.appendDone(0, "{\"ok\":true}"));
        j.close();
    }
    // Simulate a crash mid-append: a final line with no newline.
    const std::string intact = slurp(path);
    spew(path, intact + "{\"event\":\"done\",\"point\":1,\"resu");
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, 2, 0x42, &replay, &err)) << err;
        EXPECT_TRUE(replay.tornTail)
            << "the torn line is a crash artifact, not an event";
        EXPECT_TRUE(replay.perPoint[0].done);
        EXPECT_FALSE(replay.perPoint[1].done);
        // open() truncates the torn bytes so the next append starts on
        // a clean line boundary.
        ASSERT_TRUE(j.appendDone(1, "{\"ok\":true}"));
        j.close();
    }
    {
        CampaignJournal j;
        ASSERT_TRUE(j.open(path, 2, 0x42, &replay, &err)) << err;
        EXPECT_FALSE(replay.tornTail);
        EXPECT_TRUE(replay.perPoint[1].done);
        j.close();
    }
    std::remove(path.c_str());
}

TEST(CampaignJournalTest, LockExcludesSecondOrchestrator)
{
    const std::string path = testTempPath("journal_lock.jsonl");
    std::remove(path.c_str());
    ReplayState replay;
    std::string err;
    CampaignJournal j1;
    ASSERT_TRUE(j1.open(path, 1, 0x1, &replay, &err)) << err;
    CampaignJournal j2;
    EXPECT_FALSE(j2.open(path, 1, 0x1, &replay, &err))
        << "two live executors would interleave journal writes";
    j1.close();
    CampaignJournal j3;
    EXPECT_TRUE(j3.open(path, 1, 0x1, &replay, &err)) << err;
    j3.close();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Report rendering (pure function of replayed state).
// ---------------------------------------------------------------------

TEST(CampaignReport, RenderingIsDeterministic)
{
    GridSpec grid;
    grid.seeds = {1, 2, 3};
    grid.measure = 100;
    const std::vector<PointSpec> specs = expandGrid(grid);

    ReplayState state;
    state.opened = true;
    state.points = specs.size();
    state.perPoint[0].done = true;
    state.perPoint[0].resultLine =
        "{\"created\":10,\"delivered\":10,\"deliveredFraction\":1.0000}";
    state.perPoint[1].quarantined = true;
    state.perPoint[1].quarantine.cls = FailureClass::kGate;
    state.perPoint[1].quarantine.exitCode = kExitGateFailure;
    // Point 2 stays missing (campaign drained before it finished).

    const std::string json = renderReportJson(specs, state);
    EXPECT_EQ(json, renderReportJson(specs, state));
    EXPECT_NE(json.find("\"status\":\"completed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"quarantined\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\":\"missing\""), std::string::npos);
    EXPECT_NE(json.find("\"class\":\"gate\""), std::string::npos);
    EXPECT_NE(json.find("\"delivered\":10"), std::string::npos)
        << "worker result bytes must appear verbatim";

    const std::string csv = renderReportCsv(specs, state);
    EXPECT_EQ(csv, renderReportCsv(specs, state));
    // Header plus one row per point.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
              static_cast<long>(specs.size()) + 1);
    // Completed, quarantined and missing rows all have the header's
    // field count.
    std::istringstream rows(csv);
    std::string header;
    ASSERT_TRUE(std::getline(rows, header));
    for (std::string row; std::getline(rows, row);)
        EXPECT_EQ(std::count(row.begin(), row.end(), ','),
                  std::count(header.begin(), header.end(), ','))
            << row;

    // Nondeterministic diagnostics live in provenance, not the report.
    state.perPoint[1].quarantine.stderrTail = "varies per run";
    state.perPoint[1].quarantine.ckptPath = "point-1.ckpt";
    EXPECT_EQ(json, renderReportJson(specs, state));
    EXPECT_EQ(csv, renderReportCsv(specs, state));
    const std::string prov =
        renderProvenanceJson(specs, state, "/tmp/out");
    EXPECT_NE(prov.find("varies per run"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end campaigns (these fork real workers).
// ---------------------------------------------------------------------

/** What `nord-campaign --out outDir` runs, tuned for test speed. */
ExecutorOptions
e2eOptions(const std::string &outDir)
{
    ExecutorOptions opts;
    opts.outDir = outDir;
    opts.workers = 2;
    opts.maxFailures = 2;
    opts.hangTimeoutSec = 30.0;
    opts.pollIntervalSec = 0.01;
    opts.worker.checkpointEvery = 100;
    opts.backoff.initialSec = 0.05;
    opts.backoff.maxSec = 0.2;
    return opts;
}

GridSpec
e2eGrid()
{
    GridSpec grid;
    grid.designs = {PgDesign::kNord};
    grid.rates = {0.05};
    grid.seeds = {1, 2};
    grid.measure = 300;
    return grid;
}

/**
 * In-process reference report for @p specs: runPointWorker per point
 * (artifacts under the existing @p dir), then the results rendered as a
 * completed campaign. Returns {report.json, report.csv} bytes.
 */
std::pair<std::string, std::string>
referenceReport(const std::vector<PointSpec> &specs, const std::string &dir,
                const WorkerOptions &wopts)
{
    ReplayState state;
    state.opened = true;
    state.points = specs.size();
    state.gridFp = gridFingerprint(specs);
    for (const PointSpec &spec : specs) {
        const PointPaths paths = pointPaths(dir, spec.id);
        EXPECT_EQ(runPointWorker(spec, paths, wopts), kExitOk);
        ReplayPoint &p = state.perPoint[spec.id];
        p.done = readResultLine(paths.result, &p.resultLine);
        EXPECT_TRUE(p.done) << "no result for point " << spec.id;
    }
    return {renderReportJson(specs, state), renderReportCsv(specs, state)};
}

TEST(CampaignWorker, ResultLinesArePinned)
{
    // Report bytes are result lines passed through verbatim, so the
    // worker's reduction and its JSON layout are pinned byte for byte:
    // one faulted synthetic point, one PARSEC point, and a No_PG point
    // whose router 10 is dead. The grid exempts that one from its
    // delivery gate, so it completes while losing packets.
    PointSpec synthetic;
    synthetic.id = 7;
    synthetic.design = PgDesign::kNord;
    synthetic.rate = 0.08;
    synthetic.seed = 3;
    synthetic.measure = 1500;
    synthetic.faultRate = 1e-3;
    synthetic.minDelivered = 0.99;

    PointSpec parsec;
    parsec.id = 2;
    parsec.design = PgDesign::kConvPgOpt;
    parsec.kind = WorkloadKind::kParsec;
    parsec.parsec = "swaptions";
    parsec.rate = 0.0;
    parsec.measure = 0;
    parsec.minDelivered = 0.99;

    GridSpec deadGrid;
    deadGrid.designs = {PgDesign::kNoPg};
    deadGrid.deadRouters = {10};
    deadGrid.minDelivered = 0.99;
    PointSpec dead = expandGrid(deadGrid).at(0);
    dead.id = 3;

    const std::pair<PointSpec, const char *> cases[] = {
        {synthetic,
         "{\"id\":7,\"design\":\"NoRD\",\"workload\":\"uniform_random\","
         "\"rate\":0.08,\"seed\":3,\"rows\":4,\"cols\":4,\"cycles\":1500,"
         "\"faultRate\":0.001,\"minDelivered\":0.99,\"status\":\"ok\","
         "\"endCycle\":1968,\"created\":587,\"delivered\":587,"
         "\"failed\":0,\"deliveredFraction\":1.000000,"
         "\"avgLatency\":30.770017,\"p99Latency\":121.000000,"
         "\"avgHops\":4.616695,\"wakeups\":183,\"offFraction\":0.279376,"
         "\"energyJ\":2.869928e-06,\"injectedFaults\":25,"
         "\"retransmits\":24,\"recovered\":22,\"flitsEaten\":0,"
         "\"drained\":true}\n"},
        {parsec,
         "{\"id\":2,\"design\":\"Conv_PG_OPT\","
         "\"workload\":\"parsec:swaptions\",\"rate\":0,\"seed\":1,"
         "\"rows\":4,\"cols\":4,\"cycles\":0,\"faultRate\":0,"
         "\"minDelivered\":0.99,\"status\":\"ok\",\"endCycle\":31385,"
         "\"created\":16596,\"delivered\":16596,\"failed\":0,"
         "\"deliveredFraction\":1.000000,\"avgLatency\":21.460051,"
         "\"p99Latency\":67.000000,\"avgHops\":2.549289,"
         "\"wakeups\":2552,\"offFraction\":0.640320,"
         "\"energyJ\":3.059461e-05,\"injectedFaults\":0,"
         "\"retransmits\":0,\"recovered\":0,\"flitsEaten\":0,"
         "\"drained\":true}\n"},
        {dead,
         "{\"id\":3,\"design\":\"No_PG\",\"workload\":\"uniform_random\","
         "\"rate\":0.1,\"seed\":1,\"rows\":4,\"cols\":4,\"cycles\":2000,"
         "\"faultRate\":0,\"minDelivered\":0,\"deadRouter\":10,"
         "\"status\":\"ok\",\"endCycle\":67275,\"created\":1009,"
         "\"delivered\":691,\"failed\":442,"
         "\"deliveredFraction\":0.684836,\"avgLatency\":21.827786,"
         "\"p99Latency\":40.000000,\"avgHops\":3.575977,\"wakeups\":0,"
         "\"offFraction\":0.000000,\"energyJ\":6.934423e-05,"
         "\"injectedFaults\":0,\"retransmits\":3544,\"recovered\":4,"
         "\"flitsEaten\":8016,\"drained\":true}\n"},
    };
    const std::string dir = freshDir("campaign-golden");
    for (const auto &[spec, golden] : cases) {
        const PointPaths paths = pointPaths(dir, spec.id);
        ASSERT_EQ(runPointWorker(spec, paths, WorkerOptions{}), kExitOk);
        EXPECT_EQ(slurp(paths.result), golden);
    }
}

TEST(CampaignWorker, DeadRouterCostsOnlyTheBaselinesDelivery)
{
    // The resilience study's dead-router scenario on 4x4: NoRD gates the
    // dead router and its node stays reachable over the bypass ring,
    // while each baseline loses the victim's traffic. No point is
    // gated, so every one completes.
    GridSpec grid;
    grid.designs = {PgDesign::kNoPg, PgDesign::kConvPg,
                    PgDesign::kConvPgOpt, PgDesign::kNord};
    grid.deadRouters = {10};
    grid.minDelivered = 0.99;
    const std::string dir = freshDir("campaign-dead-router");
    for (const PointSpec &spec : expandGrid(grid)) {
        EXPECT_EQ(spec.minDelivered, 0.0);
        const PointPaths paths = pointPaths(dir, spec.id);
        ASSERT_EQ(runPointWorker(spec, paths, WorkerOptions{}), kExitOk)
            << pgDesignName(spec.design);
        std::string line;
        std::string delivered;
        ASSERT_TRUE(readResultLine(paths.result, &line));
        ASSERT_TRUE(jsonFieldRaw(line, "deliveredFraction", &delivered));
        if (spec.design == PgDesign::kNord)
            EXPECT_EQ(delivered, "1.000000") << line;
        else
            EXPECT_LT(std::stod(delivered), 1.0) << line;
    }
}

TEST(CampaignWorker, DeadRouterOffTheMeshIsBadConfig)
{
    // killRouter would assert on such an id; that abort would be
    // classed as a crash and retried instead of quarantined.
    const std::string dir = freshDir("campaign-bad-dead-router");
    for (NodeId id : {16, -2}) {
        PointSpec spec;
        spec.deadRouter = id;
        spec.measure = 100;
        EXPECT_EQ(runPointWorker(spec, pointPaths(dir, spec.id),
                                 WorkerOptions{}),
                  kExitBadConfig)
            << "dead router " << id;
    }
}

TEST(CampaignWorker, RateOutsideUnitIntervalIsBadConfig)
{
    // A synthetic rate below 0, above 1 or NaN is a bad config, so the
    // point quarantines on its first attempt instead of completing
    // empty or tripping SyntheticTraffic's assert (a retried crash).
    const std::string dir = freshDir("campaign-bad-rate");
    for (double rate : {-0.5, 1.5, std::nan("")}) {
        PointSpec spec;
        spec.rate = rate;
        spec.measure = 100;
        EXPECT_EQ(runPointWorker(spec, pointPaths(dir, spec.id),
                                 WorkerOptions{}),
                  kExitBadConfig)
            << "rate " << rate;
    }
}

#ifdef NORD_CAMPAIGN_POSIX
TEST(CampaignWorker, FullSavesOnScheduleTouchesBetween)
{
    // A heartbeat every 500 cycles: a full save on the attempt's first,
    // then once the last save is checkpointEvery cycles old, and at the
    // run-to-drain phase change; every other heartbeat only touches the
    // file. After each heartbeat the hook winds the file's mtime back to
    // 2001, so the next heartbeat must move it forward even when the
    // bytes stay the same.
    PointSpec spec;
    spec.rate = 0.05;
    spec.measure = 3000;
    WorkerOptions opts;
    opts.checkpointEvery = 1200;
    const PointPaths paths =
        pointPaths(freshDir("campaign-heartbeat"), spec.id);

    // Per heartbeat: its cycle, whether it saved, and the cycle and
    // phase the checkpoint file holds afterwards.
    using Beat = std::tuple<Cycle, bool, Cycle, std::uint64_t>;
    std::vector<Beat> beats;
    std::string lastBytes;
    opts.onHeartbeat = [&](Cycle now, bool saved) {
        std::uint64_t mtimeNs = 0;
        ASSERT_TRUE(fileMtimeNs(paths.checkpoint, &mtimeNs));
        EXPECT_GT(mtimeNs, 1000000000ull * 1000000000ull)
            << "heartbeat at " << now << " left the mtime wound back";
        const std::string bytes = slurp(paths.checkpoint);
        EXPECT_EQ(bytes == lastBytes, !saved)
            << "heartbeat at " << now << ": bytes must change exactly on "
            << "a full save";
        lastBytes = bytes;
        CheckpointMeta meta;
        std::string err;
        ASSERT_TRUE(readCheckpointFile(paths.checkpoint, &meta, nullptr,
                                       &err))
            << err;
        beats.emplace_back(now, saved, meta.cycle, meta.user[0]);
        const struct timespec past[2] = {{1000000000, 0},
                                         {1000000000, 0}};
        ASSERT_EQ(utimensat(AT_FDCWD, paths.checkpoint.c_str(), past, 0), 0);
    };
    ASSERT_EQ(runPointWorker(spec, paths, opts), kExitOk);

    // Phase 0 runs the workload, phase 1 drains; at 0.05 on 4x4 the drain
    // ends within one chunk, so no heartbeat follows the phase change.
    const std::vector<Beat> expected = {
        {500, true, 500, 0},    {1000, false, 500, 0},
        {1500, false, 500, 0},  {2000, true, 2000, 0},
        {2500, false, 2000, 0}, {3000, true, 3000, 1}};
    EXPECT_EQ(beats, expected);
}
#endif

TEST(CampaignEndToEnd, CompletesResumesAndSurvivesJournalTruncation)
{
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_e2e");
    const std::vector<PointSpec> specs = expandGrid(e2eGrid());
    const ExecutorOptions opts = e2eOptions(dir);

    ExecutorOutcome out;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, opts, &out, &err)) << err;
    EXPECT_EQ(out.completed, specs.size());
    EXPECT_EQ(out.quarantined, 0u);
    EXPECT_FALSE(out.interrupted);
    const std::string json1 = slurp(out.reportJson);
    const std::string csv1 = slurp(out.reportCsv);
    ASSERT_FALSE(json1.empty());
    ASSERT_FALSE(csv1.empty());
    const auto gold =
        referenceReport(specs, freshDir("campaign_e2e_gold"), opts.worker);
    EXPECT_EQ(json1, gold.first)
        << "the executor must reproduce the in-process reference report "
           "byte for byte";
    EXPECT_EQ(csv1, gold.second);

    // Resume with everything already terminal: no new launches, same
    // bytes.
    ExecutorOutcome out2;
    ASSERT_TRUE(runExecutor(specs, opts, &out2, &err)) << err;
    EXPECT_EQ(out2.launches, 0u);
    EXPECT_EQ(slurp(out2.reportJson), json1);
    EXPECT_EQ(slurp(out2.reportCsv), csv1);

    // Amputate the journal back to its first two lines (the shape an
    // executor SIGKILL leaves behind): the rerun must redo the lost work
    // -- resuming workers from leftover checkpoints -- and land on the
    // same report bytes.
    const std::string jpath = dir + "/journal.jsonl";
    const std::string full = slurp(jpath);
    std::size_t cut = full.find('\n');
    ASSERT_NE(cut, std::string::npos);
    cut = full.find('\n', cut + 1);
    ASSERT_NE(cut, std::string::npos);
    spew(jpath, full.substr(0, cut + 1));
    std::remove(out.reportJson.c_str());
    std::remove(out.reportCsv.c_str());

    ExecutorOutcome out3;
    ASSERT_TRUE(runExecutor(specs, opts, &out3, &err)) << err;
    EXPECT_EQ(out3.completed, specs.size());
    EXPECT_GT(out3.launches, 0u);
    EXPECT_EQ(slurp(out3.reportJson), json1)
        << "a resumed campaign's report must be byte-identical";
    EXPECT_EQ(slurp(out3.reportCsv), csv1);
}

TEST(CampaignEndToEnd, PoisonPointQuarantinedWithDiagnostics)
{
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_poison");
    std::vector<PointSpec> specs = expandGrid(e2eGrid());
    ASSERT_GE(specs.size(), 2u);
    specs[1].selfTest = SelfTest::kPoison;

    ExecutorOutcome out;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, e2eOptions(dir), &out, &err)) << err;
    EXPECT_EQ(out.completed, specs.size() - 1);
    EXPECT_EQ(out.quarantined, 1u);

    const std::string json = slurp(out.reportJson);
    EXPECT_NE(json.find("\"status\":\"quarantined\""),
              std::string::npos);
    EXPECT_NE(json.find("\"class\":\"gate\""), std::string::npos)
        << "a deterministic gate failure must quarantine on the first "
           "attempt, not burn retries: " << json;
    // The journal carries the quarantine diagnostics.
    const std::string journal = slurp(dir + "/journal.jsonl");
    EXPECT_NE(journal.find("\"event\":\"quarantine\""),
              std::string::npos);
}

TEST(CampaignEndToEnd, HangPointKilledByHeartbeatAndQuarantined)
{
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_hang");
    std::vector<PointSpec> specs = expandGrid(e2eGrid());
    ASSERT_GE(specs.size(), 2u);
    specs[0].selfTest = SelfTest::kHang;

    ExecutorOptions opts = e2eOptions(dir);
    opts.hangTimeoutSec = 0.5;
    opts.worker.checkpointEvery = 50;

    ExecutorOutcome out;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, opts, &out, &err)) << err;
    EXPECT_EQ(out.quarantined, 1u);
    EXPECT_EQ(out.completed, specs.size() - 1);
    const std::string json = slurp(out.reportJson);
    EXPECT_NE(json.find("\"class\":\"hang\""), std::string::npos)
        << json;
}

TEST(CampaignEndToEnd, ChaosKillsNeverChangeTheReport)
{
    clearCampaignDrain();
    GridSpec grid = e2eGrid();
    grid.measure = 20000;  // long enough for the schedule to land kills

    // Undisturbed reference run.
    const std::string cleanDir = freshDir("campaign_chaos_clean");
    const std::vector<PointSpec> specs = expandGrid(grid);
    ExecutorOutcome clean;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, e2eOptions(cleanDir), &clean, &err))
        << err;
    ASSERT_EQ(clean.completed, specs.size());

    // Same grid under chaos: workers are SIGKILLed on a seeded schedule
    // and resume from their checkpoints.
    const std::string chaosDir = freshDir("campaign_chaos");
    ExecutorOptions opts = e2eOptions(chaosDir);
    opts.chaos.enabled = true;
    opts.chaos.seed = 7;
    opts.chaos.meanIntervalSec = 0.05;
    opts.chaos.maxKills = 3;
    ExecutorOutcome chaotic;
    ASSERT_TRUE(runExecutor(specs, opts, &chaotic, &err)) << err;
    EXPECT_EQ(chaotic.completed, specs.size());
    EXPECT_GE(chaotic.chaosKills, 1u)
        << "the schedule never fired; the test proved nothing";

    EXPECT_EQ(slurp(chaotic.reportJson), slurp(clean.reportJson))
        << "chaos kills are uncounted and workers resume bit-exactly, "
           "so the report must not change";
    EXPECT_EQ(slurp(chaotic.reportCsv), slurp(clean.reportCsv));
}

TEST(CampaignEndToEnd, DrainAfterOneLaunchThenRerunCompletes)
{
    // The first run drains itself after a single launch (test hook): a
    // deterministic stand-in for an operator Ctrl-C mid-campaign. The
    // rerun resumes from the journal and finishes the campaign.
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_drain");
    const std::vector<PointSpec> specs = expandGrid(e2eGrid());
    ExecutorOptions first = e2eOptions(dir);
    first.drainAfterLaunches = 1;
    ExecutorOutcome out1;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, first, &out1, &err)) << err;
    EXPECT_TRUE(out1.interrupted);
    EXPECT_EQ(out1.launches, 1u);
    EXPECT_FALSE(out1.wroteReports);
    EXPECT_FALSE(fileExists(dir + "/report.json"));

    ExecutorOutcome out2;
    ASSERT_TRUE(runExecutor(specs, e2eOptions(dir), &out2, &err)) << err;
    EXPECT_FALSE(out2.interrupted);
    EXPECT_TRUE(out2.wroteReports);
    EXPECT_EQ(out2.completed, specs.size());
    const auto gold = referenceReport(specs, freshDir("campaign_drain_gold"),
                                      first.worker);
    EXPECT_EQ(slurp(out2.reportJson), gold.first);
    EXPECT_EQ(slurp(out2.reportCsv), gold.second);
}

#ifdef __linux__
/** A grid whose points run effectively forever at test scale. */
std::vector<PointSpec>
unboundedSpecs()
{
    GridSpec grid = e2eGrid();
    grid.measure = 500000000;
    return expandGrid(grid);
}

/**
 * Fork an executor running @p specs in @p dir and wait until point 0's
 * worker heartbeats (its checkpoint mtime ticks). Returns the executor's
 * pid, or -1 (after killing it) when no heartbeat appeared. The child
 * exits 0 only when every point completed and the reports were written.
 */
pid_t
forkLiveCampaign(const std::string &dir, const std::vector<PointSpec> &specs)
{
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        ExecutorOptions opts = e2eOptions(dir);
        opts.worker.checkpointEvery = 50;  // rapid heartbeats
        ExecutorOutcome out;
        std::string err;
        const bool ok = runExecutor(specs, opts, &out, &err);
        _exit(ok && !out.interrupted && out.wroteReports &&
                      out.completed == specs.size()
                  ? 0
                  : 1);
    }

    const std::string ckpt0 = pointPaths(dir, specs[0].id).checkpoint;
    std::uint64_t last = 0;
    bool beating = false;
    const double deadline = monotonicSec() + 30.0;
    while (monotonicSec() < deadline && !beating) {
        std::uint64_t m = 0;
        if (fileMtimeNs(ckpt0, &m)) {
            beating = (last != 0 && m != last);
            last = m;
        }
        sleepSec(0.02);
    }
    if (!beating) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        return -1;
    }
    return pid;
}

// The journal is flock()ed for the executor's lifetime, so a second
// `--out` on a live campaign directory is refused before it can launch a
// worker.
TEST(CampaignEndToEnd, SecondConcurrentOutRunIsRefused)
{
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_second_out");
    const std::vector<PointSpec> specs = unboundedSpecs();
    const pid_t first = forkLiveCampaign(dir, specs);
    ASSERT_GT(first, 0) << "workers never started heartbeating";

    ExecutorOutcome out;
    std::string err;
    EXPECT_FALSE(runExecutor(specs, e2eOptions(dir), &out, &err));
    EXPECT_NE(err.find("locked"), std::string::npos) << err;
    EXPECT_EQ(out.launches, 0u);

    ASSERT_EQ(kill(first, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(first, &status, 0), first);
}

// A SIGKILL'd executor gets no chance to run any cleanup path; only the
// workers' own PR_SET_PDEATHSIG (fleet.cc) can reap them. Fork an
// executor, wait until its workers heartbeat, SIGKILL it, and verify
// every checkpoint mtime freezes -- an orphaned worker would keep
// heartbeating.
TEST(CampaignEndToEnd, SigkilledOrchestratorLeavesNoOrphanWorkers)
{
    clearCampaignDrain();
    const std::string dir = freshDir("campaign_orphan");
    const std::vector<PointSpec> specs = unboundedSpecs();
    const pid_t orch = forkLiveCampaign(dir, specs);
    ASSERT_GT(orch, 0) << "workers never started heartbeating";

    ASSERT_EQ(kill(orch, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(orch, &status, 0), orch);

    // PDEATHSIG delivery is immediate; allow in-flight writes to land,
    // then require every checkpoint mtime to be frozen across a window
    // several heartbeat periods long.
    sleepSec(0.3);
    for (const PointSpec &s : specs) {
        const std::string ckpt = pointPaths(dir, s.id).checkpoint;
        std::uint64_t before = 0;
        const bool existed = fileMtimeNs(ckpt, &before);
        sleepSec(0.7);
        std::uint64_t after = 0;
        EXPECT_EQ(fileMtimeNs(ckpt, &after), existed);
        EXPECT_EQ(after, before)
            << "an orphaned worker is still heartbeating " << ckpt;
    }
}
// Suspending the executor (Ctrl-Z, laptop sleep) must cost the campaign
// nothing: SIGSTOP it mid-run for 1.5 s while its workers keep going,
// SIGCONT it, and it must finish cleanly with an undisturbed run's
// report bytes.
TEST(CampaignEndToEnd, SuspendedExecutorFinishesCleanly)
{
    clearCampaignDrain();
    GridSpec grid = e2eGrid();
    grid.measure = 20000;  // the stop must land while workers run
    const std::vector<PointSpec> specs = expandGrid(grid);

    const std::string cleanDir = freshDir("campaign_sigstop_clean");
    ExecutorOutcome clean;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, e2eOptions(cleanDir), &clean, &err))
        << err;
    ASSERT_EQ(clean.completed, specs.size());

    const std::string dir = freshDir("campaign_sigstop");
    const pid_t pid = forkLiveCampaign(dir, specs);
    ASSERT_GT(pid, 0) << "workers never started heartbeating";
    ASSERT_EQ(kill(pid, SIGSTOP), 0);
    sleepSec(1.5);
    ASSERT_EQ(kill(pid, SIGCONT), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "the resumed executor did not complete the campaign";
    EXPECT_EQ(slurp(dir + "/report.json"), slurp(clean.reportJson));
    EXPECT_EQ(slurp(dir + "/report.csv"), slurp(clean.reportCsv));
}

// An executor SIGKILLed mid-campaign leaves only its journal and the
// workers' checkpoints. Rerunning it on the same directory must resume
// to an undisturbed run's report bytes, poison quarantine and dead-router
// points (whose dead router only the checkpoint carries) included.
TEST(CampaignEndToEnd, SigkilledExecutorResumesToTheSameReport)
{
    clearCampaignDrain();
    GridSpec grid = e2eGrid();
    grid.measure = 20000;  // the kill must land while workers run
    grid.deadRouters = {kInvalidNode, 10};
    std::vector<PointSpec> specs = expandGrid(grid);
    ASSERT_GE(specs.size(), 2u);
    specs[1].selfTest = SelfTest::kPoison;

    const std::string cleanDir = freshDir("campaign_sigkill_clean");
    ExecutorOutcome clean;
    std::string err;
    ASSERT_TRUE(runExecutor(specs, e2eOptions(cleanDir), &clean, &err))
        << err;
    ASSERT_EQ(clean.quarantined, 1u);

    const std::string dir = freshDir("campaign_sigkill");
    const pid_t pid = forkLiveCampaign(dir, specs);
    ASSERT_GT(pid, 0) << "workers never started heartbeating";
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_FALSE(fileExists(dir + "/report.json"))
        << "the campaign finished before the kill; the test proved "
           "nothing";

    // The workers hold the journal's inherited lock until their
    // PDEATHSIG lands; until then the rerun is refused as locked.
    ExecutorOutcome out;
    bool resumed = false;
    const double deadline = monotonicSec() + 10.0;
    while (!(resumed = runExecutor(specs, e2eOptions(dir), &out, &err)) &&
           err.find("locked") != std::string::npos &&
           monotonicSec() < deadline)
        sleepSec(0.02);
    ASSERT_TRUE(resumed) << err;
    EXPECT_EQ(out.completed, specs.size() - 1);
    EXPECT_EQ(out.quarantined, 1u);
    EXPECT_EQ(slurp(out.reportJson), slurp(clean.reportJson));
    EXPECT_EQ(slurp(out.reportCsv), slurp(clean.reportCsv));
}
#endif  // __linux__

}  // namespace
}  // namespace campaign
}  // namespace nord
