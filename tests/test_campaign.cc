/**
 * @file
 * Campaign tests: the resumable campaign loop.
 *
 * The contract under test mirrors the checkpoint suite's, one level up:
 * the aggregate report is a pure function of the grid. However often a
 * campaign is killed and rerun, report.json / report.csv come out the
 * same bytes. The unit half exercises the pieces (exit taxonomy, grid
 * expansion, report rendering, the worker body); the end-to-end half
 * runs campaign::runCampaign, the loop behind `nord-campaign --out`,
 * against tiny grids, forking real workers, and compares report bytes
 * against an in-process reference: every point's worker run directly,
 * its results rendered as a completed campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign_point.hh"
#include "campaign/exit_codes.hh"
#include "campaign/orchestrator.hh"
#include "temp_dir.hh"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace nord {
namespace campaign {
namespace {

/** An empty campaign out-dir, fresh under --gtest_repeat too: leftover
 *  results would make the campaign skip its points instead of running
 *  them. */
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

// ---------------------------------------------------------------------
// Exit-code taxonomy.
// ---------------------------------------------------------------------

TEST(CampaignExitCodes, ClassificationTable)
{
    EXPECT_EQ(classifyExit(true, kExitOk, false), FailureClass::kNone);
    EXPECT_EQ(classifyExit(true, kExitGateFailure, false),
              FailureClass::kGate);
    EXPECT_EQ(classifyExit(true, kExitBadConfig, false),
              FailureClass::kBadConfig);
    EXPECT_EQ(classifyExit(true, kExitInfraFailure, false),
              FailureClass::kInfra);
    // Outside the taxonomy: a plain exit(1) or a sanitizer's exit
    // classifies as unknown, an abort or a segfault as a crash.
    EXPECT_EQ(classifyExit(true, 1, false), FailureClass::kUnknown);
    EXPECT_EQ(classifyExit(true, 2, false), FailureClass::kUnknown);
    EXPECT_EQ(classifyExit(false, 0, true), FailureClass::kCrash);
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
// Report rendering (pure function of the point outcomes).
// ---------------------------------------------------------------------

TEST(CampaignReport, RenderingIsDeterministic)
{
    GridSpec grid;
    grid.seeds = {1, 2, 3};
    grid.measure = 100;
    const std::vector<PointSpec> specs = expandGrid(grid);

    std::vector<PointOutcome> outcomes(specs.size());
    outcomes[0].resultLine =
        "{\"created\":10,\"delivered\":10,\"deliveredFraction\":1.0000}";
    outcomes[1].cls = FailureClass::kGate;
    outcomes[1].exitCode = kExitGateFailure;
    // Point 2 stays missing (campaign stopped before it finished).

    const std::string json = renderReportJson(specs, outcomes);
    EXPECT_EQ(json, renderReportJson(specs, outcomes));
    EXPECT_NE(json.find("\"status\":\"completed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"quarantined\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\":\"missing\""), std::string::npos);
    EXPECT_NE(json.find("\"class\":\"gate\""), std::string::npos);
    EXPECT_NE(json.find("\"delivered\":10"), std::string::npos)
        << "worker result bytes must appear verbatim";

    const std::string csv = renderReportCsv(specs, outcomes);
    EXPECT_EQ(csv, renderReportCsv(specs, outcomes));
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
}

// ---------------------------------------------------------------------
// End-to-end campaigns (these fork real workers).
// ---------------------------------------------------------------------

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
referenceReport(const std::vector<PointSpec> &specs, const std::string &dir)
{
    std::vector<PointOutcome> outcomes(specs.size());
    for (const PointSpec &spec : specs) {
        const PointPaths paths = pointPaths(dir, spec.id);
        EXPECT_EQ(runPointWorker(spec, paths, WorkerOptions{}), kExitOk);
        EXPECT_TRUE(readResultLine(paths.result,
                                   &outcomes[spec.id].resultLine))
            << "no result for point " << spec.id;
    }
    return {renderReportJson(specs, outcomes),
            renderReportCsv(specs, outcomes)};
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

/** A short synthetic point; its drain phase leaves a checkpoint. */
PointSpec
shortPoint(std::uint64_t id)
{
    PointSpec spec;
    spec.id = id;
    spec.design = PgDesign::kNord;
    spec.rate = 0.05;
    spec.measure = 300;
    return spec;
}

TEST(CampaignWorker, FreshPointDiscardsNothing)
{
    const std::string dir = freshDir("campaign-fresh-point");
    const PointPaths paths = pointPaths(dir, 0);
    testing::internal::CaptureStderr();
    const int rc = runPointWorker(shortPoint(0), paths, WorkerOptions{});
    const std::string diag = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, kExitOk);
    EXPECT_EQ(diag.find("checkpoint"), std::string::npos) << diag;
}

TEST(CampaignWorker, RejectedCheckpointIsDiagnosedAndRecomputed)
{
    // A checkpoint file that exists but cannot be used -- corrupt, or
    // another point's -- is named on stderr, and the point's result is
    // the fresh run's, byte for byte.
    const std::string fresh = freshDir("campaign-reject-fresh");
    ASSERT_EQ(runPointWorker(shortPoint(0), pointPaths(fresh, 0),
                             WorkerOptions{}),
              kExitOk);
    const std::string expected = slurp(pointPaths(fresh, 0).result);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(runPointWorker(shortPoint(1), pointPaths(fresh, 1),
                             WorkerOptions{}),
              kExitOk);
    const std::string otherPoint = slurp(pointPaths(fresh, 1).checkpoint);
    ASSERT_FALSE(otherPoint.empty());

    const std::pair<const char *, std::string> cases[] = {
        {"is not a checkpoint", std::string(256, 'x')},
        {"it belongs to point 1", otherPoint},
    };
    for (const auto &[reason, bytes] : cases) {
        SCOPED_TRACE(reason);
        const std::string dir = freshDir("campaign-reject");
        const PointPaths paths = pointPaths(dir, 0);
        {
            std::ofstream out(paths.checkpoint,
                              std::ios::out | std::ios::binary);
            out << bytes;
        }
        testing::internal::CaptureStderr();
        const int rc = runPointWorker(shortPoint(0), paths, WorkerOptions{});
        const std::string diag = testing::internal::GetCapturedStderr();
        EXPECT_EQ(rc, kExitOk);
        EXPECT_NE(diag.find("discarding unusable checkpoint " +
                            paths.checkpoint),
                  std::string::npos)
            << diag;
        EXPECT_NE(diag.find(reason), std::string::npos) << diag;
        EXPECT_EQ(slurp(paths.result), expected);
    }
}

TEST(CampaignEndToEnd, CompletesAndRerunReusesResults)
{
    const std::string dir = freshDir("campaign_e2e");
    const std::vector<PointSpec> specs = expandGrid(e2eGrid());

    CampaignOutcome out;
    std::string err;
    ASSERT_TRUE(runCampaign(specs, dir, 2, &out, &err)) << err;
    EXPECT_EQ(out.completed, specs.size());
    EXPECT_EQ(out.quarantined, 0u);
    EXPECT_EQ(out.launches, specs.size());
    const std::string json1 = slurp(dir + "/report.json");
    const std::string csv1 = slurp(dir + "/report.csv");
    ASSERT_FALSE(json1.empty());
    ASSERT_FALSE(csv1.empty());
    const auto gold = referenceReport(specs, freshDir("campaign_e2e_gold"));
    EXPECT_EQ(json1, gold.first)
        << "the campaign must reproduce the in-process reference report "
           "byte for byte";
    EXPECT_EQ(csv1, gold.second);

    // A rerun skips every point that has its result file: with one
    // deleted, exactly one worker runs, and the reports keep their bytes.
    ASSERT_EQ(std::remove(pointPaths(dir, 1).result.c_str()), 0);
    ASSERT_TRUE(runCampaign(specs, dir, 2, &out, &err)) << err;
    EXPECT_EQ(out.launches, 1u);
    EXPECT_EQ(out.completed, specs.size());
    EXPECT_EQ(slurp(dir + "/report.json"), json1);
    EXPECT_EQ(slurp(dir + "/report.csv"), csv1);
}

TEST(CampaignEndToEnd, OtherGridOnTheDirIsRefused)
{
    // A checkpoint of another rate or seed would pass loadCheckpoint's
    // config check, so a directory holding another grid is refused
    // before any result or checkpoint in it is reused or rewritten.
    const std::string dir = freshDir("campaign_grid_guard");
    const std::vector<PointSpec> specs = expandGrid(e2eGrid());
    CampaignOutcome out;
    std::string err;
    ASSERT_TRUE(runCampaign(specs, dir, 2, &out, &err)) << err;
    const std::string result0 = slurp(pointPaths(dir, 0).result);
    const auto mtime0 =
        std::filesystem::last_write_time(pointPaths(dir, 0).result);

    GridSpec other = e2eGrid();
    other.seeds = {1, 3};
    EXPECT_FALSE(runCampaign(expandGrid(other), dir, 2, &out, &err));
    EXPECT_NE(err.find("different grid"), std::string::npos) << err;
    EXPECT_EQ(out.launches, 0u);
    EXPECT_EQ(slurp(pointPaths(dir, 0).result), result0);
    EXPECT_EQ(std::filesystem::last_write_time(pointPaths(dir, 0).result),
              mtime0);
}

TEST(CampaignEndToEnd, PoisonPointQuarantinedWithDiagnostics)
{
    // A delivery gate no run can pass fails point 1 deterministically:
    // it is quarantined on its first attempt with its class and exit
    // code, and the other point completes.
    const std::string dir = freshDir("campaign_poison");
    std::vector<PointSpec> specs = expandGrid(e2eGrid());
    ASSERT_GE(specs.size(), 2u);
    specs[1].minDelivered = 2.0;

    CampaignOutcome out;
    std::string err;
    ASSERT_TRUE(runCampaign(specs, dir, 2, &out, &err)) << err;
    EXPECT_EQ(out.completed, specs.size() - 1);
    EXPECT_EQ(out.quarantined, 1u);
    EXPECT_EQ(out.launches, specs.size());

    const std::string json = slurp(dir + "/report.json");
    EXPECT_NE(json.find("\"status\":\"quarantined\",\"class\":\"gate\","
                        "\"exit\":10,\"signal\":0"),
              std::string::npos)
        << json;
}

#ifdef __linux__
/** Seconds on a monotonic clock. */
double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepSec(double sec)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

/** Nanosecond mtime of @p path, or 0 when it does not exist. */
std::int64_t
mtimeNs(const std::string &path)
{
    std::error_code ec;
    const auto t = std::filesystem::last_write_time(path, ec);
    return ec ? 0
              : std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t.time_since_epoch())
                    .count();
}

/** A grid whose points run effectively forever at test scale. */
std::vector<PointSpec>
unboundedSpecs()
{
    GridSpec grid = e2eGrid();
    grid.measure = 500000000;
    return expandGrid(grid);
}

/**
 * Fork a campaign running @p specs in @p dir and wait until point 0's
 * worker has saved two checkpoints. Returns the campaign's pid, or -1
 * (after killing it) when no second save appeared. The child exits 0
 * only when every point completed and the reports were written.
 */
pid_t
forkLiveCampaign(const std::string &dir, const std::vector<PointSpec> &specs)
{
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        CampaignOutcome out;
        std::string err;
        const bool ok = runCampaign(specs, dir, 2, &out, &err);
        _exit(ok && out.completed == specs.size() ? 0 : 1);
    }

    const std::string ckpt0 = pointPaths(dir, specs[0].id).checkpoint;
    std::int64_t last = 0;
    bool saving = false;
    const double deadline = nowSec() + 30.0;
    while (nowSec() < deadline && !saving) {
        const std::int64_t m = mtimeNs(ckpt0);
        saving = last != 0 && m != last;
        last = m;
        sleepSec(0.005);
    }
    if (!saving) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        return -1;
    }
    return pid;
}

// The campaign directory is flock()ed for the run, so a second `--out`
// on a live campaign directory is refused before it can launch a worker.
TEST(CampaignEndToEnd, SecondConcurrentOutRunIsRefused)
{
    const std::string dir = freshDir("campaign_second_out");
    const std::vector<PointSpec> specs = unboundedSpecs();
    const pid_t first = forkLiveCampaign(dir, specs);
    ASSERT_GT(first, 0) << "workers never started saving checkpoints";

    CampaignOutcome out;
    std::string err;
    EXPECT_FALSE(runCampaign(specs, dir, 2, &out, &err));
    EXPECT_NE(err.find("locked"), std::string::npos) << err;
    EXPECT_EQ(out.launches, 0u);

    ASSERT_EQ(kill(first, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(first, &status, 0), first);
}

// A SIGKILLed campaign gets no chance to run any cleanup path; only the
// workers' own PR_SET_PDEATHSIG (orchestrator.cc) can end them. Fork a
// campaign, wait until its workers save checkpoints, SIGKILL it, and
// verify every checkpoint mtime freezes -- an orphaned worker would keep
// saving one every 5000 cycles.
TEST(CampaignEndToEnd, SigkilledOrchestratorLeavesNoOrphanWorkers)
{
    const std::string dir = freshDir("campaign_orphan");
    const std::vector<PointSpec> specs = unboundedSpecs();
    const pid_t orch = forkLiveCampaign(dir, specs);
    ASSERT_GT(orch, 0) << "workers never started saving checkpoints";

    ASSERT_EQ(kill(orch, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(orch, &status, 0), orch);

    // PDEATHSIG delivery is immediate; allow in-flight writes to land,
    // then require every checkpoint mtime to be frozen across a window
    // many save periods long.
    sleepSec(0.3);
    for (const PointSpec &s : specs) {
        const std::string ckpt = pointPaths(dir, s.id).checkpoint;
        const std::int64_t before = mtimeNs(ckpt);
        sleepSec(0.7);
        EXPECT_EQ(mtimeNs(ckpt), before)
            << "an orphaned worker is still saving " << ckpt;
    }
}

// A campaign SIGKILLed mid-run leaves only its workers' checkpoints and
// results. Its workers die with it, and rerunning it on the same
// directory resumes to an undisturbed run's report bytes, dead-router
// points (whose dead router only the checkpoint carries) included.
TEST(CampaignEndToEnd, SigkilledExecutorResumesToTheSameReport)
{
    GridSpec grid = e2eGrid();
    grid.measure = 100000;  // the kill must land while workers run
    grid.deadRouters = {kInvalidNode, 10};
    const std::vector<PointSpec> specs = expandGrid(grid);

    CampaignOutcome clean;
    std::string err;
    const std::string cleanDir = freshDir("campaign_sigkill_clean");
    ASSERT_TRUE(runCampaign(specs, cleanDir, 2, &clean, &err)) << err;
    ASSERT_EQ(clean.completed, specs.size());

    const std::string dir = freshDir("campaign_sigkill");
    const pid_t pid = forkLiveCampaign(dir, specs);
    ASSERT_GT(pid, 0) << "workers never started saving checkpoints";
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_FALSE(std::filesystem::exists(dir + "/report.json"))
        << "the campaign finished before the kill; the test proved "
           "nothing";

    // The workers closed their copy of the lock, so the rerun may start
    // at once.
    CampaignOutcome out;
    ASSERT_TRUE(runCampaign(specs, dir, 2, &out, &err)) << err;
    EXPECT_EQ(out.completed, specs.size());
    EXPECT_GT(out.launches, 0u);
    EXPECT_EQ(slurp(dir + "/report.json"),
              slurp(cleanDir + "/report.json"));
    EXPECT_EQ(slurp(dir + "/report.csv"), slurp(cleanDir + "/report.csv"));
}
#endif  // __linux__

}  // namespace
}  // namespace campaign
}  // namespace nord
