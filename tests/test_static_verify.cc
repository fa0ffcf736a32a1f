/**
 * @file
 * Tests for the offline protocol verifier (src/verify/static/): CDG
 * deadlock analysis, PG-handshake model checking and the config/ring rule
 * lists (NocConfig::problems(), BypassRing::problems()), including the
 * seeded negative cases the passes must catch and the replay of model
 * counterexamples against the live simulator. `ctest -L static` runs
 * these suites; a failing proof prints its counterexample.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/nord_controller.hh"
#include "network/noc_system.hh"
#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"
#include "verify/static/cdg.hh"
#include "verify/static/fsm_check.hh"

namespace nord {
namespace {

// --- CDG deadlock analysis -------------------------------------------------

/**
 * Run the CDG pass on @p config and expect every property to hold. On
 * failure the message carries the summary, each problem and, for a
 * cycle, the counterexample with its replay verdict against the live
 * RoutingPolicy.
 */
void
expectCdgProof(const std::string &label, const NocConfig &config)
{
    CdgAnalysis analysis(config);
    CdgResult result = analysis.run();
    std::string report = label + ": " + result.summary() + "\n";
    for (const std::string &p : result.problems)
        report += "  problem: " + p + "\n";
    if (!result.cycle.empty()) {
        report += result.cycle.describe();
        std::string why;
        report += analysis.replayCycle(result.cycle, &why)
                      ? "  counterexample replays against the live "
                        "RoutingPolicy\n"
                      : "  REPLAY FAILED: " + why + "\n";
    }
    EXPECT_TRUE(result.ok()) << report;
    EXPECT_GT(result.numEscapeChannels, 0) << label;
    EXPECT_GT(result.statesExplored, 0u) << label;
}

TEST(StaticCdg, ShippedMatrixEscapeAcyclic)
{
    for (const NamedConfig &named : shippedConfigs())
        expectCdgProof(named.name, named.config);
}

TEST(StaticCdg, RectangularShapesEscapeAcyclic)
{
    // Non-square and wider meshes: the ring, the dateline and the
    // steering table must hold beyond the shipped square shapes.
    for (PgDesign design : {PgDesign::kNoPg, PgDesign::kConvPg,
                            PgDesign::kConvPgOpt, PgDesign::kNord}) {
        for (auto [rows, cols] : {std::pair{2, 4}, {4, 2}, {4, 6}, {6, 4},
                                  {4, 8}}) {
            expectCdgProof(std::string(pgDesignName(design)) + "-" +
                               std::to_string(rows) + "x" +
                               std::to_string(cols),
                           makeShippedConfig(design, rows, cols));
        }
    }
}

TEST(StaticCdg, SeededDatelinelessRingCycleCaught)
{
    // Forcing every escape hop to level 0 models a single-escape-VC ring
    // without the dateline: the level-0 ring closes on itself and the
    // analysis must report exactly that cycle.
    CdgOptions opts;
    opts.escapeLevelOverride = 0;
    CdgAnalysis analysis(makeShippedConfig(PgDesign::kNord, 4, 4), opts);
    CdgResult result = analysis.run();
    EXPECT_FALSE(result.escapeAcyclic);
    ASSERT_FALSE(result.cycle.empty());

    // The counterexample is the full 16-node Hamiltonian ring at level 0.
    ASSERT_EQ(result.cycle.channels.size(), 16u);
    const BypassRing &ring = analysis.ring();
    for (size_t i = 0; i < result.cycle.channels.size(); ++i) {
        const CdgChannel &ch = result.cycle.channels[i];
        EXPECT_EQ(ch.cls, VcClass::kEscape);
        EXPECT_EQ(ch.escLevel, 0);
        EXPECT_EQ(ch.dir, ring.bypassOutport(ch.from));
        const CdgChannel &next =
            result.cycle.channels[(i + 1) % result.cycle.channels.size()];
        EXPECT_EQ(ring.successor(ch.from), next.from);
    }

    // And it replays: every dependency edge re-derives from the live
    // RoutingPolicy.
    std::string why;
    EXPECT_TRUE(analysis.replayCycle(result.cycle, &why)) << why;
}

TEST(StaticCdg, TamperedCounterexampleFailsReplay)
{
    CdgOptions opts;
    opts.escapeLevelOverride = 0;
    CdgAnalysis analysis(makeShippedConfig(PgDesign::kNord, 4, 4), opts);
    CdgResult result = analysis.run();
    ASSERT_FALSE(result.cycle.empty());

    // A fabricated dependency (wrong direction out of the first channel)
    // must be rejected -- replay confirms cycles exist in the code, not
    // in the analyzer's imagination.
    CdgCounterexample tampered = result.cycle;
    tampered.channels[1].dir =
        opposite(tampered.channels[1].dir);
    std::string why;
    EXPECT_FALSE(analysis.replayCycle(tampered, &why));
    EXPECT_FALSE(why.empty());
}

TEST(StaticCdg, MisrouteCapBookkeepingConsistent)
{
    // The adaptive enumeration cross-checks route() against
    // routeAtBypass() at the cap boundary at every (here, dst) state; any
    // divergence in misroute-cap or forced-escape bookkeeping lands in
    // problems[].
    CdgAnalysis analysis(makeShippedConfig(PgDesign::kNord, 4, 4));
    CdgResult result = analysis.run();
    for (const std::string &p : result.problems)
        ADD_FAILURE() << p;
}

// --- PG-handshake model checker --------------------------------------------

TEST(StaticFsm, HealthyDesignsHoldAllProperties)
{
    // Design and wakeup threshold come from each shipped config, so a
    // change to the shipped threshold is proved where it lands.
    for (const NamedConfig &named : shippedConfigs()) {
        FsmOptions opts;
        opts.design = named.config.design;
        opts.wakeupThreshold = named.config.nordPowerThreshold;
        FsmResult result = FsmCheck(opts).run();
        std::string report = named.name + ": " + result.summary() + "\n";
        for (const FsmCounterexample &cx : result.counterexamples)
            report += cx.describe();
        EXPECT_TRUE(result.ok()) << report;
        EXPECT_GT(result.statesReached, 0u);
        EXPECT_LT(result.statesReached, result.stateSpace);
    }
}

TEST(StaticFsm, DeafWakeupInputCaughtAsLostWakeup)
{
    FsmOptions opts;
    opts.design = PgDesign::kNord;
    opts.mutation = FsmMutation::kDeafWakeupInput;
    FsmCheck checker(opts);
    FsmResult result = checker.run();
    EXPECT_FALSE(result.noLostWakeup);
    // NoRD's bypass still drains the work itself.
    EXPECT_TRUE(result.deadlockFree);
    EXPECT_TRUE(result.noStWhileGated);

    // The trace must replay step by step through the model's own
    // transition function, ending in a state whose metric has fired
    // while the router is off.
    ASSERT_FALSE(result.counterexamples.empty());
    const FsmCounterexample &cx = result.counterexamples.front();
    EXPECT_EQ(cx.property, FsmProperty::kNoLostWakeup);
    ASSERT_FALSE(cx.trace.empty());
    FsmState s;
    s.power = static_cast<std::int8_t>(PowerState::kOn);
    s.suppressed = 1;  // the deaf input is dead from the start
    for (const FsmTraceStep &step : cx.trace) {
        ASSERT_TRUE(checker.apply(s, step.event))
            << fsmEventName(step.event) << " not enabled at ["
            << s.describe() << "]";
        EXPECT_TRUE(s == step.next)
            << "diverged after " << fsmEventName(step.event) << ": got ["
            << s.describe() << "], trace claims [" << step.next.describe()
            << "]";
    }
    EXPECT_EQ(s.power, static_cast<std::int8_t>(PowerState::kOff));
}

TEST(StaticFsm, DeafWakeupDeadlocksBaselines)
{
    // The baselines have no bypass: a permanently lost wakeup also means
    // the node's work can never drain.
    FsmOptions opts;
    opts.design = PgDesign::kConvPg;
    opts.mutation = FsmMutation::kDeafWakeupInput;
    FsmResult result = FsmCheck(opts).run();
    EXPECT_FALSE(result.noLostWakeup);
    EXPECT_FALSE(result.deadlockFree);
}

TEST(StaticFsm, WatchdogRescuesBaselinesButNotNord)
{
    // The wakeup watchdog observes the latched WU request, which
    // NordController never sets (it retries the metric every off-cycle
    // instead): so the watchdog closes the baselines' deaf-input hole
    // but cannot close NoRD's.
    FsmOptions conv;
    conv.design = PgDesign::kConvPg;
    conv.mutation = FsmMutation::kDeafWakeupInput;
    conv.watchdog = true;
    EXPECT_TRUE(FsmCheck(conv).run().ok());

    FsmOptions nord;
    nord.design = PgDesign::kNord;
    nord.mutation = FsmMutation::kDeafWakeupInput;
    nord.watchdog = true;
    EXPECT_FALSE(FsmCheck(nord).run().noLostWakeup);
}

TEST(StaticFsm, DropIcGuardCaughtAsFlitIntoGatedRouter)
{
    FsmOptions opts;
    opts.design = PgDesign::kNord;
    opts.mutation = FsmMutation::kDropIcGuard;
    FsmCheck checker(opts);
    FsmResult result = checker.run();
    EXPECT_FALSE(result.noStWhileGated);

    ASSERT_FALSE(result.counterexamples.empty());
    const FsmCounterexample &cx = result.counterexamples.front();
    EXPECT_EQ(cx.property, FsmProperty::kNoStWhileGated);
    FsmState s;
    s.power = static_cast<std::int8_t>(PowerState::kOn);
    for (const FsmTraceStep &step : cx.trace)
        ASSERT_TRUE(checker.apply(s, step.event));
    EXPECT_EQ(s.power, static_cast<std::int8_t>(PowerState::kOff));
    EXPECT_EQ(s.buffered, 1);
}

TEST(StaticFsm, NoDrainCheckCaught)
{
    FsmOptions opts;
    opts.design = PgDesign::kNord;
    opts.mutation = FsmMutation::kNoDrainCheck;
    EXPECT_FALSE(FsmCheck(opts).run().noStWhileGated);
}

TEST(StaticFsm, GatedWithFlitIsUnreachableInHealthyModel)
{
    // P4 in action: the "flit inside a gated router" states must be in
    // the unreachable set of the healthy model -- their reachability is
    // exactly what the mutations above introduce.
    FsmOptions opts;
    opts.design = PgDesign::kNord;
    FsmResult result = FsmCheck(opts).run();
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.unreachableStates, 0u);
}

TEST(StaticFsm, LostWakeupCounterexampleReplaysOnLiveSimulator)
{
    // Replay the deaf-wakeup-input trace against the real thing: gate a
    // router off, make its wakeup command input permanently deaf
    // (injectWakeupSuppression), drive sustained local traffic so the
    // wakeup metric fires, and confirm the router never wakes -- then
    // heal the input and confirm the identical traffic wakes it, proving
    // the suppression (not the traffic pattern) lost the wakeup.
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = 0;  // uniform power-centric thresholds
    cfg.nordPowerThreshold = 2;
    NocSystem sys(cfg);
    sys.run(200);
    const NodeId victim = 0;
    ASSERT_EQ(sys.controller(victim).state(), PowerState::kOff);
    auto *ctrl = dynamic_cast<NordController *>(&sys.controller(victim));
    ASSERT_NE(ctrl, nullptr);

    sys.controller(victim).injectWakeupSuppression(kNeverCycle);
    bool metricFired = false;
    for (int i = 0; i < 60; ++i) {
        sys.inject(victim, 10, 5);
        sys.run(1);
        metricFired =
            metricFired || ctrl->windowSum() >= ctrl->wakeupThreshold();
        ASSERT_EQ(sys.controller(victim).state(), PowerState::kOff)
            << "suppressed router woke at step " << i;
    }
    EXPECT_TRUE(metricFired)
        << "traffic never fired the wakeup metric; the stay-off "
           "observation proves nothing";

    sys.controller(victim).injectWakeupSuppression(0);
    for (int i = 0;
         i < 60 && sys.controller(victim).state() == PowerState::kOff;
         ++i) {
        sys.inject(victim, 10, 5);
        sys.run(1);
    }
    EXPECT_NE(sys.controller(victim).state(), PowerState::kOff);
    sys.run(5000);  // drain the backlog before teardown
}

// --- Config and ring rule lists --------------------------------------------

/** All of @p problems, one per line (for failure messages). */
std::string
joined(const std::vector<std::string> &problems)
{
    std::string s;
    for (const std::string &p : problems)
        s += "\n  - " + p;
    return s;
}

TEST(StaticLint, ShippedConfigsClean)
{
    for (const NamedConfig &named : shippedConfigs()) {
        const NocConfig &cfg = named.config;
        EXPECT_TRUE(cfg.problems().empty())
            << named.name << ":" << joined(cfg.problems());
        MeshTopology mesh(cfg.rows, cfg.cols);
        const auto ring = BypassRing::problems(mesh, BypassRing(mesh).order());
        EXPECT_TRUE(ring.empty()) << named.name << " ring:" << joined(ring);
    }
}

TEST(StaticLint, FlagsEmptyEscapeClass)
{
    NocConfig cfg = makeShippedConfig(PgDesign::kConvPg, 4, 4);
    cfg.numEscapeVcs = 0;
    EXPECT_FALSE(cfg.problems().empty());
}

TEST(StaticLint, FlagsSingleEscapeVcForNord)
{
    NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
    cfg.numEscapeVcs = 1;
    const std::vector<std::string> problems = cfg.problems();
    ASSERT_FALSE(problems.empty());
    // The diagnosis must point at the dateline scheme, matching what the
    // CDG pass demonstrates with escapeLevelOverride = 0.
    bool mentionsDateline = false;
    for (const std::string &p : problems)
        mentionsDateline = mentionsDateline ||
                           p.find("dateline") != std::string::npos;
    EXPECT_TRUE(mentionsDateline) << joined(problems);
}

TEST(StaticLint, FlagsOddRowsAndTinyMesh)
{
    NocConfig odd = makeShippedConfig(PgDesign::kNord, 3, 4);
    EXPECT_FALSE(odd.problems().empty());
    NocConfig tiny = makeShippedConfig(PgDesign::kNord, 1, 1);
    EXPECT_FALSE(tiny.problems().empty());
}

TEST(StaticLint, FlagsInvertedThresholds)
{
    NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
    cfg.nordPerfThreshold = 5;
    cfg.nordPowerThreshold = 1;
    EXPECT_FALSE(cfg.problems().empty());
}

TEST(StaticLint, EveryConfigRuleIsLintedAndFatal)
{
    // One rule list backs both gates: each broken rule must show up in
    // problems() and kill validate() with the same message.
    NocConfig base;
    base.verify.interval = 16;
    base.fault.enabled = true;
    base.fault.e2e = true;
    ASSERT_TRUE(base.problems().empty()) << joined(base.problems());

    const struct
    {
        const char *message;  ///< substring of the diagnosis
        void (*breakIt)(NocConfig &);
    } kRules[] = {
        {"mesh must be at least 2x2", [](NocConfig &c) { c.cols = 1; }},
        {"even row count", [](NocConfig &c) { c.rows = 3; }},
        {"need at least 2 VCs", [](NocConfig &c) { c.numVcs = 1; }},
        {"escape class is empty", [](NocConfig &c) { c.numEscapeVcs = 0; }},
        {"adaptive class is empty",
         [](NocConfig &c) { c.numEscapeVcs = c.numVcs; }},
        {"dateline scheme", [](NocConfig &c) { c.numEscapeVcs = 1; }},
        {"bufferDepth must be", [](NocConfig &c) { c.bufferDepth = 0; }},
        {"wakeupLatency must be", [](NocConfig &c) { c.wakeupLatency = 0; }},
        {"nordWakeupWindow must be",
         [](NocConfig &c) { c.nordWakeupWindow = 0; }},
        {"wakeup thresholds must be",
         [](NocConfig &c) { c.nordPerfThreshold = 0; }},
        {"asymmetric thresholds inverted",
         [](NocConfig &c) {
             c.nordPerfThreshold = 5;
             c.nordPowerThreshold = 1;
         }},
        {"sleep guards must be",
         [](NocConfig &c) { c.nordPerfSleepGuard = -1; }},
        {"niStarvationLimit must be",
         [](NocConfig &c) { c.niStarvationLimit = 0; }},
        {"exceeds the node count",
         [](NocConfig &c) { c.nordPerfCentricCount = c.numNodes() + 1; }},
        {"verify.maxFlitAge must be",
         [](NocConfig &c) { c.verify.maxFlitAge = 0; }},
        {"fault rates must be probabilities",
         [](NocConfig &c) { c.fault.flitDropRate = 1.5; }},
        {"fault rates must be probabilities",
         [](NocConfig &c) { c.fault.lostWakeupRate = std::nan(""); }},
        {"outside the 4x4 mesh",
         [](NocConfig &c) {
             c.fault.schedule.push_back({10, FaultClass::kDeadRouter, 16, 0});
         }},
        {"transient classes are rate-driven",
         [](NocConfig &c) {
             c.fault.schedule.push_back({10, FaultClass::kFlitDrop, 3, 0});
         }},
        {"fault.retransTimeout must be",
         [](NocConfig &c) { c.fault.retransTimeout = 0; }},
        {"fault.retryLimit must be",
         [](NocConfig &c) { c.fault.retryLimit = -1; }},
    };
    for (const auto &rule : kRules) {
        NocConfig cfg = base;
        rule.breakIt(cfg);
        const std::vector<std::string> problems = cfg.problems();
        bool reported = false;
        for (const std::string &p : problems)
            reported = reported || p.find(rule.message) != std::string::npos;
        EXPECT_TRUE(reported) << rule.message << ":" << joined(problems);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    rule.message);
    }
}

TEST(StaticLint, CanonicalRingsCleanAcrossShapes)
{
    for (auto [rows, cols] : {std::pair{2, 2}, {2, 5}, {4, 3}, {4, 6},
                              {6, 4}, {8, 8}}) {
        MeshTopology mesh(rows, cols);
        const auto problems =
            BypassRing::problems(mesh, BypassRing(mesh).order());
        EXPECT_TRUE(problems.empty())
            << rows << "x" << cols << ":" << joined(problems);
    }
}

TEST(StaticLint, NonHamiltonianRingOrdersReportedAndFatal)
{
    // One rule list backs both gates: each broken order must be reported
    // by BypassRing::problems() and kill the constructor with its first
    // message.
    MeshTopology mesh(4, 4);

    // Not a permutation: node 0 twice, node 15 missing.
    std::vector<NodeId> repeated = BypassRing(mesh).order();
    for (NodeId &n : repeated) {
        if (n == 15)
            n = 0;
    }
    // Permutation, but a hop teleports across the mesh.
    std::vector<NodeId> teleport = BypassRing(mesh).order();
    std::swap(teleport[3], teleport[10]);
    // Wrong length entirely.
    const std::vector<NodeId> tooShort = {0, 1, 2};

    for (const std::vector<NodeId> &order : {repeated, teleport, tooShort}) {
        const std::vector<std::string> problems =
            BypassRing::problems(mesh, order);
        ASSERT_FALSE(problems.empty());
        EXPECT_EXIT({ BypassRing ring(mesh, order); },
                    ::testing::ExitedWithCode(1), problems.front());
    }
}

}  // namespace
}  // namespace nord
