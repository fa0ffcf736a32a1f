/**
 * @file
 * State-coverage tests: the declaration parser, the rule layer, the
 * planted-violation fixture trees, and -- most importantly -- the
 * annotation-truthing half that keeps the static model honest against
 * the live simulator.
 *
 * The static analyzer claims two things about every data member: included
 * members are restore-faithful (a restored system re-serializes to the
 * identical byte stream) and NORD_STATE_EXCLUDE members are hash-neutral
 * (they can differ between two systems without splitting stateHash()).
 * The truthing tests prove both claims differentially on real NocSystems,
 * and a registry cross-checked against the parsed model in both
 * directions makes it impossible to add an annotation without naming the
 * runtime experiment that justifies it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/state_serializer.hh"
#include "network/noc_system.hh"
#include "topology/criticality.hh"
#include "traffic/synthetic_traffic.hh"
#include "verify/lint/source_lint.hh"
#include "verify/statecheck/state_check.hh"
#include "verify/statecheck/state_model.hh"

namespace nord {
namespace statecheck {
namespace {

// ---------------------------------------------------------------------
// Parser helpers.
// ---------------------------------------------------------------------

TreeModel
headerModel(const std::string &content,
            const std::string &path = "src/foo/foo.hh")
{
    TreeModel m;
    parseHeader(path, content, m);
    return m;
}

const ClassModel *
findClass(const TreeModel &m, const std::string &qualified)
{
    for (const ClassModel &c : m.classes)
        if (c.qualified == qualified)
            return &c;
    return nullptr;
}

const MemberModel *
findMember(const ClassModel &c, const std::string &name)
{
    for (const MemberModel &mm : c.members)
        if (mm.name == name)
            return &mm;
    return nullptr;
}

// ---------------------------------------------------------------------
// Declaration parsing.
// ---------------------------------------------------------------------

TEST(StateModel, MemberQualifiersExtracted)
{
    const char *hh = R"cc(
class Widget : public Clocked
{
  public:
    void serializeState(StateSerializer &s) override;

  private:
    int plain_ = 0;
    static int shared_;
    static constexpr int kCap = 8;
    const double ratio_ = 0.5;
    Router &owner_;
    Flit *head_ = nullptr;
    std::vector<int> items_;
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *c = findClass(m, "Widget");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->clocked);
    EXPECT_TRUE(c->declaresSerialize);

    const MemberModel *plain = findMember(*c, "plain_");
    ASSERT_NE(plain, nullptr);
    EXPECT_FALSE(plain->isStatic);
    EXPECT_FALSE(plain->isConst);
    EXPECT_FALSE(plain->isPointer);
    EXPECT_FALSE(plain->isReference);

    ASSERT_NE(findMember(*c, "shared_"), nullptr);
    EXPECT_TRUE(findMember(*c, "shared_")->isStatic);
    ASSERT_NE(findMember(*c, "kCap"), nullptr);
    EXPECT_TRUE(findMember(*c, "kCap")->isConst);
    ASSERT_NE(findMember(*c, "ratio_"), nullptr);
    EXPECT_TRUE(findMember(*c, "ratio_")->isConst);
    ASSERT_NE(findMember(*c, "owner_"), nullptr);
    EXPECT_TRUE(findMember(*c, "owner_")->isReference);
    ASSERT_NE(findMember(*c, "head_"), nullptr);
    EXPECT_TRUE(findMember(*c, "head_")->isPointer);
    ASSERT_NE(findMember(*c, "items_"), nullptr);
}

TEST(StateModel, MembersAfterAccessLabelsAreSeen)
{
    // Regression: the statement scanner splits at ';', so "private:\n
    // int x_;" is one statement whose first token is the access label.
    // The label must be skipped, not the member swallowed with it.
    const char *hh = R"cc(
class Widget
{
  public:
    void serializeState(StateSerializer &s);
  private:
    int first_ = 0;
  protected:
    int second_ = 0;
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *c = findClass(m, "Widget");
    ASSERT_NE(c, nullptr);
    EXPECT_NE(findMember(*c, "first_"), nullptr);
    EXPECT_NE(findMember(*c, "second_"), nullptr);
}

TEST(StateModel, AnnotationBindsToNextMember)
{
    const char *hh = R"cc(
class Widget
{
    void serializeState(StateSerializer &s);

    NORD_STATE_EXCLUDE(cache, "rebuilt on demand")
    int memo_ = 0;
    int live_ = 0;
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *c = findClass(m, "Widget");
    ASSERT_NE(c, nullptr);
    const MemberModel *memo = findMember(*c, "memo_");
    ASSERT_NE(memo, nullptr);
    EXPECT_TRUE(memo->excluded);
    EXPECT_EQ(memo->category, "cache");
    EXPECT_EQ(memo->reason, "rebuilt on demand");
    const MemberModel *live = findMember(*c, "live_");
    ASSERT_NE(live, nullptr);
    EXPECT_FALSE(live->excluded);
    EXPECT_TRUE(c->danglingExcludeLines.empty());
}

TEST(StateModel, TrailingAnnotationIsDangling)
{
    const char *hh = R"cc(
class Widget
{
    int live_ = 0;
    NORD_STATE_EXCLUDE(cache, "binds to nothing")
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *c = findClass(m, "Widget");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->danglingExcludeLines.size(), 1u);
    const MemberModel *live = findMember(*c, "live_");
    ASSERT_NE(live, nullptr);
    EXPECT_FALSE(live->excluded);
}

TEST(StateModel, NestedStructUsedAsMemberStorage)
{
    const char *hh = R"cc(
class Router : public Clocked
{
  public:
    void serializeState(StateSerializer &s) override;

  private:
    struct VirtualChannel
    {
        std::deque<Flit> buffer;
        int credits = 0;
    };
    struct Unused
    {
        int orphan = 0;
    };
    std::vector<VirtualChannel> vcs_;
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *vc = findClass(m, "Router::VirtualChannel");
    ASSERT_NE(vc, nullptr);
    EXPECT_TRUE(vc->nested);
    EXPECT_TRUE(vc->usedAsMemberType);
    EXPECT_EQ(vc->outer, "Router");
    EXPECT_NE(findMember(*vc, "buffer"), nullptr);
    EXPECT_NE(findMember(*vc, "credits"), nullptr);

    const ClassModel *unused = findClass(m, "Router::Unused");
    ASSERT_NE(unused, nullptr);
    EXPECT_FALSE(unused->usedAsMemberType);
}

TEST(StateModel, EnumClassAndForwardDeclsIgnored)
{
    const char *hh = R"cc(
enum class PgDesign { kNoPg, kNord };
class Router;
struct Flit;
class Real
{
    int x_ = 0;
};
)cc";
    const TreeModel m = headerModel(hh);
    EXPECT_EQ(m.classes.size(), 1u);
    EXPECT_EQ(m.classes[0].name, "Real");
}

TEST(StateModel, MethodsNotMistakenForMembers)
{
    const char *hh = R"cc(
class Widget
{
  public:
    int count() const { return n_; }
    void reset();
    Widget &operator=(const Widget &) = delete;

  private:
    int n_ = 0;
};
)cc";
    const TreeModel m = headerModel(hh);
    const ClassModel *c = findClass(m, "Widget");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->members.size(), 1u);
    EXPECT_EQ(c->members[0].name, "n_");
}

TEST(StateModel, InlineAndOutOfLineBodiesCaptured)
{
    TreeModel m;
    parseHeader("src/foo/foo.hh", R"cc(
class Widget
{
  public:
    void bump() { n_ += 1; }
    void tick(Cycle now);

  private:
    int n_ = 0;
};
)cc",
                m);
    parseMethodBodies("src/foo/foo.cc", R"cc(
#include "foo/foo.hh"

void
Widget::tick(Cycle now)
{
    n_ -= 1;
}
)cc",
                      m);
    std::set<std::string> names;
    for (const MethodBody &mb : m.methods)
        if (mb.cls == "Widget")
            names.insert(mb.name);
    EXPECT_TRUE(names.count("bump"));
    EXPECT_TRUE(names.count("tick"));
}

TEST(StateModel, ExternalSerializerWalkNamedIoHashT)
{
    TreeModel m;
    parseMethodBodies("src/ckpt/state_serializer.cc", R"cc(
void
StateSerializer::io(Flit &f)
{
    io(f.id);
    io(f.kind);
}
)cc",
                      m);
    ASSERT_EQ(m.methods.size(), 1u);
    EXPECT_EQ(m.methods[0].cls, "StateSerializer");
    EXPECT_EQ(m.methods[0].name, "io#Flit");
}

// ---------------------------------------------------------------------
// mutatesMember / containsWord.
// ---------------------------------------------------------------------

TEST(StateModel, ContainsWordRespectsBoundaries)
{
    EXPECT_TRUE(containsWord("s.io(head_);", "head_"));
    EXPECT_FALSE(containsWord("s.io(ahead_);", "head_"));
    EXPECT_FALSE(containsWord("s.io(head_x);", "head_"));
    EXPECT_TRUE(containsWord("head_ = 0;", "head_"));
    EXPECT_FALSE(containsWord("", "head_"));
}

TEST(StateModel, MutatesMemberTruthTable)
{
    EXPECT_TRUE(mutatesMember("n_ = 3;", "n_"));
    EXPECT_TRUE(mutatesMember("n_ += rhs;", "n_"));
    EXPECT_TRUE(mutatesMember("++n_;", "n_"));
    EXPECT_TRUE(mutatesMember("n_--;", "n_"));
    EXPECT_TRUE(mutatesMember("buf_[i] = f;", "buf_"));
    EXPECT_TRUE(mutatesMember("q_.push_back(f);", "q_"));
    EXPECT_TRUE(mutatesMember("q_.clear();", "q_"));

    // Reads and comparisons are not mutations.
    EXPECT_FALSE(mutatesMember("if (n_ == 3) return;", "n_"));
    EXPECT_FALSE(mutatesMember("int x = n_ + 1;", "n_"));
    EXPECT_FALSE(mutatesMember("use(q_.size());", "q_"));

    // A call through a pointer member mutates the *pointee*, not the
    // pointer: peer_->push(f) must not count as mutating peer_.
    EXPECT_FALSE(mutatesMember("peer_->push(f);", "peer_"));
    EXPECT_FALSE(mutatesMember("peer_->clear();", "peer_"));

    // Substring lookalikes don't count.
    EXPECT_FALSE(mutatesMember("total_n_ = 3;", "n_"));
}

// ---------------------------------------------------------------------
// Walk closures.
// ---------------------------------------------------------------------

TEST(StateCheck, MethodClosureFollowsHelperCalls)
{
    TreeModel m;
    parseHeader("src/foo/foo.hh", R"cc(
class Widget
{
  public:
    void serializeState(StateSerializer &s);

  private:
    void ioQueues(StateSerializer &s);
    int head_ = 0;
    int tail_ = 0;
    int orphan_ = 0;
};
)cc",
                m);
    parseMethodBodies("src/foo/foo.cc", R"cc(
void
Widget::serializeState(StateSerializer &s)
{
    s.io(head_);
    ioQueues(s);
}

void
Widget::ioQueues(StateSerializer &s)
{
    s.io(tail_);
}

void
Widget::unrelated()
{
    orphan_ = 1;
}
)cc",
                      m);
    const std::string walk = methodClosure(m, "Widget", {"serializeState"});
    EXPECT_TRUE(containsWord(walk, "head_"));
    EXPECT_TRUE(containsWord(walk, "tail_")) << "helper bodies join the walk";
    EXPECT_FALSE(containsWord(walk, "orphan_"));
}

TEST(StateCheck, ExpandWalkCreditsAccessorSerialization)
{
    // The Rng shape: an external StateSerializer::io(Rng&) walk reaches
    // the private state only through accessors, so the member's name is
    // absent from the walk until the accessor bodies are folded in.
    TreeModel m;
    parseHeader("src/common/rng.hh", R"cc(
class Rng
{
  public:
    std::uint64_t rawState() const { return s_; }
    void setRawState(std::uint64_t v) { s_ = v; }

  private:
    std::uint64_t s_ = 0x9e3779b97f4a7c15ull;
};
)cc",
                m);
    const std::string external = "auto v = r.rawState(); r.setRawState(v);";
    EXPECT_FALSE(containsWord(external, "s_"));
    const std::string walk = expandWalk(m, "Rng", external);
    EXPECT_TRUE(containsWord(walk, "s_"));
}

// ---------------------------------------------------------------------
// Planted-violation fixture trees.
//
// Each fixture under tests/fixtures/statecheck/<rule>/src/ plants exactly
// the violations one rule exists to catch; `clean` plants none of them.
// Running the whole nord-lint engine over them proves each rule both
// fires and stays quiet, and that the text checks and the state-coverage
// rules merge into one finding list.
// ---------------------------------------------------------------------

#ifdef NORD_SOURCE_ROOT

/** "file:line: [check] message" for every finding nord-lint reports. */
std::vector<std::string>
lintFixture(const std::string &name)
{
    const std::string root = std::string(NORD_SOURCE_ROOT) +
                             "/tests/fixtures/statecheck/" + name;
    std::string err;
    std::vector<std::string> out;
    for (const LintFinding &f : lintTree(root, lintWhitelist(), &err))
        out.push_back(f.file + ":" + std::to_string(f.line) + ": [" +
                      f.check + "] " + f.message);
    EXPECT_TRUE(err.empty()) << name << ": " << err;
    return out;
}

TEST(StateCheckFixtures, EachFixtureYieldsExactlyItsFindings)
{
    const struct
    {
        const char *dir;
        std::vector<std::string> expected;
    } kCases[] = {
        {"unserialized",
         {"src/widget.hh:14: [unserialized-member] Widget::phase_ is not "
          "serialized and carries no NORD_STATE_EXCLUDE annotation"}},
        {"exclude-live",
         {"src/gadget.hh:14: [exclude-but-serialized] Gadget::credits_ "
          "carries NORD_STATE_EXCLUDE but appears in the serializeState "
          "walk"}},
        {"bad-category",
         {"src/sensor.hh:18: [bad-exclude-category] Sensor::scratch_: "
          "unknown exclude category 'scrach' (expected cache, stat, "
          "perf_counter or config)",
          "src/sensor.hh:20: [bad-exclude-category] Sensor::mode_: "
          "'config' member is mutated on the tick path",
          "src/sensor.hh:22: [bad-exclude-category] Sensor::hits_: "
          "'perf_counter' is only legal under src/sim/ and src/common/",
          "src/sensor.hh:24: [bad-exclude-category] Sensor::shadow_: "
          "'cache' member is never written by any method; annotate as "
          "config instead"}},
        {"dangling",
         {"src/stale.hh:15: [dangling-exclude] NORD_STATE_EXCLUDE in Stale "
          "binds to no member declaration"}},
        {"missing-body",
         {"src/ghost.hh:7: [missing-serialize-body] Ghost declares "
          "serializeState but no body was found for its walk"}},
        // State coverage is complete here, but the static data member is
        // a real mutable static: the text checks see it.
        {"clean",
         {"src/model.hh:19: [mutable-static] non-const static variable: "
          "hidden process-global state, a data race once two NocSystems "
          "run on two threads (own it in a component, or whitelist it "
          "with a story)"}},
    };
    for (const auto &tc : kCases)
        EXPECT_EQ(lintFixture(tc.dir), tc.expected) << "fixture " << tc.dir;
}

// ---------------------------------------------------------------------
// The real tree (its findings are gated by NordLint.RealSourceTreeIsClean).
// ---------------------------------------------------------------------

TreeModel
realTreeModel()
{
    std::string err;
    TreeModel m;
    lintTree(NORD_SOURCE_ROOT, lintWhitelist(), &err, &m);
    EXPECT_TRUE(err.empty()) << err;
    return m;
}

TEST(StateCheckRealTree, ModelCoversTheCoreComponents)
{
    // Guard against the parser silently losing classes: the components
    // whose members the whole analysis exists to police must be present,
    // modeled as Clocked and serializable.
    const TreeModel m = realTreeModel();
    for (const char *name : {"Router", "NetworkInterface", "PgController",
                             "FaultInjector"}) {
        const ClassModel *c = findClass(m, name);
        ASSERT_NE(c, nullptr) << name;
        EXPECT_TRUE(c->clocked) << name;
        EXPECT_TRUE(c->declaresSerialize) << name;
        EXPECT_FALSE(c->members.empty()) << name;
    }
    // NordController is Clocked only transitively (via PgController);
    // the parser records the direct base, the rule layer still scopes
    // it in through declaresSerialize.
    const ClassModel *nordCtl = findClass(m, "NordController");
    ASSERT_NE(nordCtl, nullptr);
    EXPECT_FALSE(nordCtl->clocked);
    EXPECT_TRUE(nordCtl->declaresSerialize);
    const ClassModel *vc = findClass(m, "Router::VirtualChannel");
    ASSERT_NE(vc, nullptr);
    EXPECT_TRUE(vc->usedAsMemberType);
}

// ---------------------------------------------------------------------
// Annotation truthing: the static claims, proven on live systems.
// ---------------------------------------------------------------------

NocConfig
truthConfig(PgDesign design)
{
    NocConfig cfg;
    cfg.design = design;
    return cfg;
}

/**
 * Restore-faithfulness: serializeState covers enough state that a
 * restored system re-serializes to the byte-identical stream. If an
 * *included* member failed to restore (serialized in kSave but not
 * reloaded, or reloaded into the wrong field), the second stream would
 * differ. Run for every power-gating design so design-specific state
 * (bypass ring, handshake timers) is covered too.
 */
TEST(StateTruthing, IncludedMembersSurviveRestore)
{
    for (int d = 0; d < 4; ++d) {
        const NocConfig cfg = truthConfig(static_cast<PgDesign>(d));
        NocSystem sys1(cfg);
        SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.08, 7);
        sys1.setWorkload(&t1);
        sys1.run(500);

        StateSerializer save1(SerialMode::kSave);
        sys1.saveState(save1);
        ASSERT_TRUE(save1.ok()) << save1.error();
        const std::vector<std::uint8_t> bytes1 = save1.takeBuffer();

        NocSystem sys2(cfg);
        SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.08, 7);
        sys2.setWorkload(&t2);
        StateSerializer load(bytes1);
        sys2.loadState(load);
        ASSERT_TRUE(load.ok()) << load.error();
        ASSERT_TRUE(load.exhausted());

        StateSerializer save2(SerialMode::kSave);
        sys2.saveState(save2);
        ASSERT_TRUE(save2.ok()) << save2.error();
        EXPECT_EQ(bytes1, save2.buffer())
            << "design " << pgDesignName(cfg.design)
            << ": restored system re-serializes differently";
        EXPECT_EQ(sys1.stateHash(), sys2.stateHash());
    }
}

/**
 * How each excluded member's hash-neutrality is proven. One experiment
 * covers a family of members; the registry below names the experiment
 * for every annotation in the tree.
 */
enum class Proof
{
    /**
     * Two independently constructed systems, identical config and
     * workload, marched in lockstep: every pointer member (component
     * wiring, kernel back-pointers, link endpoints) holds different
     * addresses in the two instances, and construction-determined
     * values are reproduced from NocConfig alone -- yet the hashes
     * match cycle for cycle.
     */
    kTwinConstruction,
    /**
     * Save a warmed system, load into a fresh one: scratch buffers,
     * arena slab bookkeeping and derived flags hold evolved values on
     * one side and just-constructed values on the other, yet the
     * hashes match (and stay matched while running on).
     */
    kFreshRestore,
    /**
     * One kernel with idle skipping on, one with it off: the active
     * set and tick/skip counters diverge wildly, yet the hashes match
     * every cycle.
     */
    kSkipToggle,
    /** CriticalityCache::clear() between two hashes of one system. */
    kCacheClear,
    /**
     * One audited system with the auditor's shadow full sweep on, one
     * with it off, marched in per-cycle lockstep through fault campaigns
     * of every design (InvariantAuditorShadow.DrySweepIsHashNeutral in
     * test_verify.cc).
     */
    kShadowToggle,
};

/**
 * Every NORD_STATE_EXCLUDE in the tree, keyed "Class::member" (nested
 * classes keep their full qualification), mapped to the experiment that
 * proves it hash-neutral. ExclusionRegistryMatchesParsedModel checks
 * this list against the parsed model in BOTH directions: annotating a
 * new member without naming its proof here fails, as does a stale entry
 * for a member that no longer carries the annotation.
 */
const std::map<std::string, Proof> &
exclusionRegistry()
{
    static const std::map<std::string, Proof> reg = {
        {"Clocked::kernel_", Proof::kTwinConstruction},
        {"Clocked::kernelSlot_", Proof::kTwinConstruction},
        {"CreditLink::dst_", Proof::kTwinConstruction},
        {"CreditLink::outPort_", Proof::kTwinConstruction},
        {"CriticalityCache::mu_", Proof::kTwinConstruction},
        {"CriticalityCache::steering_", Proof::kCacheClear},
        {"CriticalityCache::sweep_", Proof::kCacheClear},
        {"E2eEndpoint::id_", Proof::kTwinConstruction},
        {"E2eEndpoint::nextDeadline_", Proof::kFreshRestore},
        {"FaultInjector::auditor_", Proof::kTwinConstruction},
        {"FlitLink::dst_", Proof::kTwinConstruction},
        {"FlitLink::inPort_", Proof::kTwinConstruction},
        {"InvariantAuditor::config_", Proof::kTwinConstruction},
        {"InvariantAuditor::mutableSys_", Proof::kTwinConstruction},
        {"InvariantAuditor::shadowFirst_", Proof::kShadowToggle},
        {"InvariantAuditor::shadowMismatches_", Proof::kShadowToggle},
        {"InvariantAuditor::shadowOn_", Proof::kShadowToggle},
        {"InvariantAuditor::transitionChecks_", Proof::kFreshRestore},
        {"NetworkInterface::ackBuf_", Proof::kFreshRestore},
        {"NetworkInterface::deliverBuf_", Proof::kFreshRestore},
        {"NetworkInterface::onDelivery_", Proof::kTwinConstruction},
        {"NetworkInterface::resendBuf_", Proof::kFreshRestore},
        {"NetworkInterface::router_", Proof::kTwinConstruction},
        {"NetworkStats::warmup_", Proof::kTwinConstruction},
        {"NocSystem::arena_", Proof::kFreshRestore},
        {"NocSystem::config_", Proof::kTwinConstruction},
        {"NocSystem::mesh_", Proof::kTwinConstruction},
        {"NocSystem::perfCentric_", Proof::kTwinConstruction},
        {"NocSystem::policy_", Proof::kTwinConstruction},
        {"NocSystem::ring_", Proof::kTwinConstruction},
        {"NocSystem::ticker_", Proof::kTwinConstruction},
        {"NordController::sleepGuard_", Proof::kTwinConstruction},
        {"NordController::threshold_", Proof::kTwinConstruction},
        {"ParsecWorkload::nearBanks_", Proof::kTwinConstruction},
        {"ParsecWorkload::numNodes_", Proof::kTwinConstruction},
        {"ParsecWorkload::params_", Proof::kTwinConstruction},
        {"PgController::listener_", Proof::kTwinConstruction},
        {"PoolArena::freeLists_", Proof::kFreshRestore},
        {"PoolArena::nextSlabBytes_", Proof::kFreshRestore},
        {"PoolArena::slabCap_", Proof::kFreshRestore},
        {"PoolArena::slabNext_", Proof::kFreshRestore},
        {"PoolArena::slabs_", Proof::kFreshRestore},
        {"PoolArena::stats_", Proof::kFreshRestore},
        {"Router::InputPort::creditReturn", Proof::kTwinConstruction},
        {"Router::InputPort::inLink", Proof::kTwinConstruction},
        {"Router::InputPort::rcMask", Proof::kFreshRestore},
        {"Router::InputPort::saMask", Proof::kFreshRestore},
        {"Router::InputPort::vaMask", Proof::kFreshRestore},
        {"Router::OutputPort::link", Proof::kTwinConstruction},
        {"Router::OutputPort::neighbor", Proof::kTwinConstruction},
        {"Router::buffered_", Proof::kFreshRestore},
        {"Router::controller_", Proof::kTwinConstruction},
        {"Router::ni_", Proof::kTwinConstruction},
        {"Router::nonIdle_", Proof::kFreshRestore},
        {"SimKernel::activeBits_", Proof::kSkipToggle},
        {"SimKernel::inTick_", Proof::kSkipToggle},
        {"SimKernel::objects_", Proof::kTwinConstruction},
        {"SimKernel::skipEnabled_", Proof::kSkipToggle},
        {"SimKernel::skippedLast_", Proof::kSkipToggle},
        {"SimKernel::skippedTotal_", Proof::kSkipToggle},
        {"SimKernel::tickedLast_", Proof::kSkipToggle},
        {"SimKernel::tickedTotal_", Proof::kSkipToggle},
        {"SyntheticTraffic::longFraction_", Proof::kTwinConstruction},
        {"SyntheticTraffic::longLen_", Proof::kTwinConstruction},
        {"SyntheticTraffic::numNodes_", Proof::kTwinConstruction},
        {"SyntheticTraffic::pattern_", Proof::kTwinConstruction},
        {"SyntheticTraffic::shortLen_", Proof::kTwinConstruction},
        {"Workload::system_", Proof::kTwinConstruction},
    };
    return reg;
}

TEST(StateTruthing, ExclusionRegistryMatchesParsedModel)
{
    const TreeModel m = realTreeModel();
    std::set<std::string> parsed;
    for (const ClassModel &c : m.classes)
        for (const MemberModel &mm : c.members)
            if (mm.excluded)
                parsed.insert(c.qualified + "::" + mm.name);

    for (const std::string &key : parsed)
        EXPECT_TRUE(exclusionRegistry().count(key))
            << key << " carries NORD_STATE_EXCLUDE but no truthing proof "
            << "is registered for it -- add it to exclusionRegistry() "
            << "with the experiment that shows it hash-neutral";
    for (const auto &entry : exclusionRegistry())
        EXPECT_TRUE(parsed.count(entry.first))
            << entry.first << " is registered but no longer carries "
            << "NORD_STATE_EXCLUDE in the tree -- drop the stale entry";
}

TEST(StateTruthing, TwinConstructionMembersAreHashNeutral)
{
    // Two instances hold different heap addresses in every pointer
    // member; a single leaked pointer in a serializeState walk would
    // split these hashes immediately.
    for (int d = 0; d < 4; ++d) {
        const NocConfig cfg = truthConfig(static_cast<PgDesign>(d));
        NocSystem sys1(cfg), sys2(cfg);
        SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.08, 7);
        SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.08, 7);
        sys1.setWorkload(&t1);
        sys2.setWorkload(&t2);
        ASSERT_EQ(sys1.stateHash(), sys2.stateHash());
        for (int step = 0; step < 8; ++step) {
            sys1.run(50);
            sys2.run(50);
            ASSERT_EQ(sys1.stateHash(), sys2.stateHash())
                << "design " << pgDesignName(cfg.design) << " cycle "
                << sys1.now();
        }
    }
}

TEST(StateTruthing, SkipToggleMembersAreHashNeutral)
{
    // NoRD powers routers down, so the skipping kernel's bookkeeping
    // diverges hard from the serial kernel's -- the counters prove the
    // differential is not vacuous.
    const NocConfig cfg = truthConfig(PgDesign::kNord);
    NocSystem skipping(cfg), serial(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.05, 7);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.05, 7);
    skipping.setWorkload(&t1);
    serial.setWorkload(&t2);
    ASSERT_TRUE(skipping.kernel().skipEnabled());
    serial.kernel().setSkipEnabled(false);

    for (int step = 0; step < 30; ++step) {
        skipping.run(10);
        serial.run(10);
        ASSERT_EQ(skipping.stateHash(), serial.stateHash())
            << "cycle " << skipping.now();
    }
    EXPECT_GT(skipping.kernel().skippedTotal(), 0u)
        << "nothing was skipped; the differential proved nothing";
    EXPECT_EQ(serial.kernel().skippedTotal(), 0u);
    EXPECT_NE(skipping.kernel().tickedTotal(),
              serial.kernel().tickedTotal());
}

TEST(StateTruthing, FreshRestoreMembersAreHashNeutral)
{
    // After the load, sys2's arena has a different slab layout, its NI
    // scratch buffers hold constructed values and its auditor has run no
    // transition checks, while sys1's carry 600 cycles of history -- the
    // hashes must match anyway, now and as both run on.
    NocConfig cfg = truthConfig(PgDesign::kNord);
    cfg.verify.interval = 64;
    NocSystem sys1(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.10, 7);
    sys1.setWorkload(&t1);
    sys1.run(600);

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();

    NocSystem sys2(cfg);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.10, 7);
    sys2.setWorkload(&t2);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();

    EXPECT_EQ(sys1.stateHash(), sys2.stateHash());
    EXPECT_GT(sys1.auditor().transitionChecks(), 0u);
    EXPECT_EQ(sys2.auditor().transitionChecks(), 0u);
    for (int step = 0; step < 10; ++step) {
        sys1.run(20);
        sys2.run(20);
        ASSERT_EQ(sys1.stateHash(), sys2.stateHash())
            << "cycle " << sys1.now();
    }
}

TEST(StateTruthing, FreshRestoreE2eTimersAreHashNeutral)
{
    // The E2E endpoints' deadline bounds: sys1's carry the run's
    // history, sys2's are rebuilt from the loaded buffers. With
    // drops the timeout path fires, and the hashes must match as both
    // run on.
    NocConfig cfg = truthConfig(PgDesign::kNord);
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitDropRate = 2e-3;
    NocSystem sys1(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.10, 7);
    sys1.setWorkload(&t1);
    sys1.run(600);

    StateSerializer save(SerialMode::kSave);
    sys1.saveState(save);
    ASSERT_TRUE(save.ok()) << save.error();
    NocSystem sys2(cfg);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.10, 7);
    sys2.setWorkload(&t2);
    StateSerializer load(save.takeBuffer());
    sys2.loadState(load);
    ASSERT_TRUE(load.ok()) << load.error();

    EXPECT_EQ(sys1.stateHash(), sys2.stateHash());
    for (int step = 0; step < 20; ++step) {
        sys1.run(50);
        sys2.run(50);
        ASSERT_EQ(sys1.stateHash(), sys2.stateHash())
            << "cycle " << sys1.now();
    }
    EXPECT_GT(sys1.stats().flowTotals().timeouts, 0u);
}

TEST(StateTruthing, CacheClearMembersAreHashNeutral)
{
    // The criticality memo tables are process-wide; clearing them
    // between two hashes of a warmed system must change nothing, and a
    // system that keeps running after the clear must stay in lockstep
    // with a twin that never saw it.
    const NocConfig cfg = truthConfig(PgDesign::kNord);
    NocSystem sys1(cfg), sys2(cfg);
    SyntheticTraffic t1(TrafficPattern::kUniformRandom, 0.08, 7);
    SyntheticTraffic t2(TrafficPattern::kUniformRandom, 0.08, 7);
    sys1.setWorkload(&t1);
    sys2.setWorkload(&t2);
    sys1.run(200);
    sys2.run(200);

    const std::uint64_t before = sys1.stateHash();
    CriticalityCache::instance().clear();
    EXPECT_EQ(sys1.stateHash(), before);

    sys1.run(200);
    sys2.run(200);
    EXPECT_EQ(sys1.stateHash(), sys2.stateHash())
        << "repopulating the cleared cache perturbed simulation state";
}

#endif  // NORD_SOURCE_ROOT

}  // namespace
}  // namespace statecheck
}  // namespace nord
