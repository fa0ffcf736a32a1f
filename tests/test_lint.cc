/**
 * @file
 * nord-lint engine tests.
 *
 * The planted-bug half feeds the lint the *pre-fix* shapes of real bugs
 * this repo has had -- the three function-local static caches that used
 * to live in src/network/noc_system.cc and the once-latched getenv()
 * read from src/common/trace.cc -- and requires findings. The post-fix
 * shapes (the whitelisted CriticalityCache singleton, the resettable
 * trace atomic) must lint clean, as must the real source tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "verify/lint/source_lint.hh"
#include "verify/statecheck/state_check.hh"

namespace nord {
namespace {

std::vector<LintFinding>
lint(const std::string &path, const std::string &content)
{
    return lintSource(path, content);
}

/** State-coverage findings for one header parsed on its own. */
std::vector<LintFinding>
stateFindings(const std::string &path, const std::string &content)
{
    statecheck::TreeModel model;
    statecheck::parseHeader(path, content, model);
    statecheck::parseMethodBodies(path, content, model);
    return statecheck::checkTree(model);
}

int
countCheck(const std::vector<LintFinding> &fs, const std::string &check)
{
    int n = 0;
    for (const LintFinding &f : fs)
        n += f.check == check ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Planted pre-fix bugs: the shapes nord-lint exists to catch.
// ---------------------------------------------------------------------

/** The three hidden criticality caches as they looked before the fix. */
const char *kPreFixStaticCaches = R"cc(
namespace nord {
namespace {

int
cachedKnee(const MeshTopology &mesh, const BypassRing &ring)
{
    static std::map<std::pair<int, int>, int> knees;
    const auto key = std::make_pair(mesh.rows(), mesh.cols());
    auto it = knees.find(key);
    if (it == knees.end())
        it = knees.emplace(key, computeKnee(mesh, ring)).first;
    return it->second;
}

const std::vector<NodeId> &
cachedPerfSet(const MeshTopology &mesh, const BypassRing &ring, int count)
{
    static std::map<std::tuple<int, int, int>, std::vector<NodeId>> sets;
    const auto key = std::make_tuple(mesh.rows(), mesh.cols(), count);
    auto it = sets.find(key);
    if (it == sets.end())
        it = sets.emplace(key, computePerfSet(mesh, ring, count)).first;
    return it->second;
}

const std::vector<double> &
cachedSteering(const MeshTopology &mesh, const BypassRing &ring, int count)
{
    static std::map<std::tuple<int, int, int>, std::vector<double>> tables;
    const auto key = std::make_tuple(mesh.rows(), mesh.cols(), count);
    auto it = tables.find(key);
    if (it == tables.end())
        it = tables.emplace(key, computeSteering(mesh, ring, count)).first;
    return it->second;
}

}  // namespace
}  // namespace nord
)cc";

TEST(NordLint, PlantedStaticCachesAreFlagged)
{
    const std::vector<LintFinding> fs =
        lint("src/network/noc_system.cc", kPreFixStaticCaches);
    EXPECT_EQ(countCheck(fs, "mutable-static"), 3);
    EXPECT_EQ(fs.size(), 3u) << "no other checks should fire";
    // Findings are sorted by line.
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_LT(fs[0].line, fs[1].line);
    EXPECT_LT(fs[1].line, fs[2].line);
}

/** tracedPacket() as it looked before the fix: a once-latched env read. */
const char *kPreFixTraceLatch = R"cc(
namespace nord {

PacketId
tracedPacket()
{
    static const PacketId traced = [] {
        const char *env = std::getenv("NORD_TRACE_PACKET");
        if (!env)
            return static_cast<PacketId>(0);
        return static_cast<PacketId>(std::strtoull(env, nullptr, 10));
    }();
    return traced;
}

}  // namespace nord
)cc";

TEST(NordLint, PlantedTraceLatchIsFlagged)
{
    // src/common/ is exempt from the plain env-read ban, but an
    // env-LATCHED static is banned everywhere -- that was the bug.
    const std::vector<LintFinding> fs =
        lint("src/common/trace.cc", kPreFixTraceLatch);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "env-latch");
}

// ---------------------------------------------------------------------
// Post-fix shapes: whitelisted or clean by construction.
// ---------------------------------------------------------------------

const char *kPostFixCacheSingleton = R"cc(
namespace nord {

CriticalityCache &
CriticalityCache::instance()
{
    static CriticalityCache cache;
    return cache;
}

}  // namespace nord
)cc";

TEST(NordLint, WhitelistedSingletonIsCleanOnlyInItsFile)
{
    EXPECT_TRUE(
        lint("src/topology/criticality.cc", kPostFixCacheSingleton)
            .empty());
    // The same shape anywhere else is still a finding: the whitelist is
    // (file, check, token)-specific.
    const std::vector<LintFinding> fs =
        lint("src/network/noc_system.cc", kPostFixCacheSingleton);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "mutable-static");
}

const char *kPostFixTraceAtomic = R"cc(
namespace nord {
namespace {

std::atomic<PacketId> &
selection()
{
    static std::atomic<PacketId> selected{kUnset};
    return selected;
}

}  // namespace
}  // namespace nord
)cc";

TEST(NordLint, PostFixTraceSelectionIsClean)
{
    EXPECT_TRUE(
        lint("src/common/trace.cc", kPostFixTraceAtomic).empty());
}

TEST(NordLint, WhitelistEntriesCarryStories)
{
    const std::vector<LintWhitelistEntry> &wl = lintWhitelist();
    ASSERT_EQ(wl.size(), 2u);
    for (const LintWhitelistEntry &w : wl) {
        EXPECT_FALSE(w.fileSuffix.empty());
        EXPECT_FALSE(w.token.empty());
        EXPECT_GT(w.story.size(), 20u)
            << w.fileSuffix << " needs a real justification";
    }
}

// ---------------------------------------------------------------------
// Individual checks.
// ---------------------------------------------------------------------

TEST(NordLint, ConstAndThreadLocalStaticsAreFine)
{
    const char *code = R"cc(
static const int kTable[4] = {1, 2, 3, 4};
static constexpr double kPi = 3.14159;
static thread_local int scratch = 0;
thread_local static int scratch2 = 0;
static int helper(int x) { return x + 1; }
)cc";
    EXPECT_TRUE(lint("src/router/router.cc", code).empty());
}

TEST(NordLint, MutableStaticOutsideSrcIsNotOurBusiness)
{
    const char *code = "static int hits = 0;\n";
    EXPECT_FALSE(lint("src/router/router.cc", code).empty());
    EXPECT_TRUE(lint("tests/test_foo.cc", code).empty());
    EXPECT_TRUE(lint("bench/bench_foo.cc", code).empty());
}

TEST(NordLint, AllowAnnotationSuppresses)
{
    const char *annotated =
        "// nord-lint-allow(mutable-static): test scaffolding\n"
        "static int hits = 0;\n";
    EXPECT_TRUE(lint("src/router/router.cc", annotated).empty());

    const char *sameLine =
        "static int hits = 0;  // nord-lint-allow(mutable-static)\n";
    EXPECT_TRUE(lint("src/router/router.cc", sameLine).empty());

    const char *wrongCheck =
        "// nord-lint-allow(env-read)\n"
        "static int hits = 0;\n";
    EXPECT_FALSE(lint("src/router/router.cc", wrongCheck).empty());
}

TEST(NordLint, EnvReadScope)
{
    const char *code = "const char *v = std::getenv(\"NORD_KNOB\");\n";
    const std::vector<LintFinding> fs =
        lint("src/network/noc_system.cc", code);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "env-read");
    // The funnel point and non-library code may read the environment.
    EXPECT_TRUE(lint("src/common/env.cc", code).empty());
    EXPECT_TRUE(lint("tests/test_foo.cc", code).empty());
    EXPECT_TRUE(lint("tools/nord_foo.cc", code).empty());
}

TEST(NordLint, StdioSideChannel)
{
    const char *code = "std::fprintf(stderr, \"boom\\n\");\n";
    const std::vector<LintFinding> fs =
        lint("src/router/router.cc", code);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "stdio-side-channel");
    EXPECT_TRUE(lint("src/common/log.cc", code).empty());
}

TEST(NordLint, FlitHeapAllocationFlagged)
{
    const char *code = R"cc(
void
stash(const Flit &f)
{
    Flit *copy = new Flit(f);
    auto *desc = new
        PacketDescriptor();
    pending_.push_back(copy);
    descs_.push_back(desc);
}
)cc";
    const std::vector<LintFinding> fs = lint("src/ni/stash.cc", code);
    // Both the same-line and the line-broken new-expression are caught.
    EXPECT_EQ(countCheck(fs, "flit-heap"), 2);
    // The arena itself and non-library code are exempt.
    EXPECT_TRUE(lint("src/common/arena.cc", code).empty());
    EXPECT_TRUE(lint("tests/test_foo.cc", code).empty());
    EXPECT_TRUE(lint("bench/perf_foo.cpp", code).empty());
}

TEST(NordLint, FlitHeapIgnoresLookalikes)
{
    const char *code = R"cc(
FlitLink *l = new FlitLink(dst, port);   // different type, fine
int renewFlit = 0;                       // "new" not a word here
Flit f = makeFlit();                     // no new-expression at all
)cc";
    EXPECT_TRUE(
        countCheck(lint("src/network/wiring.cc", code), "flit-heap") == 0);
}

TEST(NordLint, FlitHeapAnnotationSuppresses)
{
    const char *code =
        "// nord-lint-allow(flit-heap)\n"
        "Flit *f = new Flit();\n";
    EXPECT_EQ(countCheck(lint("src/ni/stash.cc", code), "flit-heap"), 0);
}

TEST(NordLint, DeterminismChecks)
{
    const char *code = R"cc(
int
jitter()
{
    std::srand(42);
    std::random_device rd;
    long t = time(nullptr);
    return rand() + static_cast<int>(t) + static_cast<int>(rd());
}
)cc";
    // Applies to the whole tree, tools and tests included.
    const std::vector<LintFinding> fs = lint("tools/nord_foo.cc", code);
    EXPECT_EQ(countCheck(fs, "determinism"), 4);
    // ... except the seeded wrapper that owns the library's randomness.
    EXPECT_TRUE(lint("src/common/rng.cc", code).empty());
}

TEST(NordLint, DeterminismIgnoresLookalikes)
{
    const char *code = R"cc(
int operand = srandom_marker;
double uptime(Cycle now) { return now * 1e-9; }
std::string timestamp = formatTime(cycle);
)cc";
    EXPECT_TRUE(lint("src/stats/network_stats.cc", code).empty());
}

TEST(NordLint, ClockedContract)
{
    // A Clocked class with state but no serializeState: each stateful
    // member would silently vanish from checkpoints, and each is one
    // unserialized-member finding of the state-coverage rules.
    const char *broken = R"cc(
class BrokenProbe : public Clocked
{
  public:
    void tick(Cycle now) override;
    std::string name() const override;

  private:
    Cycle lastTick_ = 0;
};
)cc";
    const std::vector<LintFinding> fs =
        stateFindings("src/verify/probe.hh", broken);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "unserialized-member");
    EXPECT_EQ(fs[0].line, 9);
    EXPECT_NE(fs[0].message.find("BrokenProbe::lastTick_"),
              std::string::npos);
    // The text checks have no opinion on it.
    EXPECT_TRUE(lint("src/verify/probe.hh", broken).empty());

    const char *complete = R"cc(
class GoodProbe : public Clocked
{
  public:
    void tick(Cycle now) override;
    std::string name() const override;
    void serializeState(StateSerializer &s) override { s.io(lastTick_); }

  private:
    Cycle lastTick_ = 0;
};
)cc";
    EXPECT_TRUE(stateFindings("src/verify/probe.hh", complete).empty());

    // A stateless hook (like NocSystem::WorkloadTicker) needs no walk
    // and no annotation.
    const char *stateless = R"cc(
class StatelessProbe : public Clocked
{
  public:
    explicit StatelessProbe(Owner &owner) : owner_(owner) {}
    void tick(Cycle now) override;
    std::string name() const override;

  private:
    Owner &owner_;
};
)cc";
    EXPECT_TRUE(stateFindings("src/verify/probe.hh", stateless).empty());
}

TEST(NordLint, UncheckedIoFlaggedInDurabilityCode)
{
    const char *bare = R"cc(
void
flushJournal(std::FILE *f, int fd)
{
    std::fwrite(buf, 1, n, f);
    fflush(f);
    fsync(fd);
    std::rename(tmp, path);
}
)cc";
    // Five findings: four discarded results, plus the rename's missing
    // parent-directory fsync (a separate unchecked-io finding).
    const std::vector<LintFinding> fs =
        lint("src/campaign/journal.cc", bare);
    EXPECT_EQ(countCheck(fs, "unchecked-io"), 5);
    EXPECT_EQ(countCheck(lint("src/ckpt/checkpoint.cc", bare),
                         "unchecked-io"), 5);
    // Only the durability layers are in scope: elsewhere an ignored
    // fflush is merely sloppy, not a resumability bug.
    EXPECT_TRUE(lint("src/router/router.cc", bare).empty());
    EXPECT_TRUE(lint("bench/bench_foo.cc", bare).empty());
}

TEST(NordLint, UncheckedIoCleanWhenResultConsumed)
{
    const char *checked = R"cc(
bool
flushJournal(std::FILE *f, int fd)
{
    if (std::fwrite(buf, 1, n, f) != n)
        return false;
    bool ok = (std::fflush(f) == 0);
    ok = (fsync(fd) == 0) && ok;
    if (!ok || std::rename(tmp, path) != 0)
        return false;
    return fsyncParentDir(path);
}
)cc";
    EXPECT_TRUE(lint("src/ckpt/checkpoint.cc", checked).empty());

    // An explicit (void) cast at least states intent; it passes.
    const char *discarded =
        "void cleanup(int fd) { (void)fsync(fd); }\n";
    EXPECT_TRUE(lint("src/campaign/journal.cc", discarded).empty());

    // Declarations and non-call uses of the names are not findings.
    const char *lookalikes = R"cc(
int rename(const char *oldp, const char *newp);
void logRename(const std::string &rename_target);
int fsyncBudget = 3;
)cc";
    EXPECT_TRUE(lint("src/campaign/journal.cc", lookalikes).empty());
}

TEST(NordLint, UncheckedIoAnnotationSuppresses)
{
    const char *annotated = R"cc(
void
bestEffortCleanup(const char *a, const char *b)
{
    // nord-lint-allow(unchecked-io): cleanup path, failure is benign
    rename(a, b);
}
)cc";
    EXPECT_TRUE(lint("src/campaign/journal.cc", annotated).empty());

    const char *unannotated = R"cc(
void
bestEffortCleanup(const char *a, const char *b)
{
    rename(a, b);
}
)cc";
    // Discarded result + missing parent-directory fsync.
    const std::vector<LintFinding> fs =
        lint("src/campaign/journal.cc", unannotated);
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].check, "unchecked-io");
    EXPECT_EQ(fs[1].check, "unchecked-io");
}

TEST(NordLint, UncheckedIoRenameRequiresDirFsync)
{
    // A CHECKED rename is still not durable: without fsyncing the
    // parent directory the new entry can vanish on power loss.
    const char *noDirSync = R"cc(
bool
publish(const char *tmp, const char *path)
{
    if (std::rename(tmp, path) != 0)
        return false;
    return true;
}
)cc";
    const std::vector<LintFinding> fs =
        lint("src/campaign/journal.cc", noDirSync);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].check, "unchecked-io");
    EXPECT_NE(fs[0].message.find("fsyncParentDir"), std::string::npos);

    // fsyncParentDir within the window satisfies the rule, even with
    // an error branch between the two calls.
    const char *synced = R"cc(
bool
publish(const char *tmp, const char *path, std::string *err)
{
    if (std::rename(tmp, path) != 0) {
        setErr(err, "rename failed");
        std::remove(tmp);
        return false;
    }
    return fsyncParentDir(path, err);
}
)cc";
    EXPECT_TRUE(lint("src/ckpt/checkpoint.cc", synced).empty());

    // A fsyncParentDir far below (a different operation) does not
    // excuse the rename.
    const char *farAway = R"cc(
bool
publish(const char *tmp, const char *path)
{
    if (std::rename(tmp, path) != 0)
        return false;
    return true;
}




void a();
void b();
void c();
void d();
void e();
bool
other(const char *path)
{
    return fsyncParentDir(path);
}
)cc";
    EXPECT_EQ(countCheck(lint("src/campaign/journal.cc", farAway),
                         "unchecked-io"), 1);

    // Annotation suppresses, as for every unchecked-io finding.
    const char *annotated = R"cc(
bool
publish(const char *tmp, const char *path)
{
    // nord-lint-allow(unchecked-io): tmpfs scratch, durability moot
    if (std::rename(tmp, path) != 0)
        return false;
    return true;
}
)cc";
    EXPECT_TRUE(lint("src/campaign/journal.cc", annotated).empty());

    // Out of durability scope the rule does not apply.
    EXPECT_TRUE(lint("src/router/router.cc", noDirSync).empty());
}

TEST(NordLint, StripCodeIgnoresCommentsAndStrings)
{
    const char *code = R"cc(
// static int commentedOut = 0;
/* std::random_device inBlockComment; */
const char *doc = "static int inString = 0; rand();";
const char *raw = R"(std::getenv("X") time(nullptr))";
)cc";
    EXPECT_TRUE(lint("src/router/router.cc", code).empty());

    const std::string stripped = stripCode(code);
    EXPECT_EQ(stripped.size(), std::string(code).size())
        << "stripping must preserve offsets";
    EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              std::count(code, code + std::string(code).size(), '\n'));
    EXPECT_EQ(stripped.find("commentedOut"), std::string::npos);
    EXPECT_EQ(stripped.find("inString"), std::string::npos);
    EXPECT_EQ(stripped.find("getenv"), std::string::npos);
}

// ---------------------------------------------------------------------
// The real tree.
// ---------------------------------------------------------------------

#ifdef NORD_SOURCE_ROOT
TEST(NordLint, RealSourceTreeIsClean)
{
    // Both halves of the gate: the text checks over every file and the
    // state-coverage rules over the src/ model.
    std::string err;
    const std::vector<LintFinding> fs =
        lintTree(NORD_SOURCE_ROOT, lintWhitelist(), &err);
    EXPECT_TRUE(err.empty()) << err;
    for (const LintFinding &f : fs)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.check
                      << "] " << f.message;
}
#endif

}  // namespace
}  // namespace nord
