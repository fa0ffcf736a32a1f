/**
 * @file
 * nord-lint: the static source gate against hidden and uncovered state.
 *
 * Component state is checkpointed and hashed. This pass scans the C++
 * sources themselves to guard both halves of that claim: every component
 * member is covered by its serialize walk, and no state hides outside a
 * component. It bans
 *
 *  - mutable-static: non-const, non-thread_local function-local or
 *    namespace-scope `static` variables in src/ (each one is a data race
 *    the moment two NocSystems run on two threads), outside a short
 *    whitelist whose entries each carry a story;
 *  - env-latch: a `static` initialized from getenv() -- state that
 *    silently freezes the first environment it sees (the old
 *    tracedPacket() bug), banned everywhere including src/common/;
 *  - env-read: getenv() outside src/common/ (environment access is a
 *    side channel; it must be funneled through common/);
 *  - stdio-side-channel: stderr/stdout/printf in src/ outside
 *    src/common/ (diagnostics go through diagStream() so every side
 *    channel is enumerable);
 *  - determinism: libc rand()/srand(), std::random_device and wall-clock
 *    time() anywhere in src/tools/bench/examples/tests except the
 *    seeded generator src/common/rng.*;
 *  - flit-heap: a direct new-expression of Flit or PacketDescriptor in
 *    src/ outside the arena itself (src/common/arena.*) -- flit/packet
 *    storage goes through arena-backed containers so the hot path never
 *    pays per-flit heap churn;
 *  - unchecked-io: fwrite/fflush/fsync/rename called as a bare statement
 *    (result discarded) in the durability layers src/ckpt/ and
 *    src/campaign/ -- an ignored I/O result there is how a "durable"
 *    file silently loses its tail on a full disk;
 *  - state coverage: every src/ file also feeds the declaration parser
 *    (verify/statecheck/), whose rules report each data member that is
 *    neither serialized nor legally NORD_STATE_EXCLUDE-annotated
 *    (unserialized-member, exclude-but-serialized, bad-exclude-category,
 *    dangling-exclude, missing-serialize-body).
 *
 * A text-check finding on line N is suppressed by
 * `// nord-lint-allow(<check>)` on line N or one of the two lines above
 * it; state-coverage findings are fixed in the code or annotated with
 * NORD_STATE_EXCLUDE. The engine is std-only so the CLI (tools/nord-lint)
 * builds standalone.
 */

#ifndef NORD_VERIFY_LINT_SOURCE_LINT_HH
#define NORD_VERIFY_LINT_SOURCE_LINT_HH

#include <string>
#include <string_view>
#include <vector>

namespace nord {

namespace statecheck {
struct TreeModel;
}  // namespace statecheck

/** One lint violation. */
struct LintFinding
{
    std::string file;     ///< path as handed to lintSource
    int line = 0;         ///< 1-based line number
    std::string check;    ///< check slug (e.g. "mutable-static")
    std::string message;  ///< human-readable description
};

/** One sanctioned exception, with its justification. */
struct LintWhitelistEntry
{
    std::string fileSuffix;  ///< applies when the path ends with this
    std::string check;       ///< check slug the exception is for
    std::string token;       ///< offending line must contain this
    std::string story;       ///< why this one is safe
};

/**
 * The built-in whitelist: the library's sanctioned mutable statics
 * (the mutex-guarded CriticalityCache, the lock-free trace selection).
 */
const std::vector<LintWhitelistEntry> &lintWhitelist();

/**
 * Lint one file's content. @p path selects scope-sensitive checks
 * (src/ vs src/common/ vs tests/...) and should be repo-relative.
 */
std::vector<LintFinding>
lintSource(const std::string &path, const std::string &content,
           const std::vector<LintWhitelistEntry> &whitelist =
               lintWhitelist());

/**
 * Lint every *.cc / *.hh under @p root's src, tools, bench, examples and
 * tests directories, reading each file once: every file gets the text
 * checks, every src/ file also feeds the state model, and the state-
 * coverage rules run over that model after the walk. Findings are sorted
 * by (file, line). A root without src/ or an unreadable file sets *err
 * (the findings gathered so far are still returned). When @p model is
 * given it receives the parsed state model.
 */
std::vector<LintFinding>
lintTree(const std::string &root,
         const std::vector<LintWhitelistEntry> &whitelist = lintWhitelist(),
         std::string *err = nullptr,
         statecheck::TreeModel *model = nullptr);

/**
 * Strip comments, string literals (including raw strings) and char
 * literals from C++ source, preserving newlines and length, so token
 * scans cannot be fooled by quoted or commented text. Exposed for tests.
 */
std::string stripCode(const std::string &content);

/** True for identifier characters [A-Za-z0-9_]. */
bool isWordChar(char c);

/** True when s[pos..) is the whole identifier @p word. */
bool isWordAt(const std::string &s, size_t pos, std::string_view word);

/** 1-based line number of offset @p pos. */
int lineOf(const std::string &s, size_t pos);

}  // namespace nord

#endif  // NORD_VERIFY_LINT_SOURCE_LINT_HH
