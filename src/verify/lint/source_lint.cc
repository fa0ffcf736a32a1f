/**
 * @file
 * nord-lint engine implementation (see source_lint.hh for the checks).
 *
 * Deliberately std-only (no nord dependencies): the CLI builds this file
 * standalone, and the engine must be able to lint a tree that does not
 * compile.
 */

#include "verify/lint/source_lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "verify/statecheck/state_check.hh"

namespace nord {

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isWordAt(const std::string &s, size_t pos, std::string_view word)
{
    if (s.compare(pos, word.size(), word) != 0)
        return false;
    if (pos > 0 && isWordChar(s[pos - 1]))
        return false;
    const size_t end = pos + word.size();
    return end >= s.size() || !isWordChar(s[end]);
}

int
lineOf(const std::string &s, size_t pos)
{
    return 1 + static_cast<int>(std::count(
                   s.begin(), s.begin() + static_cast<long>(pos), '\n'));
}

namespace {

/** The full text of 1-based line @p line (empty when out of range). */
std::string
lineText(const std::string &s, int line)
{
    std::istringstream in(s);
    std::string text;
    for (int i = 0; i < line; ++i) {
        if (!std::getline(in, text))
            return "";
    }
    return text;
}

/**
 * True when `// nord-lint-allow(...)` naming @p check appears on @p line
 * or the two lines above it in the ORIGINAL content (annotations live in
 * comments, which stripCode removes).
 */
bool
allowedAt(const std::string &original, int line, const std::string &check)
{
    for (int l = line; l >= 1 && l >= line - 2; --l) {
        const std::string text = lineText(original, l);
        const size_t at = text.find("nord-lint-allow(");
        if (at == std::string::npos)
            continue;
        const size_t close = text.find(')', at);
        if (close == std::string::npos)
            continue;
        const std::string args =
            text.substr(at + 16, close - (at + 16));
        if (args.find(check) != std::string::npos)
            return true;
    }
    return false;
}

/** Scope of one file relative to the repo root. */
struct Scope
{
    bool underSrc = false;     ///< src/...
    bool underCommon = false;  ///< src/common/...
    bool isRngWrapper = false; ///< src/common/rng.{hh,cc}
    bool durability = false;   ///< src/ckpt/... or src/campaign/...
};

Scope
classify(const std::string &path)
{
    // Normalize separators; accept both repo-relative and absolute paths.
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    Scope s;
    auto within = [&p](const char *dir) {
        const std::string d = std::string(dir) + "/";
        return p.rfind(d, 0) == 0 ||
               p.find("/" + d) != std::string::npos;
    };
    s.underSrc = within("src");
    s.underCommon = within("src/common");
    s.isRngWrapper = p.find("src/common/rng.") != std::string::npos;
    s.durability = within("src/ckpt") || within("src/campaign");
    return s;
}

/**
 * Span of the declaration/statement starting at the `static` keyword:
 * ends at the first `;` at zero bracket depth, or where a brace block
 * opened after the keyword closes back to depth zero (function bodies,
 * brace initializers, lambda initializers).
 */
size_t
statementEnd(const std::string &s, size_t from)
{
    int depth = 0;
    bool sawBrace = false;
    const size_t cap = std::min(s.size(), from + 4000);
    for (size_t i = from; i < cap; ++i) {
        const char c = s[i];
        if (c == '(' || c == '[')
            ++depth;
        else if (c == ')' || c == ']')
            --depth;
        else if (c == '{') {
            ++depth;
            sawBrace = true;
        } else if (c == '}') {
            --depth;
            if (sawBrace && depth <= 0)
                return i + 1;
        } else if (c == ';' && depth <= 0) {
            return i + 1;
        }
    }
    return cap;
}

/**
 * Classify the `static` at @p pos: returns true (and the finding line)
 * when it declares a mutable variable -- i.e. scanning forward at zero
 * template/paren depth, none of const/constexpr/constinit/thread_local
 * appears, the previous token is not thread_local, and the declaration
 * hits `;`, `=` or `{` before any `(` (a `(` first means a function).
 */
bool
isMutableStaticVariable(const std::string &s, size_t pos, size_t len)
{
    // Previous token: `thread_local static int x;` is shard-safe.
    size_t b = pos;
    while (b > 0 &&
           std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    size_t e = b;
    while (b > 0 && isWordChar(s[b - 1]))
        --b;
    if (s.compare(b, e - b, "thread_local") == 0)
        return false;

    int angle = 0;
    size_t i = pos + len;
    while (i < s.size()) {
        const char c = s[i];
        if (c == '<') {
            ++angle;
            ++i;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
            ++i;
        } else if (angle == 0 &&
                   (c == '(' || c == ';' || c == '=' || c == '{')) {
            return c != '(';
        } else if (isWordChar(c)) {
            size_t j = i;
            while (j < s.size() && isWordChar(s[j]))
                ++j;
            const std::string word = s.substr(i, j - i);
            if (word == "const" || word == "constexpr" ||
                word == "constinit" || word == "thread_local")
                return false;
            i = j;
        } else {
            ++i;
        }
    }
    return false;
}

bool
whitelisted(const LintFinding &f, const std::string &offendingLine,
            const std::vector<LintWhitelistEntry> &wl)
{
    for (const LintWhitelistEntry &w : wl) {
        if (f.check != w.check)
            continue;
        if (f.file.size() < w.fileSuffix.size() ||
            f.file.compare(f.file.size() - w.fileSuffix.size(),
                           w.fileSuffix.size(), w.fileSuffix) != 0)
            continue;
        if (offendingLine.find(w.token) != std::string::npos)
            return true;
    }
    return false;
}

void
checkStatics(const std::string &path, const std::string &original,
             const std::string &stripped, const Scope &scope,
             const std::vector<LintWhitelistEntry> &wl,
             std::vector<LintFinding> &out)
{
    for (size_t i = stripped.find("static"); i != std::string::npos;
         i = stripped.find("static", i + 6)) {
        if (!isWordAt(stripped, i, "static"))
            continue;
        const int line = lineOf(stripped, i);
        const std::string span =
            stripped.substr(i, statementEnd(stripped, i) - i);

        // env-latch: a static seeded from the environment freezes the
        // first environment it sees. Banned everywhere, const or not.
        if (span.find("getenv") != std::string::npos) {
            LintFinding f{path, line, "env-latch",
                          "static initialized from getenv(): latches the "
                          "first environment seen and can never be reset "
                          "(use an explicit resettable config object)"};
            if (!allowedAt(original, line, f.check) &&
                !whitelisted(f, lineText(original, line), wl))
                out.push_back(std::move(f));
        }

        // mutable-static: src/ only.
        if (scope.underSrc &&
            isMutableStaticVariable(stripped, i, 6)) {
            LintFinding f{path, line, "mutable-static",
                          "non-const static variable: hidden process-"
                          "global state, a data race once two NocSystems "
                          "run on two threads (own it in a component, or "
                          "whitelist it with a story)"};
            if (!allowedAt(original, line, f.check) &&
                !whitelisted(f, lineText(original, line), wl))
                out.push_back(std::move(f));
        }
    }
}

void
checkEnvReads(const std::string &path, const std::string &original,
              const std::string &stripped, const Scope &scope,
              std::vector<LintFinding> &out)
{
    // Tests and benches may read their own knobs from the environment;
    // the ban is on the simulator library itself.
    if (!scope.underSrc || scope.underCommon)
        return;
    for (size_t i = stripped.find("getenv"); i != std::string::npos;
         i = stripped.find("getenv", i + 6)) {
        if (!isWordAt(stripped, i, "getenv"))
            continue;
        const int line = lineOf(stripped, i);
        if (allowedAt(original, line, "env-read"))
            continue;
        out.push_back({path, line, "env-read",
                       "getenv() outside src/common/: environment side "
                       "channel (funnel it through common/)"});
    }
}

void
checkFlitHeap(const std::string &path, const std::string &original,
              const std::string &stripped, const Scope &scope,
              std::vector<LintFinding> &out)
{
    // Per-flit heap churn is the hot-path cost the pool arena
    // (src/common/arena.hh) exists to eliminate: flit/packet storage in
    // the simulator belongs in arena-backed containers, never in direct
    // new-expressions. The arena itself and code outside src/ (tests,
    // benches, tools) are exempt.
    if (!scope.underSrc ||
        path.find("src/common/arena.") != std::string::npos) {
        return;
    }
    static const char *const kTypes[] = {"Flit", "PacketDescriptor"};
    for (size_t i = stripped.find("new"); i != std::string::npos;
         i = stripped.find("new", i + 3)) {
        if (!isWordAt(stripped, i, "new"))
            continue;
        size_t j = i + 3;
        while (j < stripped.size() &&
               (stripped[j] == ' ' || stripped[j] == '\t' ||
                stripped[j] == '\n')) {
            ++j;
        }
        for (const char *type : kTypes) {
            if (!isWordAt(stripped, j, type))
                continue;
            const int line = lineOf(stripped, i);
            if (allowedAt(original, line, "flit-heap"))
                continue;
            out.push_back(
                {path, line, "flit-heap",
                 std::string("new ") + type +
                     ": direct heap allocation of flit/packet storage "
                     "bypasses the pool arena (use an arena-backed "
                     "container, see src/common/arena.hh)"});
        }
    }
}

void
checkStdio(const std::string &path, const std::string &original,
           const std::string &stripped, const Scope &scope,
           std::vector<LintFinding> &out)
{
    if (!scope.underSrc || scope.underCommon)
        return;
    static const struct
    {
        const char *word;
        size_t len;
    } kBanned[] = {{"stderr", 6}, {"stdout", 6}, {"printf", 6},
                   {"scanf", 5}, {"puts", 4}};
    for (const auto &b : kBanned) {
        for (size_t i = stripped.find(b.word); i != std::string::npos;
             i = stripped.find(b.word, i + b.len)) {
            if (!isWordAt(stripped, i, b.word))
                continue;
            const int line = lineOf(stripped, i);
            if (allowedAt(original, line, "stdio-side-channel"))
                continue;
            out.push_back(
                {path, line, "stdio-side-channel",
                 std::string(b.word) +
                     " in src/ outside src/common/: route diagnostics "
                     "through diagStream() / a FILE* parameter so side "
                     "channels stay enumerable"});
        }
    }
}

void
checkDeterminism(const std::string &path, const std::string &original,
                 const std::string &stripped, const Scope &scope,
                 std::vector<LintFinding> &out)
{
    if (scope.isRngWrapper)
        return;
    auto report = [&](size_t pos, const std::string &msg) {
        const int line = lineOf(stripped, pos);
        if (allowedAt(original, line, "determinism"))
            return;
        out.push_back({path, line, "determinism", msg});
    };

    for (const char *word : {"rand", "srand"}) {
        const size_t len = std::string(word).size();
        for (size_t i = stripped.find(word); i != std::string::npos;
             i = stripped.find(word, i + len)) {
            if (!isWordAt(stripped, i, word)) {
                continue;
            }
            size_t j = i + len;
            while (j < stripped.size() &&
                   std::isspace(static_cast<unsigned char>(stripped[j])))
                ++j;
            if (j < stripped.size() && stripped[j] == '(')
                report(i, "libc rand()/srand(): global hidden PRNG state; "
                          "all randomness must flow through the seeded "
                          "src/common/rng.*");
        }
    }

    for (size_t i = stripped.find("std::random_device");
         i != std::string::npos;
         i = stripped.find("std::random_device", i + 18)) {
        report(i, "std::random_device: nondeterministic hardware entropy; "
                  "use the seeded src/common/rng.*");
    }

    for (size_t i = stripped.find("time"); i != std::string::npos;
         i = stripped.find("time", i + 4)) {
        if (!isWordAt(stripped, i, "time"))
            continue;
        size_t j = i + 4;
        while (j < stripped.size() &&
               std::isspace(static_cast<unsigned char>(stripped[j])))
            ++j;
        if (j >= stripped.size() || stripped[j] != '(')
            continue;
        const size_t close = stripped.find(')', j);
        if (close == std::string::npos)
            continue;
        std::string arg = stripped.substr(j + 1, close - j - 1);
        arg.erase(std::remove_if(arg.begin(), arg.end(),
                                 [](char c) {
                                     return std::isspace(
                                         static_cast<unsigned char>(c));
                                 }),
                  arg.end());
        if (arg.empty() || arg == "nullptr" || arg == "NULL" ||
            arg == "0")
            report(i, "wall-clock time() call: wall time must never leak "
                      "into simulation state");
    }
}

void
checkUncheckedIo(const std::string &path, const std::string &original,
                 const std::string &stripped, const Scope &scope,
                 std::vector<LintFinding> &out)
{
    // Durability code (checkpoints, campaign results) must never
    // drop an I/O result: an ignored fwrite/fsync/rename is exactly how
    // a "durable" file silently loses its tail on a full disk. The
    // heuristic flags a call used as a bare statement -- the last
    // non-space character before the call (skipping a std:: qualifier)
    // is a statement boundary, so the return value cannot have been
    // consumed. `if (fsync(fd) != 0)` and `(void)fflush(f)` both pass:
    // the first checks, the second at least states intent.
    if (!scope.durability)
        return;
    static const struct
    {
        const char *word;
        size_t len;
    } kCalls[] = {{"fwrite", 6}, {"fflush", 6}, {"rename", 6},
                  {"fsync", 5}};
    for (const auto &c : kCalls) {
        for (size_t i = stripped.find(c.word); i != std::string::npos;
             i = stripped.find(c.word, i + c.len)) {
            if (!isWordAt(stripped, i, c.word))
                continue;
            size_t j = i + c.len;
            while (j < stripped.size() &&
                   std::isspace(static_cast<unsigned char>(stripped[j])))
                ++j;
            if (j >= stripped.size() || stripped[j] != '(')
                continue;  // not a call (declaration, comment token, ...)
            size_t b = i;
            if (b >= 5 && stripped.compare(b - 5, 5, "std::") == 0)
                b -= 5;
            while (b > 0 && std::isspace(
                                static_cast<unsigned char>(stripped[b - 1])))
                --b;
            const char prev = b > 0 ? stripped[b - 1] : ';';
            if (prev != ';' && prev != '{' && prev != '}')
                continue;
            const int line = lineOf(stripped, i);
            if (allowedAt(original, line, "unchecked-io"))
                continue;
            out.push_back({path, line, "unchecked-io",
                           std::string(c.word) +
                               "() result discarded in durability code: a "
                               "failed write/flush/rename must be "
                               "detected, not assumed (check the return, "
                               "or annotate a deliberate best-effort call "
                               "with nord-lint-allow(unchecked-io))"});
        }
    }

    // A checked rename() is still not durable by itself: the new
    // directory entry lives in the parent directory's data, and a power
    // loss right after rename() can resurface the old file on the next
    // mount. Every rename in durability code must therefore be followed
    // by a fsyncParentDir() call nearby (same atomic-publish sequence);
    // "nearby" is a window of a few lines, wide enough for the error
    // branch between them, narrow enough that the fsync is visibly part
    // of the same operation.
    constexpr int kDirFsyncWindow = 12;
    for (size_t i = stripped.find("rename"); i != std::string::npos;
         i = stripped.find("rename", i + 6)) {
        if (!isWordAt(stripped, i, "rename"))
            continue;
        size_t j = i + 6;
        while (j < stripped.size() &&
               std::isspace(static_cast<unsigned char>(stripped[j])))
            ++j;
        if (j >= stripped.size() || stripped[j] != '(')
            continue;
        // A word character immediately left of the name (after a
        // possible std:: qualifier) means a declaration's return type
        // (`int rename(...)`) -- not a call site.
        size_t b = i;
        if (b >= 5 && stripped.compare(b - 5, 5, "std::") == 0)
            b -= 5;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(stripped[b - 1])))
            --b;
        if (b > 0 && isWordChar(stripped[b - 1]))
            continue;
        const int line = lineOf(stripped, i);
        bool synced = false;
        for (size_t f = stripped.find("fsyncParentDir", i);
             f != std::string::npos;
             f = stripped.find("fsyncParentDir", f + 14)) {
            if (lineOf(stripped, f) <= line + kDirFsyncWindow) {
                synced = true;
            }
            break;
        }
        if (synced)
            continue;
        if (allowedAt(original, line, "unchecked-io"))
            continue;
        out.push_back({path, line, "unchecked-io",
                       "rename() without a nearby fsyncParentDir() in "
                       "durability code: the new directory entry is not "
                       "durable until the parent directory is fsynced "
                       "(publish via fsyncParentDir after the rename, or "
                       "annotate with nord-lint-allow(unchecked-io))"});
    }
}

}  // namespace

std::string
stripCode(const std::string &content)
{
    std::string out = content;
    enum class St
    {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
        kRawString,
    } st = St::kCode;
    std::string rawDelim;  // )delim" terminator for raw strings

    for (size_t i = 0; i < content.size(); ++i) {
        const char c = content[i];
        const char next = i + 1 < content.size() ? content[i + 1] : '\0';
        switch (st) {
          case St::kCode:
            if (c == '/' && next == '/') {
                st = St::kLineComment;
                out[i] = ' ';
            } else if (c == '/' && next == '*') {
                st = St::kBlockComment;
                out[i] = ' ';
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || !isWordChar(content[i - 1]))) {
                // R"delim( ... )delim"
                size_t open = content.find('(', i + 2);
                if (open == std::string::npos)
                    break;
                rawDelim = ")";
                rawDelim.append(content, i + 2, open - (i + 2));
                rawDelim.push_back('"');
                st = St::kRawString;
                for (size_t j = i; j <= open && j < out.size(); ++j) {
                    if (out[j] != '\n')
                        out[j] = ' ';
                }
                i = open;
            } else if (c == '"') {
                st = St::kString;
                out[i] = ' ';
            } else if (c == '\'') {
                st = St::kChar;
                out[i] = ' ';
            }
            break;
          case St::kLineComment:
            if (c == '\n')
                st = St::kCode;
            else
                out[i] = ' ';
            break;
          case St::kBlockComment:
            if (c == '*' && next == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::kString:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                out[i] = ' ';
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::kChar:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                out[i] = ' ';
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::kRawString:
            if (content.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t j = i; j < i + rawDelim.size(); ++j)
                    out[j] = ' ';
                i += rawDelim.size() - 1;
                st = St::kCode;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

const std::vector<LintWhitelistEntry> &
lintWhitelist()
{
    static const std::vector<LintWhitelistEntry> kWhitelist = {
        {"src/topology/criticality.cc", "mutable-static",
         "static CriticalityCache cache",
         "process-wide criticality cache: the one sanctioned shared-state "
         "singleton, mutex-guarded, results immutable once computed"},
        {"src/common/trace.cc", "mutable-static",
         "static std::atomic<PacketId> selected",
         "trace selection: a single lock-free atomic, resettable via "
         "TraceConfig, never a data race"},
    };
    return kWhitelist;
}

std::vector<LintFinding>
lintSource(const std::string &path, const std::string &content,
           const std::vector<LintWhitelistEntry> &whitelist)
{
    std::vector<LintFinding> out;
    const Scope scope = classify(path);
    const std::string stripped = stripCode(content);
    checkStatics(path, content, stripped, scope, whitelist, out);
    checkEnvReads(path, content, stripped, scope, out);
    checkFlitHeap(path, content, stripped, scope, out);
    checkStdio(path, content, stripped, scope, out);
    checkDeterminism(path, content, stripped, scope, out);
    checkUncheckedIo(path, content, stripped, scope, out);
    std::sort(out.begin(), out.end(),
              [](const LintFinding &a, const LintFinding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.check < b.check;
              });
    return out;
}

std::vector<LintFinding>
lintTree(const std::string &root,
         const std::vector<LintWhitelistEntry> &whitelist,
         std::string *err, statecheck::TreeModel *model)
{
    namespace fs = std::filesystem;
    std::vector<LintFinding> out;
    std::error_code ec;
    if (!fs::is_directory(fs::path(root) / "src", ec)) {
        if (err)
            *err = "no src/ directory under " + root;
        return out;
    }
    std::vector<std::string> files;
    for (const char *dir :
         {"src", "tools", "bench", "examples", "tests"}) {
        const fs::path base = fs::path(root) / dir;
        if (!fs::is_directory(base, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(base, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file(ec))
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".cc" && ext != ".hh")
                continue;
            const std::string rel =
                fs::relative(it->path(), root, ec).generic_string();
            // Planted-violation fixture trees (tests/fixtures/...) are
            // test data for the analyzers, not code to lint.
            if (rel.find("/fixtures/") != std::string::npos)
                continue;
            files.push_back(rel);
        }
    }
    std::sort(files.begin(), files.end());

    statecheck::TreeModel local;
    statecheck::TreeModel &tree = model ? *model : local;
    for (const std::string &rel : files) {
        std::ifstream in(fs::path(root) / rel,
                         std::ios::in | std::ios::binary);
        if (!in) {
            if (err)
                *err = "cannot read " + rel;
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string content = buf.str();
        std::vector<LintFinding> found =
            lintSource(rel, content, whitelist);
        out.insert(out.end(), found.begin(), found.end());
        if (rel.rfind("src/", 0) == 0) {
            if (rel.compare(rel.size() - 3, 3, ".hh") == 0)
                statecheck::parseHeader(rel, content, tree);
            statecheck::parseMethodBodies(rel, content, tree);
        }
    }

    std::vector<LintFinding> state = statecheck::checkTree(tree);
    out.insert(out.end(), state.begin(), state.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return std::tie(a.file, a.line, a.check) <
                                std::tie(b.file, b.line, b.check);
                     });
    return out;
}

}  // namespace nord
