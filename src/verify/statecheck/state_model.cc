/**
 * @file
 * State-model declaration parser (see state_model.hh).
 *
 * Std-only, like the rest of the nord-lint engine: the CLI builds this
 * standalone and the model must be extractable from a tree that does not
 * compile. The scanner works on stripCode()-stripped text (comments and
 * string literals blanked, offsets preserved), so quoted or commented
 * "members" can never confuse it; annotation reasons are read back from
 * the original text at the same offsets.
 */

#include "verify/statecheck/state_model.hh"

#include <algorithm>
#include <array>
#include <cctype>

#include "verify/lint/source_lint.hh"

namespace nord {
namespace statecheck {

namespace {

size_t
skipSpaces(const std::string &s, size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

/** Identifier starting at @p i ("" when none). */
std::string
wordAt(const std::string &s, size_t i)
{
    size_t j = i;
    while (j < s.size() && isWordChar(s[j]))
        ++j;
    return s.substr(i, j - i);
}

/** Index of the brace matching the '{' at @p open (npos if unbalanced). */
size_t
matchBrace(const std::string &s, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
        if (s[i] == '{')
            ++depth;
        else if (s[i] == '}' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Index of the ')' matching the '(' at @p open (npos if unbalanced). */
size_t
matchParen(const std::string &s, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

std::string
collapseWs(const std::string &s)
{
    std::string out;
    bool space = false;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            space = !out.empty();
            continue;
        }
        if (space) {
            out.push_back(' ');
            space = false;
        }
        out.push_back(c);
    }
    return out;
}

/** One class/struct span found in a stripped header. */
struct RawClass
{
    std::string name;
    size_t keywordPos = 0;
    size_t bodyOpen = 0;   ///< offset of '{'
    size_t bodyClose = 0;  ///< offset of matching '}'
    bool clocked = false;
};

/**
 * Find every named class/struct definition (not forward declarations,
 * not enum class) in @p stripped.
 */
std::vector<RawClass>
findClasses(const std::string &stripped)
{
    std::vector<RawClass> out;
    for (const char *kw : {"class", "struct"}) {
        const size_t kwLen = std::string(kw).size();
        for (size_t i = stripped.find(kw); i != std::string::npos;
             i = stripped.find(kw, i + kwLen)) {
            if (!isWordAt(stripped, i, kw))
                continue;
            // `enum class` / `enum struct` declares an enum, not a class.
            size_t b = i;
            while (b > 0 && std::isspace(
                                static_cast<unsigned char>(stripped[b - 1])))
                --b;
            size_t bw = b;
            while (bw > 0 && isWordChar(stripped[bw - 1]))
                --bw;
            if (stripped.compare(bw, b - bw, "enum") == 0)
                continue;

            size_t j = skipSpaces(stripped, i + kwLen);
            const std::string name = wordAt(stripped, j);
            if (name.empty())
                continue;
            j = skipSpaces(stripped, j + name.size());
            if (isWordAt(stripped, j, "final"))
                j = skipSpaces(stripped, j + 5);

            RawClass rc;
            rc.name = name;
            rc.keywordPos = i;
            if (j >= stripped.size())
                continue;
            if (stripped[j] == ':' && j + 1 < stripped.size() &&
                stripped[j + 1] != ':') {
                // Base clause up to the body brace.
                const size_t open = stripped.find('{', j);
                if (open == std::string::npos)
                    continue;
                const std::string bases =
                    stripped.substr(j + 1, open - j - 1);
                rc.clocked = containsWord(bases, "Clocked");
                rc.bodyOpen = open;
            } else if (stripped[j] == '{') {
                rc.bodyOpen = j;
            } else {
                // Forward declaration, qualified-name use, etc.
                continue;
            }
            rc.bodyClose = matchBrace(stripped, rc.bodyOpen);
            if (rc.bodyClose == std::string::npos)
                continue;
            out.push_back(rc);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const RawClass &a, const RawClass &b) {
                  return a.keywordPos < b.keywordPos;
              });
    return out;
}

/** A NORD_STATE_EXCLUDE annotation found inside one class body. */
struct Annotation
{
    size_t end = 0;  ///< offset just past the closing ')'
    int line = 0;
    std::string category;
    std::string reason;
};

const char kExcludeMacro[] = "NORD_STATE_EXCLUDE";

/**
 * Extract annotations from the class-body copy @p text (offsets relative
 * to @p base in the file), reading reasons back from @p original, and
 * blank each annotation span so the member scanner never sees it.
 */
std::vector<Annotation>
extractAnnotations(std::string &text, const std::string &original,
                   size_t base)
{
    std::vector<Annotation> out;
    const size_t macroLen = sizeof(kExcludeMacro) - 1;
    for (size_t i = text.find(kExcludeMacro); i != std::string::npos;
         i = text.find(kExcludeMacro, i + 1)) {
        if (!isWordAt(text, i, kExcludeMacro))
            continue;
        const size_t open = skipSpaces(text, i + macroLen);
        if (open >= text.size() || text[open] != '(')
            continue;
        const size_t close = matchParen(text, open);
        if (close == std::string::npos)
            continue;
        Annotation a;
        a.end = close + 1;
        a.line = lineOf(text, i);
        a.category = wordAt(text, skipSpaces(text, open + 1));
        // The reason is a string literal: blanked in stripped text, so
        // read it from the original at the same offsets.
        const size_t comma = text.find(',', open);
        if (comma != std::string::npos && comma < close) {
            const std::string raw =
                original.substr(base + comma + 1, close - comma - 1);
            bool in = false;
            for (char c : raw) {
                if (c == '"') {
                    in = !in;
                    continue;
                }
                if (in)
                    a.reason.push_back(c);
            }
        }
        for (size_t k = i; k <= close && k < text.size(); ++k) {
            if (text[k] != '\n')
                text[k] = ' ';
        }
        out.push_back(std::move(a));
    }
    std::sort(out.begin(), out.end(),
              [](const Annotation &a, const Annotation &b) {
                  return a.end < b.end;
              });
    return out;
}

const std::array<const char *, 14> kSkipLeaders = {
    "using",      "typedef",  "friend",    "template",
    "static_assert", "enum",  "class",     "struct",
    "public",     "private",  "protected", "operator",
    "NORD_ASSERT", "NORD_DCHECK",
};

/**
 * Skip any leading `public:` / `private:` / `protected:` labels: the
 * statement scanner splits at ';', so a label and the declaration after
 * it arrive as one statement.
 */
size_t
skipAccessLabels(const std::string &text, size_t start, size_t end)
{
    while (true) {
        start = skipSpaces(text, start);
        if (start >= end)
            return start;
        const std::string w = wordAt(text, start);
        if (w != "public" && w != "private" && w != "protected")
            return start;
        const size_t c = skipSpaces(text, start + w.size());
        if (c >= end || text[c] != ':' ||
            (c + 1 < text.size() && text[c + 1] == ':'))
            return start;
        start = c + 1;
    }
}

/** A parsed member with its statement span (offsets within the body). */
struct ParsedMember
{
    MemberModel m;
    size_t stmtEnd = 0;
};

/**
 * Classify the statement text [begin, end) of a class body: when it is a
 * data-member declaration, append it to @p members.
 */
void
classifyStatement(const std::string &text, size_t begin, size_t end,
                  int lineBase, std::vector<ParsedMember> &members)
{
    const size_t start = skipAccessLabels(text, begin, end);
    if (start >= end)
        return;
    const std::string first = wordAt(text, start);
    for (const char *kw : kSkipLeaders) {
        if (first == kw)
            return;
    }
    const std::string stmt = text.substr(start, end - start);
    if (containsWord(stmt, "operator"))
        return;

    // Find the decisive punctuator at zero template depth: '(' means a
    // function, '=' / '[' / '{' (or none) means a variable declarator.
    int angle = 0;
    size_t nameEnd = std::string::npos;
    for (size_t k = 0; k < stmt.size(); ++k) {
        const char c = stmt[k];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
        } else if (angle == 0) {
            if (c == '(')
                return;  // function declaration / constructor
            if (c == '=' || c == '[' || c == '{') {
                nameEnd = k;
                break;
            }
        }
    }
    if (nameEnd == std::string::npos)
        nameEnd = stmt.size();

    // Declared name: last identifier before the decisive punctuator.
    size_t ne = nameEnd;
    while (ne > 0 &&
           std::isspace(static_cast<unsigned char>(stmt[ne - 1])))
        --ne;
    size_t nb = ne;
    while (nb > 0 && isWordChar(stmt[nb - 1]))
        --nb;
    if (nb == ne)
        return;
    const std::string name = stmt.substr(nb, ne - nb);
    if (!std::isalpha(static_cast<unsigned char>(name[0])) &&
        name[0] != '_')
        return;

    ParsedMember pm;
    pm.m.name = name;
    pm.m.declText = collapseWs(stmt);
    pm.m.line = lineBase + lineOf(text, start) - 1;
    pm.stmtEnd = end;

    // Qualifiers before the name, at zero template depth.
    angle = 0;
    for (size_t k = 0; k < nb; ++k) {
        const char c = stmt[k];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
        } else if (angle == 0) {
            if (c == '&')
                pm.m.isReference = true;
            else if (c == '*')
                pm.m.isPointer = true;
            else if (isWordChar(c) && (k == 0 || !isWordChar(stmt[k - 1]))) {
                const std::string w = wordAt(stmt, k);
                if (w == "static")
                    pm.m.isStatic = true;
                else if (w == "const" || w == "constexpr" ||
                         w == "constinit")
                    pm.m.isConst = true;
            }
        }
    }
    members.push_back(std::move(pm));
}

/**
 * True when the statement prefix before an opening brace is a function
 * definition (constructor, method) rather than a brace initializer.
 */
bool
prefixLooksLikeFunction(const std::string &text, size_t begin, size_t end)
{
    const size_t start = skipAccessLabels(text, begin, end);
    if (start >= end)
        return false;
    const std::string first = wordAt(text, start);
    for (const char *kw : kSkipLeaders) {
        if (first == kw)
            return true;  // skip the block either way
    }
    int angle = 0;
    for (size_t k = start; k < end; ++k) {
        const char c = text[k];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
        } else if (angle == 0) {
            if (c == '(')
                return true;
            if (c == '=')
                return false;  // brace initializer after '='
        }
    }
    return false;
}

/** Name of the function whose declaration prefix is [begin, end). */
std::string
functionName(const std::string &text, size_t begin, size_t end)
{
    int angle = 0;
    for (size_t k = begin; k < end; ++k) {
        const char c = text[k];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            if (angle > 0)
                --angle;
        } else if (angle == 0 && c == '(') {
            size_t ne = k;
            while (ne > begin &&
                   std::isspace(static_cast<unsigned char>(text[ne - 1])))
                --ne;
            size_t nb = ne;
            while (nb > begin && isWordChar(text[nb - 1]))
                --nb;
            return text.substr(nb, ne - nb);
        }
    }
    return "";
}

/**
 * Scan the direct body of one class (nested classes + annotations already
 * blanked) for member declarations and inline method bodies.
 */
void
scanClassBody(const std::string &body, int lineBase,
              const std::string &clsName, const std::string &file,
              std::vector<ParsedMember> &members, TreeModel &model)
{
    size_t stmtStart = 0;
    int paren = 0;
    for (size_t i = 0; i < body.size(); ++i) {
        const char c = body[i];
        if (c == '(') {
            ++paren;
        } else if (c == ')') {
            if (paren > 0)
                --paren;
        } else if (c == '{' && paren == 0) {
            const size_t close = matchBrace(body, i);
            if (close == std::string::npos)
                return;
            if (prefixLooksLikeFunction(body, stmtStart, i)) {
                const std::string fn = functionName(body, stmtStart, i);
                if (!fn.empty()) {
                    MethodBody mb;
                    mb.cls = clsName;
                    mb.name = fn;
                    mb.text = body.substr(i + 1, close - i - 1);
                    mb.file = file;
                    mb.line = lineBase + lineOf(body, stmtStart) - 1;
                    model.methods.push_back(std::move(mb));
                }
                i = close;
                const size_t next = skipSpaces(body, i + 1);
                if (next < body.size() && body[next] == ';')
                    i = next;
                stmtStart = i + 1;
            } else {
                i = close;  // brace initializer: statement continues
            }
        } else if (c == ';' && paren == 0) {
            classifyStatement(body, stmtStart, i, lineBase, members);
            stmtStart = i + 1;
        }
    }
}

const std::array<const char *, 20> kMutatingCalls = {
    "push_back", "push_front", "pop_back",  "pop_front", "clear",
    "insert",    "erase",      "assign",    "resize",    "emplace",
    "emplace_back", "emplace_front", "emplace_hint", "push", "pop",
    "reset",     "swap",       "fill",      "store",     "merge",
};

}  // namespace

bool
containsWord(const std::string &text, const std::string &word)
{
    for (size_t i = text.find(word); i != std::string::npos;
         i = text.find(word, i + 1)) {
        if (isWordAt(text, i, word))
            return true;
    }
    return false;
}

bool
mutatesMember(const std::string &body, const std::string &name)
{
    for (size_t i = body.find(name); i != std::string::npos;
         i = body.find(name, i + 1)) {
        if (!isWordAt(body, i, name))
            continue;

        // Pre-increment / pre-decrement.
        size_t b = i;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(body[b - 1])))
            --b;
        if (b >= 2 && (body.compare(b - 2, 2, "++") == 0 ||
                       body.compare(b - 2, 2, "--") == 0))
            return true;

        size_t a = i + name.size();
        // Element access: name[...] = ...
        a = skipSpaces(body, a);
        if (a < body.size() && body[a] == '[') {
            int depth = 0;
            while (a < body.size()) {
                if (body[a] == '[')
                    ++depth;
                else if (body[a] == ']' && --depth == 0) {
                    ++a;
                    break;
                }
                ++a;
            }
            a = skipSpaces(body, a);
        }
        if (a >= body.size())
            continue;

        // Assignment and increment operators.
        const char c0 = body[a];
        const char c1 = a + 1 < body.size() ? body[a + 1] : '\0';
        const char c2 = a + 2 < body.size() ? body[a + 2] : '\0';
        if (c0 == '=' && c1 != '=')
            return true;
        if ((c0 == '+' || c0 == '-') && c1 == c0)
            return true;
        if ((c0 == '+' || c0 == '-' || c0 == '*' || c0 == '/' ||
             c0 == '%' || c0 == '|' || c0 == '&' || c0 == '^') &&
            c1 == '=')
            return true;
        if ((c0 == '<' || c0 == '>') && c1 == c0 && c2 == '=')
            return true;

        // Mutating container/atomic call: name.clear(), name.push_back().
        // A call through `->` mutates the pointee, not the member itself,
        // so it deliberately does not count.
        if (c0 == '.') {
            size_t m = skipSpaces(body, a + 1);
            const std::string call = wordAt(body, m);
            const size_t open = skipSpaces(body, m + call.size());
            if (open < body.size() && body[open] == '(') {
                for (const char *mc : kMutatingCalls) {
                    if (call == mc)
                        return true;
                }
            }
        }
    }
    return false;
}

void
parseHeader(const std::string &path, const std::string &content,
            TreeModel &model)
{
    const std::string stripped = stripCode(content);
    const std::vector<RawClass> raw = findClasses(stripped);

    // Innermost enclosing class for nesting-qualified names.
    std::vector<int> parent(raw.size(), -1);
    for (size_t i = 0; i < raw.size(); ++i) {
        for (size_t j = 0; j < raw.size(); ++j) {
            if (i == j)
                continue;
            if (raw[j].bodyOpen < raw[i].keywordPos &&
                raw[j].bodyClose > raw[i].bodyClose) {
                if (parent[i] < 0 ||
                    raw[j].bodyOpen >
                        raw[static_cast<size_t>(parent[i])].bodyOpen)
                    parent[i] = static_cast<int>(j);
            }
        }
    }
    auto qualifiedName = [&](size_t i) {
        std::string q = raw[i].name;
        for (int p = parent[i]; p >= 0;
             p = parent[static_cast<size_t>(p)])
            q = raw[static_cast<size_t>(p)].name + "::" + q;
        return q;
    };

    const size_t firstClass = model.classes.size();
    for (size_t i = 0; i < raw.size(); ++i) {
        const RawClass &rc = raw[i];
        ClassModel cm;
        cm.name = rc.name;
        cm.qualified = qualifiedName(i);
        cm.file = path;
        cm.line = lineOf(stripped, rc.keywordPos);
        cm.clocked = rc.clocked;
        cm.nested = parent[i] >= 0;
        if (parent[i] >= 0)
            cm.outer = raw[static_cast<size_t>(parent[i])].name;

        // Direct body: children blanked so their members/annotations are
        // attributed to the child, not to this class.
        std::string body =
            stripped.substr(rc.bodyOpen + 1, rc.bodyClose - rc.bodyOpen - 1);
        const size_t base = rc.bodyOpen + 1;
        for (size_t j = 0; j < raw.size(); ++j) {
            if (parent[j] != static_cast<int>(i))
                continue;
            for (size_t k = raw[j].keywordPos;
                 k <= raw[j].bodyClose && k >= base &&
                 k - base < body.size();
                 ++k) {
                if (body[k - base] != '\n')
                    body[k - base] = ' ';
            }
        }

        const int lineBase = lineOf(stripped, base);
        std::vector<Annotation> anns =
            extractAnnotations(body, content, base);
        for (Annotation &a : anns)
            a.line = lineBase + a.line - 1;

        cm.declaresSerialize = containsWord(body, "serializeState");

        std::vector<ParsedMember> members;
        scanClassBody(body, lineBase, rc.name, path, members, model);

        // Bind each annotation to the next member declared after it.
        for (const Annotation &a : anns) {
            bool bound = false;
            for (ParsedMember &pm : members) {
                if (pm.stmtEnd <= a.end)
                    continue;
                if (!pm.m.excluded) {
                    pm.m.excluded = true;
                    pm.m.category = a.category;
                    pm.m.reason = a.reason;
                    pm.m.excludeLine = a.line;
                    bound = true;
                }
                break;
            }
            if (!bound)
                cm.danglingExcludeLines.push_back(a.line);
        }
        for (ParsedMember &pm : members)
            cm.members.push_back(std::move(pm.m));
        model.classes.push_back(std::move(cm));
    }

    // Nested structs used as member storage: fixpoint over the new
    // classes so chains (Router -> InputPort -> VirtualChannel) resolve.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = firstClass; i < model.classes.size(); ++i) {
            ClassModel &nested = model.classes[i];
            if (!nested.nested || nested.usedAsMemberType)
                continue;
            for (size_t j = firstClass; j < model.classes.size(); ++j) {
                const ClassModel &user = model.classes[j];
                if (&user == &nested)
                    continue;
                const bool userCounts =
                    !user.nested || user.usedAsMemberType;
                if (!userCounts)
                    continue;
                for (const MemberModel &m : user.members) {
                    if (containsWord(m.declText, nested.name)) {
                        nested.usedAsMemberType = true;
                        changed = true;
                        break;
                    }
                }
                if (nested.usedAsMemberType)
                    break;
            }
        }
    }
}

void
parseMethodBodies(const std::string &path, const std::string &content,
                  TreeModel &model)
{
    const std::string s = stripCode(content);
    for (size_t i = s.find("::"); i != std::string::npos;
         i = s.find("::", i + 2)) {
        size_t cb = i;
        while (cb > 0 && isWordChar(s[cb - 1]))
            --cb;
        const std::string cls = s.substr(cb, i - cb);
        if (cls.empty())
            continue;
        size_t mp = i + 2;
        const std::string method = wordAt(s, mp);
        if (method.empty())
            continue;
        size_t after = skipSpaces(s, mp + method.size());
        if (after + 1 < s.size() && s[after] == ':' && s[after + 1] == ':')
            continue;  // middle of A::B::m; the later "::" handles it
        if (after >= s.size() || s[after] != '(')
            continue;
        const size_t closeParen = matchParen(s, after);
        if (closeParen == std::string::npos)
            continue;

        // Scan past const/noexcept/override/trailing-return to the body.
        size_t p = closeParen + 1;
        size_t open = std::string::npos;
        while (p < s.size()) {
            p = skipSpaces(s, p);
            if (p >= s.size())
                break;
            const char c = s[p];
            if (c == '{') {
                open = p;
                break;
            }
            if (c == ';' || c == '=')
                break;  // declaration / = default / = delete
            if (c == ':' && (p + 1 >= s.size() || s[p + 1] != ':')) {
                // Constructor initializer list: skip items to the body.
                ++p;
                while (p < s.size()) {
                    p = skipSpaces(s, p);
                    if (p < s.size() && (s[p] == '(' || s[p] == '{')) {
                        const size_t cl = s[p] == '('
                                              ? matchParen(s, p)
                                              : matchBrace(s, p);
                        if (cl == std::string::npos)
                            break;
                        p = cl + 1;
                        p = skipSpaces(s, p);
                        if (p < s.size() && s[p] == ',') {
                            ++p;
                            continue;
                        }
                        if (p < s.size() && s[p] == '{')
                            open = p;
                        break;
                    }
                    // Item name / template args.
                    if (p < s.size() &&
                        (isWordChar(s[p]) || s[p] == ':' || s[p] == '<' ||
                         s[p] == '>')) {
                        ++p;
                        continue;
                    }
                    break;
                }
                break;
            }
            if (isWordChar(c) || c == '-' || c == '>' || c == '&' ||
                c == '*' || c == '<' || c == ',' || c == ')') {
                ++p;
                continue;
            }
            break;
        }
        if (open == std::string::npos)
            continue;
        const size_t close = matchBrace(s, open);
        if (close == std::string::npos)
            continue;

        MethodBody mb;
        mb.cls = cls;
        mb.name = method;
        if (cls == "StateSerializer" && method == "io") {
            // External walk: io(Flit &f) serializes struct Flit.
            const std::string args =
                s.substr(after + 1, closeParen - after - 1);
            const size_t amp = args.find('&');
            if (amp != std::string::npos) {
                size_t te = amp;
                while (te > 0 && std::isspace(
                                     static_cast<unsigned char>(args[te - 1])))
                    --te;
                size_t tb = te;
                while (tb > 0 && isWordChar(args[tb - 1]))
                    --tb;
                mb.name = "io#" + args.substr(tb, te - tb);
            }
        }
        mb.text = s.substr(open + 1, close - open - 1);
        mb.file = path;
        mb.line = lineOf(s, cb);
        model.methods.push_back(std::move(mb));
    }
}

}  // namespace statecheck
}  // namespace nord
