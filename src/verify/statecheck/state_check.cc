/**
 * @file
 * State-coverage rules (see state_check.hh).
 */

#include "verify/statecheck/state_check.hh"

#include <array>
#include <string>
#include <utility>
#include <vector>

namespace nord {
namespace statecheck {

const char kRuleUnserializedMember[] = "unserialized-member";
const char kRuleExcludeButSerialized[] = "exclude-but-serialized";
const char kRuleBadExcludeCategory[] = "bad-exclude-category";
const char kRuleDanglingExclude[] = "dangling-exclude";
const char kRuleMissingSerializeBody[] = "missing-serialize-body";

namespace {

const std::array<const char *, 4> kCategories = {
    "cache", "stat", "perf_counter", "config"};

/** Outermost class of a nesting-qualified name ("Router::InputPort"). */
std::string
outermostOf(const std::string &qualified)
{
    const size_t pos = qualified.find("::");
    return pos == std::string::npos ? qualified : qualified.substr(0, pos);
}

/** Every class name along the nesting chain. */
std::vector<std::string>
chainOf(const std::string &qualified)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = qualified.find("::", start);
        if (pos == std::string::npos) {
            out.push_back(qualified.substr(start));
            return out;
        }
        out.push_back(qualified.substr(start, pos - start));
        start = pos + 2;
    }
}

const ClassModel *
findClass(const TreeModel &model, const std::string &name)
{
    for (const ClassModel &c : model.classes) {
        if (c.qualified == name || (!c.nested && c.name == name))
            return &c;
    }
    return nullptr;
}

/** True when some method of a class in @p chain mutates @p member. */
bool
writtenAnywhere(const TreeModel &model,
                const std::vector<std::string> &chain,
                const std::string &member)
{
    for (const MethodBody &mb : model.methods) {
        for (const std::string &cls : chain) {
            if (mb.cls == cls && mutatesMember(mb.text, member))
                return true;
        }
    }
    return false;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

void
emit(std::vector<LintFinding> &out, const std::string &file, int line,
     const char *rule, const std::string &message)
{
    out.push_back({file, line, rule, message});
}

/**
 * Fixpoint-expand @p text with the bodies of @p cls methods whose names
 * it mentions (transitively). Lets accessor-based serialization --
 * io(Rng&) calling rawState()/setRawState() -- credit the members those
 * accessors touch.
 */
std::string
expandClosure(std::string text, std::vector<bool> &included,
              const std::vector<const MethodBody *> &own)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < own.size(); ++i) {
            if (included[i])
                continue;
            if (containsWord(text, own[i]->name)) {
                included[i] = true;
                text += own[i]->text;
                text += '\n';
                changed = true;
            }
        }
    }
    return text;
}

std::vector<const MethodBody *>
methodsOf(const TreeModel &model, const std::string &cls)
{
    std::vector<const MethodBody *> own;
    for (const MethodBody &mb : model.methods) {
        if (mb.cls == cls)
            own.push_back(&mb);
    }
    return own;
}

}  // namespace

std::string
methodClosure(const TreeModel &model, const std::string &cls,
              const std::vector<std::string> &seeds)
{
    const std::vector<const MethodBody *> own = methodsOf(model, cls);
    std::vector<bool> included(own.size(), false);
    std::string text;
    for (size_t i = 0; i < own.size(); ++i) {
        for (const std::string &seed : seeds) {
            if (own[i]->name == seed) {
                included[i] = true;
                text += own[i]->text;
                text += '\n';
                break;
            }
        }
    }
    return expandClosure(std::move(text), included, own);
}

std::string
expandWalk(const TreeModel &model, const std::string &cls,
           std::string walk)
{
    const std::vector<const MethodBody *> own = methodsOf(model, cls);
    std::vector<bool> included(own.size(), false);
    return expandClosure(std::move(walk), included, own);
}

std::vector<LintFinding>
checkTree(const TreeModel &model)
{
    std::vector<LintFinding> out;

    // External serializer walks (StateSerializer::io(T&)).
    auto externalWalk = [&](const std::string &cls) {
        std::string text;
        const std::string key = "io#" + cls;
        for (const MethodBody &mb : model.methods) {
            if (mb.name == key) {
                text += mb.text;
                text += '\n';
            }
        }
        return text;
    };

    for (const ClassModel &cls : model.classes) {
        const ClassModel *top =
            cls.nested ? findClass(model, outermostOf(cls.qualified))
                       : &cls;
        const std::string external = externalWalk(cls.name);

        // Scope: Clocked, serializable, annotated, externally walked, or
        // a nested struct used as member storage of an in-scope class.
        bool inScope = cls.clocked || cls.declaresSerialize ||
                       !cls.danglingExcludeLines.empty() ||
                       !external.empty();
        for (const MemberModel &m : cls.members) {
            if (m.excluded)
                inScope = true;
        }
        if (!inScope && cls.nested && cls.usedAsMemberType && top &&
            top != &cls) {
            inScope = top->clocked || top->declaresSerialize;
        }
        if (!inScope)
            continue;

        // The serialize walk this class's members must appear in: its own
        // serializeState closure, the outermost class's walk for nested
        // storage structs, or the external io(T&) body.
        std::string walk =
            methodClosure(model, cls.name, {"serializeState"});
        if (walk.empty() && cls.nested && top && top != &cls)
            walk = methodClosure(model, top->name, {"serializeState"});
        if (!external.empty())
            walk = expandWalk(model, cls.name, walk + external);

        // Tick-path mutation context: this class when Clocked, else the
        // outermost Clocked class whose tick drives it.
        std::string tickCls;
        if (cls.clocked)
            tickCls = cls.name;
        else if (top && top != &cls && top->clocked)
            tickCls = top->name;
        const std::string tickClosure =
            tickCls.empty()
                ? std::string()
                : methodClosure(model, tickCls, {"tick", "commit"});

        const bool serializesChain =
            cls.declaresSerialize ||
            (top && top != &cls && top->declaresSerialize);

        for (int line : cls.danglingExcludeLines) {
            emit(out, cls.file, line, kRuleDanglingExclude,
                 "NORD_STATE_EXCLUDE in " + cls.qualified +
                     " binds to no member declaration");
        }

        int checkable = 0;
        for (const MemberModel &m : cls.members) {
            if (!m.isStatic && !m.isConst && !m.isReference)
                ++checkable;
        }
        const bool walkMissing =
            walk.empty() && cls.declaresSerialize && checkable > 0;
        if (walkMissing) {
            emit(out, cls.file, cls.line, kRuleMissingSerializeBody,
                 cls.qualified +
                     " declares serializeState but no body was found "
                     "for its walk");
        }

        const std::vector<std::string> chain = chainOf(cls.qualified);
        for (const MemberModel &m : cls.members) {
            if (m.isStatic || m.isConst || m.isReference)
                continue;
            const bool serialized = containsWord(walk, m.name);
            if (!m.excluded) {
                if (!serialized && !walkMissing) {
                    emit(out, cls.file, m.line, kRuleUnserializedMember,
                         cls.qualified + "::" + m.name +
                             " is not serialized and carries no "
                             "NORD_STATE_EXCLUDE annotation");
                }
                continue;
            }
            if (serialized) {
                emit(out, cls.file, m.excludeLine,
                     kRuleExcludeButSerialized,
                     cls.qualified + "::" + m.name +
                         " carries NORD_STATE_EXCLUDE but appears in "
                         "the serializeState walk");
            }
            bool known = false;
            for (const char *cat : kCategories)
                known = known || m.category == cat;
            if (!known) {
                emit(out, cls.file, m.excludeLine, kRuleBadExcludeCategory,
                     cls.qualified + "::" + m.name +
                         ": unknown exclude category '" + m.category +
                         "' (expected cache, stat, perf_counter or "
                         "config)");
            } else if (m.category == "cache") {
                if (!writtenAnywhere(model, chain, m.name)) {
                    emit(out, cls.file, m.excludeLine,
                         kRuleBadExcludeCategory,
                         cls.qualified + "::" + m.name +
                             ": 'cache' member is never written by any "
                             "method; annotate as config instead");
                }
            } else if (m.category == "stat") {
                if (!serializesChain) {
                    emit(out, cls.file, m.excludeLine,
                         kRuleBadExcludeCategory,
                         cls.qualified + "::" + m.name +
                             ": 'stat' is only legal in classes that "
                             "serialize the rest of their state");
                }
            } else if (m.category == "perf_counter") {
                if (!startsWith(cls.file, "src/sim/") &&
                    !startsWith(cls.file, "src/common/")) {
                    emit(out, cls.file, m.excludeLine,
                         kRuleBadExcludeCategory,
                         cls.qualified + "::" + m.name +
                             ": 'perf_counter' is only legal under "
                             "src/sim/ and src/common/");
                }
            } else if (m.category == "config") {
                if (!tickClosure.empty() &&
                    mutatesMember(tickClosure, m.name)) {
                    emit(out, cls.file, m.excludeLine,
                         kRuleBadExcludeCategory,
                         cls.qualified + "::" + m.name +
                             ": 'config' member is mutated on the tick "
                             "path");
                }
            }
        }
    }
    return out;
}

}  // namespace statecheck
}  // namespace nord
