/**
 * @file
 * nord-lint's state-coverage rules: cross-check the parsed state model
 * (state_model.hh) against two ground truths.
 *
 *  1. serialize-coverage: every non-static, non-const, non-reference data
 *     member of an in-scope class must appear in that class's
 *     serializeState() walk closure or carry NORD_STATE_EXCLUDE.
 *  2. annotation legality: each NORD_STATE_EXCLUDE category obeys its
 *     rule (see common/state_annotations.hh); annotations that bind to
 *     no member or name an unknown category are findings themselves.
 *
 * A class is in scope when it derives from Clocked, declares
 * serializeState, carries an annotation, or is serialized externally via
 * StateSerializer::io(T&). Members of nested structs used as member
 * storage are checked against the outermost class's walk.
 */

#ifndef NORD_VERIFY_STATECHECK_STATE_CHECK_HH
#define NORD_VERIFY_STATECHECK_STATE_CHECK_HH

#include <string>
#include <vector>

#include "verify/lint/source_lint.hh"
#include "verify/statecheck/state_model.hh"

namespace nord {
namespace statecheck {

/// Rule identifiers (the LintFinding::check slugs).
extern const char kRuleUnserializedMember[];
extern const char kRuleExcludeButSerialized[];
extern const char kRuleBadExcludeCategory[];
extern const char kRuleDanglingExclude[];
extern const char kRuleMissingSerializeBody[];

/** Run every rule over @p model (lintTree sorts the merged findings). */
std::vector<LintFinding> checkTree(const TreeModel &model);

/**
 * Transitive body text of @p cls methods reachable from any seed name in
 * @p seeds (e.g. {"serializeState"} or {"tick", "commit"}). Exposed for
 * the unit tests.
 */
std::string methodClosure(const TreeModel &model, const std::string &cls,
                          const std::vector<std::string> &seeds);

/**
 * Fixpoint-expand @p walk with the bodies of @p cls methods it calls, so
 * accessor-based serialization (io(Rng&) -> rawState()) credits the
 * members the accessors touch.
 */
std::string expandWalk(const TreeModel &model, const std::string &cls,
                       std::string walk);

}  // namespace statecheck
}  // namespace nord

#endif  // NORD_VERIFY_STATECHECK_STATE_CHECK_HH
