/**
 * @file
 * nord-lint's declaration parser: the per-class member model.
 *
 * NoRD's correctness stack -- bit-exact checkpoint/restore, stateHash()
 * lockstep tests and crash-resumable campaigns -- silently breaks the
 * moment a data member is added to a component and forgotten in
 * serializeState(). This parser makes
 * the state model *machine-readable*: it extracts, from the C++ headers
 * and sources themselves, for every Clocked / serializable class in src/:
 *
 *  - every non-static data member, with const/reference/pointer/static
 *    qualifiers and any NORD_STATE_EXCLUDE(category, reason) annotation
 *    (see common/state_annotations.hh);
 *  - nested member structs that are actually used as member storage
 *    (e.g. Router::VirtualChannel inside the VC buffer array), whose
 *    fields are checkpoint state exactly like direct members;
 *  - every out-of-line and inline member-function body, so the rule layer
 *    (state_check.hh) can compute the serializeState() walk closure and
 *    the tick()-path mutation set;
 *  - the external serializer walks StateSerializer::io(T&) provides for
 *    plain structs like Flit and PacketDescriptor.
 *
 * Like the rest of the nord-lint engine it is deliberately std-only (no
 * libclang, no nord dependencies): the CLI builds standalone and the
 * model can be extracted from a tree that does not compile. lintTree()
 * feeds it every src/ file during its one walk. It is a heuristic
 * declaration scanner, not a full C++ parser -- the accepted shapes and
 * known limits are documented in DESIGN.md section 5.8; the annotation-
 * truthing tests keep the model honest at runtime.
 */

#ifndef NORD_VERIFY_STATECHECK_STATE_MODEL_HH
#define NORD_VERIFY_STATECHECK_STATE_MODEL_HH

#include <string>
#include <vector>

namespace nord {
namespace statecheck {

/** One data member of a modeled class. */
struct MemberModel
{
    std::string name;      ///< declared identifier (e.g. "tickedLast_")
    std::string declText;  ///< declaration text (whitespace-collapsed)
    int line = 0;          ///< 1-based line of the declaration
    bool isStatic = false;
    bool isConst = false;      ///< const / constexpr / constinit
    bool isReference = false;  ///< declarator is a reference
    bool isPointer = false;    ///< declarator is (or contains) a pointer

    bool excluded = false;     ///< carries NORD_STATE_EXCLUDE
    std::string category;      ///< annotation category token
    std::string reason;        ///< annotation reason (string literal body)
    int excludeLine = 0;       ///< line of the annotation
};

/** One class or struct extracted from a header. */
struct ClassModel
{
    std::string name;       ///< unqualified name (e.g. "Router")
    std::string qualified;  ///< nesting-qualified (e.g. "Router::InputPort")
    std::string file;       ///< repo-relative path of the header
    int line = 0;           ///< 1-based line of the class keyword
    bool clocked = false;            ///< base clause names Clocked
    bool declaresSerialize = false;  ///< body declares serializeState
    bool nested = false;             ///< defined inside another class
    bool usedAsMemberType = false;   ///< nested + named by a member's type
    std::string outer;               ///< innermost enclosing class name
    std::vector<MemberModel> members;
    std::vector<int> danglingExcludeLines;  ///< annotations binding nothing
};

/** One member-function body (out-of-line or inline). */
struct MethodBody
{
    std::string cls;   ///< owning class, unqualified (e.g. "Router")
    std::string name;  ///< method name; "io#Flit" for StateSerializer::io
    std::string text;  ///< stripped body text (between the braces)
    std::string file;
    int line = 0;
};

/** The whole-tree model handed to the rule layer. */
struct TreeModel
{
    std::vector<ClassModel> classes;
    std::vector<MethodBody> methods;
};

/**
 * Parse one header: append class models (with members and annotations)
 * and inline method bodies to @p model. @p path should be repo-relative.
 */
void parseHeader(const std::string &path, const std::string &content,
                 TreeModel &model);

/**
 * Parse out-of-line member-function definitions (Class::method) from a
 * .cc or .hh file and append their bodies to @p model.
 */
void parseMethodBodies(const std::string &path, const std::string &content,
                       TreeModel &model);

/** True when @p word occurs as a whole identifier inside @p text. */
bool containsWord(const std::string &text, const std::string &word);

/**
 * True when member @p name is mutated somewhere in @p body: assigned
 * (including compound assignment and element assignment), incremented /
 * decremented, or the receiver of a mutating container call
 * (.clear/.push_back/.emplace/...).
 */
bool mutatesMember(const std::string &body, const std::string &name);

}  // namespace statecheck
}  // namespace nord

#endif  // NORD_VERIFY_STATECHECK_STATE_MODEL_HH
