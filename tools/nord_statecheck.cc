/**
 * @file
 * nord-statecheck CLI: whole-tree state-coverage analyzer.
 *
 * Usage:
 *   nord-statecheck [--check] [--json] [--model] [root]
 *
 * Parses every Clocked / serializable class under root/src (default: the
 * current directory) into a member model (src/verify/statecheck/) and
 * cross-checks serialize-coverage and annotation legality. Prints one `file:line: [rule] message` per finding, or JSON
 * Lines with --json. --model dumps the parsed member model instead of
 * checking (debugging aid). Exit status: 0 clean, 1 findings, 2 usage or
 * I/O error. --check is accepted for symmetry with the other analyzers;
 * checking is the default action.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "verify/findings_json.hh"
#include "verify/statecheck/state_check.hh"
#include "verify/statecheck/state_model.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--check] [--json] [--model] [root]\n"
                 "  statically proves every member of a Clocked /\n"
                 "  serializable class under root/src is serialized or\n"
                 "  NORD_STATE_EXCLUDE-annotated\n"
                 "  --json   one JSON object per finding (JSON Lines)\n"
                 "  --model  dump the parsed member model and exit\n",
                 argv0);
    return 2;
}

void
dumpModel(const nord::statecheck::TreeModel &model)
{
    for (const nord::statecheck::ClassModel &c : model.classes) {
        std::printf("%s:%d: %s%s%s%s\n", c.file.c_str(), c.line,
                    c.qualified.c_str(), c.clocked ? " [clocked]" : "",
                    c.declaresSerialize ? " [serialize]" : "",
                    c.nested ? (c.usedAsMemberType ? " [member-storage]"
                                                   : " [nested]")
                             : "");
        for (const nord::statecheck::MemberModel &m : c.members) {
            std::printf("    %s%s%s%s%s%s", m.name.c_str(),
                        m.isStatic ? " static" : "",
                        m.isConst ? " const" : "",
                        m.isReference ? " ref" : "",
                        m.isPointer ? " ptr" : "",
                        m.excluded ? " EXCLUDE(" : "");
            if (m.excluded)
                std::printf("%s)", m.category.c_str());
            std::printf("\n");
        }
    }
    std::printf("-- %zu classes, %zu method bodies\n",
                model.classes.size(), model.methods.size());
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    bool json = false;
    bool model = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            // Checking is the default action.
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--model") == 0) {
            model = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else {
            root = argv[i];
        }
    }

    std::string err;
    const nord::statecheck::TreeModel tree =
        nord::statecheck::buildTreeModel(root, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "nord-statecheck: %s\n", err.c_str());
        return 2;
    }
    if (model) {
        dumpModel(tree);
        return 0;
    }

    const std::vector<nord::statecheck::CheckFinding> findings =
        nord::statecheck::checkTree(tree);
    for (const nord::statecheck::CheckFinding &f : findings) {
        if (json) {
            nord::printFindingJson(f.file, f.line, f.rule, f.severity,
                                   f.message);
        } else {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
    }
    if (findings.empty()) {
        if (!json)
            std::printf("nord-statecheck: clean (every member serialized "
                        "or annotated)\n");
        return 0;
    }
    if (!json)
        std::printf("nord-statecheck: %zu finding(s)\n", findings.size());
    return 1;
}
