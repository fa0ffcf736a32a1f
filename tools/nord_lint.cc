/**
 * @file
 * nord-lint CLI: static hidden-state / determinism lint over the source
 * tree (see src/verify/lint/source_lint.hh for the checks).
 *
 * Usage:
 *   nord-lint [--whitelist] [--json] [root]
 *
 * Lints the repo rooted at @p root (default: current directory), printing
 * one `file:line: [check] message` per finding, or one JSON object per
 * finding with --json (see verify/findings_json.hh). Exit status: 0
 * clean, 1 findings, 2 usage/I-O error. --whitelist prints the
 * sanctioned exceptions and their stories instead of linting.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "verify/findings_json.hh"
#include "verify/lint/source_lint.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--whitelist] [--json] [root]\n"
                 "  lints src/, tools/, bench/, examples/ and tests/ "
                 "under root (default .)\n"
                 "  --json       one JSON object per finding (JSON Lines)\n"
                 "  --whitelist  print the sanctioned exceptions and why "
                 "they are safe\n",
                 argv0);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    bool showWhitelist = false;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--whitelist") == 0) {
            showWhitelist = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
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

    if (showWhitelist) {
        for (const nord::LintWhitelistEntry &w : nord::lintWhitelist()) {
            std::printf("%s [%s] token \"%s\"\n    %s\n",
                        w.fileSuffix.c_str(), w.check.c_str(),
                        w.token.c_str(), w.story.c_str());
        }
        return 0;
    }

    std::string err;
    const std::vector<nord::LintFinding> findings =
        nord::lintTree(root, nord::lintWhitelist(), &err);
    if (!err.empty()) {
        std::fprintf(stderr, "nord-lint: %s\n", err.c_str());
        return 2;
    }
    for (const nord::LintFinding &f : findings) {
        if (json) {
            nord::printFindingJson(f.file, f.line, f.check, "error",
                                   f.message);
        } else {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.check.c_str(), f.message.c_str());
        }
    }
    if (findings.empty()) {
        if (!json)
            std::printf("nord-lint: clean (no hidden mutable state, no "
                        "determinism or side-channel escapes)\n");
        return 0;
    }
    if (!json)
        std::printf("nord-lint: %zu finding(s)\n", findings.size());
    return 1;
}
