/**
 * @file
 * nord-lint CLI: the static source gate -- hidden state, determinism and
 * side channels, plus state coverage of every serialized class (see
 * src/verify/lint/source_lint.hh for the checks).
 *
 * Usage:
 *   nord-lint [--whitelist] [--json] [root]
 *
 * Lints the repo rooted at @p root (default: current directory), printing
 * one `file:line: [check] message` per finding, or with --json one JSON
 * object per line (JSON Lines), so CI can render annotations without
 * scraping the text:
 *
 *   {"file":"src/sim/kernel.hh","line":42,"rule":"unserialized-member",
 *    "severity":"error","message":"..."}
 *
 * Exit status: 0 clean, 1 findings, 2 usage/I-O error (including a root
 * without src/). --whitelist prints the sanctioned exceptions and their
 * stories instead of linting.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json_escape.hh"
#include "verify/lint/source_lint.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--whitelist] [--json] [root]\n"
                 "  lints src/, tools/, bench/, examples/ and tests/ "
                 "under root (default .)\n"
                 "  and proves every member of a Clocked / serializable "
                 "class under\n"
                 "  src/ is serialized or NORD_STATE_EXCLUDE-annotated\n"
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
            std::printf("{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\","
                        "\"severity\":\"error\",\"message\":\"%s\"}\n",
                        nord::jsonEscape(f.file).c_str(), f.line,
                        nord::jsonEscape(f.check).c_str(),
                        nord::jsonEscape(f.message).c_str());
        } else {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.check.c_str(), f.message.c_str());
        }
    }
    if (findings.empty()) {
        if (!json)
            std::printf("nord-lint: clean (no hidden mutable state, no "
                        "determinism or side-channel escapes, every member "
                        "serialized or annotated)\n");
        return 0;
    }
    if (!json)
        std::printf("nord-lint: %zu finding(s)\n", findings.size());
    return 1;
}
