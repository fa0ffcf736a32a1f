/**
 * @file
 * nord-verify: offline protocol verifier CLI.
 *
 * Runs the static verification passes (src/verify/static/) over one
 * configuration or the whole shipped matrix and exits non-zero on any
 * refuted property, printing the counterexample. See DESIGN.md section 5.7
 * and `nord-verify --help`.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "verify/static/cdg.hh"
#include "verify/static/config_lint.hh"
#include "verify/static/config_registry.hh"
#include "verify/static/fsm_check.hh"

namespace {

using namespace nord;

struct CliOptions
{
    bool all = false;
    PgDesign design = PgDesign::kNord;
    int rows = 4;
    int cols = 4;
    std::string pass = "all";  // cdg | fsm | lint | all
    bool seedCycle = false;    // CDG: force a dateline-less escape ring
    FsmMutation mutation = FsmMutation::kNone;
    bool watchdog = false;
};

void
usage()
{
    std::printf(
        "usage: nord-verify [options]\n"
        "\n"
        "Statically verifies a NoRD network configuration: proves the\n"
        "escape channel-dependency graph acyclic (deadlock freedom under\n"
        "Duato's protocol), model-checks the power-gating handshake, and\n"
        "lints the configuration space.\n"
        "\n"
        "options:\n"
        "  --all                verify the whole shipped matrix (4 designs\n"
        "                       x {4x4, 8x8})\n"
        "  --design NAME        nopg | convpg | convpgopt | nord (default\n"
        "                       nord)\n"
        "  --rows R --cols C    mesh shape (default 4x4)\n"
        "  --pass NAME          cdg | fsm | lint | all (default all)\n"
        "  --seed-cycle         CDG negative test: model a single-escape-VC\n"
        "                       ring without the dateline; must report a\n"
        "                       cycle\n"
        "  --mutation NAME      FSM negative test: deaf-wakeup-input |\n"
        "                       drop-ic-guard | no-drain-check\n"
        "  --watchdog           FSM: model the always-on wakeup watchdog\n"
        "  --help               this text\n");
}

bool
runCdg(const std::string &label, const NocConfig &config, bool seedCycle)
{
    CdgOptions opts;
    if (seedCycle)
        opts.escapeLevelOverride = 0;
    CdgAnalysis analysis(config, opts);
    CdgResult result = analysis.run();
    std::printf("[cdg ] %-18s %s\n", label.c_str(),
                result.summary().c_str());
    for (const std::string &p : result.problems)
        std::printf("       problem: %s\n", p.c_str());
    if (!result.cycle.empty()) {
        std::printf("%s", result.cycle.describe().c_str());
        std::string why;
        if (analysis.replayCycle(result.cycle, &why)) {
            std::printf("       counterexample replays against the live "
                        "RoutingPolicy\n");
        } else {
            std::printf("       REPLAY FAILED: %s\n", why.c_str());
        }
    }
    return result.ok();
}

bool
runFsm(const std::string &label, const NocConfig &config,
       FsmMutation mutation, bool watchdog)
{
    FsmOptions opts;
    opts.design = config.design;
    opts.wakeupThreshold = config.nordPowerThreshold;
    opts.mutation = mutation;
    opts.watchdog = watchdog;
    FsmCheck checker(opts);
    FsmResult result = checker.run();
    std::printf("[fsm ] %-18s %s\n", label.c_str(),
                result.summary().c_str());
    for (const FsmCounterexample &cx : result.counterexamples)
        std::printf("%s", cx.describe().c_str());
    return result.ok();
}

bool
runLint(const std::string &label, const NocConfig &config)
{
    LintResult result = lintConfig(config);
    std::printf("[lint] %-18s %s\n", label.c_str(),
                result.summary().c_str());
    return result.ok();
}

bool
verifyOne(const std::string &label, const NocConfig &config,
          const CliOptions &cli)
{
    bool ok = true;
    if (cli.pass == "lint" || cli.pass == "all")
        ok = runLint(label, config) && ok;
    if (cli.pass == "cdg" || cli.pass == "all")
        ok = runCdg(label, config, cli.seedCycle) && ok;
    if (cli.pass == "fsm" || cli.pass == "all")
        ok = runFsm(label, config, cli.mutation, cli.watchdog) && ok;
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--all") {
            cli.all = true;
        } else if (arg == "--design") {
            if (!parseDesignName(value(), &cli.design)) {
                std::fprintf(stderr, "unknown design\n");
                return 2;
            }
        } else if (arg == "--rows") {
            cli.rows = std::atoi(value());
        } else if (arg == "--cols") {
            cli.cols = std::atoi(value());
        } else if (arg == "--pass") {
            cli.pass = value();
        } else if (arg == "--seed-cycle") {
            cli.seedCycle = true;
        } else if (arg == "--mutation") {
            const std::string name = value();
            if (name == "deaf-wakeup-input") {
                cli.mutation = FsmMutation::kDeafWakeupInput;
            } else if (name == "drop-ic-guard") {
                cli.mutation = FsmMutation::kDropIcGuard;
            } else if (name == "no-drain-check") {
                cli.mutation = FsmMutation::kNoDrainCheck;
            } else {
                std::fprintf(stderr, "unknown mutation\n");
                return 2;
            }
        } else if (arg == "--watchdog") {
            cli.watchdog = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    bool ok = true;
    if (cli.all) {
        for (const NamedConfig &named : shippedConfigs())
            ok = verifyOne(named.name, named.config, cli) && ok;
    } else {
        NocConfig config = makeShippedConfig(cli.design, cli.rows, cli.cols);
        const std::string label =
            std::string(pgDesignName(config.design)) + "-" +
            std::to_string(cli.rows) + "x" + std::to_string(cli.cols);
        ok = verifyOne(label, config, cli);
    }
    if (!ok) {
        std::printf("nord-verify: FAILED\n");
        return 1;
    }
    std::printf("nord-verify: all properties hold\n");
    return 0;
}
