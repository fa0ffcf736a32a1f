/**
 * @file
 * Configuration validation (the one rule list behind validate()) and the
 * shipped-configuration registry.
 */

#include "network/noc_config.hh"

#include "common/log.hh"

namespace nord {

std::vector<std::string>
NocConfig::problems() const
{
    std::vector<std::string> out;
    auto flag = [&out](std::string what) { out.push_back(std::move(what)); };

    // --- Design ----------------------------------------------------------
    if (design < PgDesign::kNoPg || design > PgDesign::kNord) {
        flag("design must be one of No_PG, Conv_PG, Conv_PG_OPT, NoRD "
             "(got " + std::to_string(static_cast<int>(design)) + ")");
    }

    // --- Mesh / ring structure -------------------------------------------
    // In 64 bits: rows * cols may overflow an int (numNodes()).
    const std::int64_t nodes = std::int64_t{rows} * cols;
    if (rows < 2 || cols < 2) {
        flag("mesh must be at least 2x2 (got " + std::to_string(rows) +
             "x" + std::to_string(cols) + ")");
    }
    if (nodes > kMaxMeshNodes) {
        flag("mesh must have at most " + std::to_string(kMaxMeshNodes) +
             " nodes (got " + std::to_string(rows) + "x" +
             std::to_string(cols) + " = " + std::to_string(nodes) +
             "): route histories store node ids in 16 bits");
    }
    if (rows % 2 != 0) {
        flag("canonical bypass-ring construction requires an even row "
             "count (got " + std::to_string(rows) + ")");
    }

    // --- VC partition ----------------------------------------------------
    if (numVcs < 2)
        flag("need at least 2 VCs (1 escape + 1 adaptive)");
    if (numVcs > 64) {
        flag("at most 64 VCs per port (got " + std::to_string(numVcs) +
             "): the router's per-stage work masks are 64-bit");
    }
    if (numEscapeVcs < 1) {
        flag("escape class is empty (numEscapeVcs = " +
             std::to_string(numEscapeVcs) +
             "): Duato's Protocol has no deadlock-free fallback");
    } else if (numEscapeVcs >= numVcs) {
        flag("adaptive class is empty (numEscapeVcs = " +
             std::to_string(numEscapeVcs) + " of " +
             std::to_string(numVcs) + " VCs)");
    }
    if (design == PgDesign::kNord && numEscapeVcs < 2) {
        flag("NoRD's unidirectional ring escape needs 2 escape VCs "
             "(dateline scheme); with " + std::to_string(numEscapeVcs) +
             " the ring's channel dependence stays cyclic");
    }

    // --- Buffer / allocation assumptions ---------------------------------
    if (bufferDepth < 1)
        flag("bufferDepth must be >= 1");

    // --- Power-gating handshake parameters -------------------------------
    if (wakeupLatency < 1)
        flag("wakeupLatency must be >= 1");
    if (nordWakeupWindow < 1)
        flag("nordWakeupWindow must be >= 1");
    if (nordPerfThreshold < 1 || nordPowerThreshold < 1)
        flag("wakeup thresholds must be >= 1");
    if (nordPerfThreshold > nordPowerThreshold) {
        flag("asymmetric thresholds inverted: performance-centric (" +
             std::to_string(nordPerfThreshold) +
             ") must wake no later than power-centric (" +
             std::to_string(nordPowerThreshold) + ")");
    }
    if (nordPowerSleepGuard < 0 || nordPerfSleepGuard < 0)
        flag("sleep guards must be >= 0");
    if (niStarvationLimit < 1)
        flag("niStarvationLimit must be >= 1");
    if (nordPerfCentricCount > nodes) {
        flag("nordPerfCentricCount (" +
             std::to_string(nordPerfCentricCount) +
             ") exceeds the node count");
    }

    // --- Verification / fault settings -----------------------------------
    if (verify.interval > 0 && verify.maxFlitAge < 1)
        flag("verify.maxFlitAge must be >= 1");
    if (fault.enabled) {
        for (double rate : {fault.flitCorruptRate, fault.flitDropRate,
                            fault.creditLeakRate, fault.lostWakeupRate}) {
            if (!(rate >= 0.0 && rate <= 1.0)) {  // NaN fails too
                flag("fault rates must be probabilities in [0, 1]");
                break;
            }
        }
    }
    if (fault.e2e) {
        if (fault.retransTimeout < 1)
            flag("fault.retransTimeout must be >= 1");
        if (fault.retryLimit < 0)
            flag("fault.retryLimit must be >= 0");
    }
    return out;
}

void
NocConfig::validate() const
{
    const std::vector<std::string> found = problems();
    if (!found.empty())
        NORD_FATAL("%s", found.front().c_str());
}

namespace {

/** Each design's CLI name and its underscored alias. */
const struct
{
    PgDesign design;
    const char *name;
    const char *alias;
} kDesigns[] = {
    {PgDesign::kNoPg, "nopg", "no_pg"},
    {PgDesign::kConvPg, "convpg", "conv_pg"},
    {PgDesign::kConvPgOpt, "convpgopt", "conv_pg_opt"},
    {PgDesign::kNord, "nord", "nord"},
};

}  // namespace

NocConfig
makeShippedConfig(PgDesign design, int rows, int cols)
{
    NocConfig config;
    config.design = design;
    config.rows = rows;
    config.cols = cols;
    return config;
}

bool
parseDesignName(const std::string &name, PgDesign *out)
{
    for (const auto &d : kDesigns) {
        if (name == d.name || name == d.alias) {
            *out = d.design;
            return true;
        }
    }
    return false;
}

std::vector<NamedConfig>
shippedConfigs()
{
    std::vector<NamedConfig> out;
    for (const auto &d : kDesigns) {
        for (int side : {4, 8}) {
            const std::string shape =
                std::to_string(side) + "x" + std::to_string(side);
            out.push_back({std::string(d.name) + "-" + shape,
                           makeShippedConfig(d.design, side, side)});
        }
    }
    return out;
}

}  // namespace nord
