/**
 * @file
 * Configuration validation (the one rule list behind validate()) and the
 * shipped-configuration registry.
 */

#include "network/noc_config.hh"

#include "common/log.hh"

namespace nord {

const char *
auditPolicyName(AuditPolicy p)
{
    switch (p) {
      case AuditPolicy::kAbort: return "abort";
      case AuditPolicy::kDiagnose: return "diagnose";
      case AuditPolicy::kRecover: return "recover";
    }
    return "?";
}

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::kFlitCorrupt: return "flit-corrupt";
      case FaultClass::kFlitDrop: return "flit-drop";
      case FaultClass::kCreditLeak: return "credit-leak";
      case FaultClass::kStuckPg: return "stuck-pg";
      case FaultClass::kLostWakeup: return "lost-wakeup";
      case FaultClass::kDeadRouter: return "dead-router";
    }
    return "?";
}

std::vector<std::string>
NocConfig::problems() const
{
    std::vector<std::string> out;
    auto flag = [&out](std::string what) { out.push_back(std::move(what)); };

    // --- Mesh / ring structure -------------------------------------------
    if (rows < 2 || cols < 2) {
        flag("mesh must be at least 2x2 (got " + std::to_string(rows) +
             "x" + std::to_string(cols) + ")");
    }
    if (rows % 2 != 0) {
        flag("canonical bypass-ring construction requires an even row "
             "count (got " + std::to_string(rows) + ")");
    }

    // --- VC partition ----------------------------------------------------
    if (numVcs < 2)
        flag("need at least 2 VCs (1 escape + 1 adaptive)");
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
    if (nordPerfCentricCount > numNodes()) {
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
        for (const FaultEvent &ev : fault.schedule) {
            if (ev.node < 0 || ev.node >= numNodes()) {
                flag("scheduled fault targets node " +
                     std::to_string(ev.node) + " outside the " +
                     std::to_string(rows) + "x" + std::to_string(cols) +
                     " mesh");
            }
            if (ev.cls != FaultClass::kDeadRouter &&
                ev.cls != FaultClass::kStuckPg &&
                ev.cls != FaultClass::kLostWakeup) {
                flag(std::string("scheduled ") + faultClassName(ev.cls) +
                     " fault: only dead-router / stuck-pg / lost-wakeup "
                     "faults can be scheduled; transient classes are "
                     "rate-driven");
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
