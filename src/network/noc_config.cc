/**
 * @file
 * Configuration validation.
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

void
NocConfig::validate() const
{
    if (rows < 2 || cols < 2)
        NORD_FATAL("mesh must be at least 2x2 (got %dx%d)", rows, cols);
    if (rows % 2 != 0)
        NORD_FATAL("bypass ring construction requires an even row count");
    if (numVcs < 2)
        NORD_FATAL("need at least 2 VCs (1 escape + 1 adaptive)");
    if (numEscapeVcs < 1 || numEscapeVcs >= numVcs)
        NORD_FATAL("numEscapeVcs (%d) must be in [1, numVcs)", numEscapeVcs);
    if (design == PgDesign::kNord && numEscapeVcs < 2) {
        NORD_FATAL("NoRD's ring escape needs 2 escape VCs to break the "
                   "cyclic dependence");
    }
    if (bufferDepth < 1)
        NORD_FATAL("bufferDepth must be >= 1");
    if (wakeupLatency < 1)
        NORD_FATAL("wakeupLatency must be >= 1");
    if (nordWakeupWindow < 1)
        NORD_FATAL("nordWakeupWindow must be >= 1");
    if (nordPerfThreshold < 1 || nordPowerThreshold < 1)
        NORD_FATAL("wakeup thresholds must be >= 1");
    if (nordMisrouteCap < 0)
        NORD_FATAL("nordMisrouteCap must be >= 0");
    if (nordPerfCentricCount > numNodes()) {
        NORD_FATAL("nordPerfCentricCount (%d) exceeds the node count",
                   nordPerfCentricCount);
    }
    if (verify.interval > 0) {
        if (verify.stallThreshold < 1)
            NORD_FATAL("verify.stallThreshold must be >= 1");
        if (verify.maxFlitAge < 1)
            NORD_FATAL("verify.maxFlitAge must be >= 1");
    }
    if (fault.enabled) {
        for (double rate : {fault.flitCorruptRate, fault.flitDropRate,
                            fault.creditLeakRate, fault.lostWakeupRate}) {
            if (rate < 0.0 || rate > 1.0)
                NORD_FATAL("fault rates must be probabilities in [0, 1]");
        }
        for (const FaultEvent &ev : fault.schedule) {
            if (ev.node < 0 || ev.node >= numNodes()) {
                NORD_FATAL("scheduled fault targets node %d outside the "
                           "%dx%d mesh", ev.node, rows, cols);
            }
            if (ev.cls != FaultClass::kDeadRouter &&
                ev.cls != FaultClass::kStuckPg &&
                ev.cls != FaultClass::kLostWakeup) {
                NORD_FATAL("only dead-router / stuck-pg / lost-wakeup "
                           "faults can be scheduled; transient classes "
                           "are rate-driven");
            }
        }
    }
    if (fault.e2e) {
        if (fault.retransTimeout < 1)
            NORD_FATAL("fault.retransTimeout must be >= 1");
        if (fault.retransBackoff < 1)
            NORD_FATAL("fault.retransBackoff must be >= 1");
        if (fault.retryLimit < 0)
            NORD_FATAL("fault.retryLimit must be >= 0");
    }
}

}  // namespace nord
