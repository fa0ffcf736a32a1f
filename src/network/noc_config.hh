/**
 * @file
 * Configuration for a NoRD network instance.
 *
 * Defaults reproduce Table 1 of the paper: 4x4 mesh, 4-stage 3 GHz routers,
 * 4 VCs per class, 5-flit input buffers, 128-bit links, 12-cycle wakeup
 * latency, breakeven time of 10 cycles.
 */

#ifndef NORD_NETWORK_NOC_CONFIG_HH
#define NORD_NETWORK_NOC_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault_config.hh"

namespace nord {

/**
 * What the auditor does when a kernel-driven sweep finds new violations.
 */
enum class AuditPolicy : std::int8_t
{
    /** Dump state and panic on the first unexpected violation. */
    kAbort,
    /**
     * Print a diagnosis of each unexpected violation and keep running
     * (violations accumulate), repair what can be repaired (e.g. restore
     * credits leaked by an injected fault) and treat violations announced
     * by the fault injector as expected, so campaigns measure recovery
     * instead of dying on the first transient.
     */
    kRecover,
};

/**
 * Runtime invariant-audit settings (see src/verify/).
 *
 * The InvariantAuditor sweeps the whole network checking flit/credit
 * conservation, VC state-machine legality, power-gating handshake safety
 * and liveness, and checks the neighbourhood of every router power
 * transition. It is off by default (interval = 0) so benches pay only a
 * single branch per cycle; tests enable it with interval = 1.
 */
struct VerifyConfig
{
    /**
     * Sweep period in cycles; 0 disables the auditor entirely. With the
     * auditor enabled the liveness watchdog runs every cycle regardless of
     * the sweep period.
     */
    Cycle interval = 0;

    /**
     * Reaction to violations found by kernel-driven sweeps: abort (dump
     * state + panic, the default) or recover (print + accumulate, repair
     * + tolerate expected fault transients; used by fault campaigns and
     * the fault-injection tests).
     */
    AuditPolicy policy = AuditPolicy::kAbort;

    /**
     * Liveness watchdog: maximum age (cycles since injection) of any
     * in-network flit before declaring livelock. Catches packets that keep
     * moving without delivering, e.g. lapping the bypass ring forever.
     */
    Cycle maxFlitAge = 50000;
};

/**
 * All tunables of one simulated network.
 *
 * Plain aggregate so experiments can brace-initialize or tweak fields
 * directly; validate() catches inconsistent settings.
 */
struct NocConfig
{
    // --- Topology -------------------------------------------------------
    int rows = 4;                 ///< mesh rows
    int cols = 4;                 ///< mesh columns

    // --- Router microarchitecture (Table 1) ------------------------------
    /**
     * VCs per input port. The first numEscapeVcs are the escape class
     * (Duato's Protocol); the rest are fully adaptive.
     */
    int numVcs = 4;
    int numEscapeVcs = 2;         ///< escape VCs (ring or XY sub-network)
    int bufferDepth = 5;          ///< flits per VC buffer

    // --- Power-gating design --------------------------------------------
    PgDesign design = PgDesign::kNord;

    /** Wakeup (Vdd ramp) latency in cycles: 4 ns at 3 GHz = 12. */
    int wakeupLatency = 12;

    /** Breakeven time in cycles (Section 2.2). */
    int betCycles = 10;

    // --- NoRD parameters --------------------------------------------------
    /** VC-request window for the wakeup metric (Section 4.3). */
    int nordWakeupWindow = 10;

    /** Wakeup threshold for performance-centric routers (Section 6.1). */
    int nordPerfThreshold = 1;

    /**
     * Wakeup threshold for power-centric routers. The paper selects 3
     * with its event-based VC-request counting; our NI counts every
     * waiting head every cycle (a stalled head re-asserts its request
     * line), which accumulates faster, so the equivalent operating point
     * is 2. Figure 7's bench sweeps this knob.
     */
    int nordPowerThreshold = 2;

    /**
     * Number of performance-centric routers. Negative means "use the
     * Floyd-Warshall knee" (6 for the paper's 4x4 mesh).
     */
    int nordPerfCentricCount = -1;

    /**
     * Consecutive empty cycles before a power-centric NoRD router
     * re-gates. Small (well below the breakeven time): NoRD's decoupling
     * bypass lets these routers exploit even sub-BET idle periods
     * (Section 4.5), while a few cycles of hold-off avoid re-gating
     * between the flits of one burst.
     */
    int nordPowerSleepGuard = 6;

    /**
     * Consecutive empty cycles before a performance-centric NoRD router
     * re-gates. Large: the complement of the low wakeup threshold --
     * wake early, sleep late -- keeps the Figure 6 shortcut routers
     * available through a traffic phase.
     */
    int nordPerfSleepGuard = 64;

    /**
     * NI starvation limit: bypass traffic yields to the local node after
     * this many consecutive unserved cycles (Section 4.2).
     */
    int niStarvationLimit = 8;

    /**
     * Aggressive bypass (Section 6.8): when the latch, the staging
     * register and the local injection path are all free, a flit cuts
     * from the Bypass Inport to the Bypass Outport in a single cycle,
     * "optimistically assuming there is no local flit to inject"; any
     * conflict falls back to the 2-cycle bypass pipeline.
     */
    bool nordAggressiveBypass = false;

    // --- Simulation -------------------------------------------------------
    std::uint64_t seed = 1;
    Cycle statsWarmup = 0;        ///< packets created before this are not
                                  ///< counted in latency statistics

    // --- Verification ------------------------------------------------------
    VerifyConfig verify;          ///< runtime invariant-audit settings

    // --- Fault campaign ----------------------------------------------------
    FaultConfig fault;            ///< fault injection + resilience layer

    // --- Derived helpers --------------------------------------------------
    int numNodes() const { return rows * cols; }

    /** Class of VC index @p vc. */
    VcClass vcClassOf(VcId vc) const
    {
        return vc < numEscapeVcs ? VcClass::kEscape : VcClass::kAdaptive;
    }

    /** First VC index of @p c. */
    VcId firstVcOf(VcClass c) const
    {
        return c == VcClass::kEscape ? 0 : numEscapeVcs;
    }

    /** Number of VCs in class @p c. */
    int numVcsOf(VcClass c) const
    {
        return c == VcClass::kEscape ? numEscapeVcs
                                     : numVcs - numEscapeVcs;
    }

    /** True when this design power-gates routers at all. */
    bool gatingEnabled() const { return design != PgDesign::kNoPg; }

    /**
     * Every rule this configuration breaks, one message each; empty when
     * it is consistent. Never aborts, so a caller can report them all.
     */
    std::vector<std::string> problems() const;

    /** Abort with the first of problems(), if any. */
    void validate() const;
};

/** A named configuration in the shipped matrix. */
struct NamedConfig
{
    std::string name;   ///< e.g. "nord-4x4"
    NocConfig config;
};

/** A config with the given design and mesh shape, defaults otherwise. */
NocConfig makeShippedConfig(PgDesign design, int rows, int cols);

/** Parse a design name ("nopg", "convpg", "convpgopt", "nord", or the
 *  underscored alias). Returns false when @p name is unknown. */
bool parseDesignName(const std::string &name, PgDesign *out);

/**
 * The shipped matrix: all four designs x {4x4, 8x8}, the operating
 * points the examples and benches instantiate. The static proofs
 * (tests/test_static_verify.cc) cover every entry.
 */
std::vector<NamedConfig> shippedConfigs();

}  // namespace nord

#endif  // NORD_NETWORK_NOC_CONFIG_HH
