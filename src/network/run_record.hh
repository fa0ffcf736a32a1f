/**
 * @file
 * The paper's per-run metrics, reduced once from a finished NocSystem.
 *
 * Figures 8-15 all report the same numbers for each design: latency,
 * wakeups, off time, and static plus PG-overhead energy. recordRun() is
 * the one place that reduction happens: the campaign worker, the figure
 * benches and the examples all read a RunRecord, and recordJson() is its
 * one machine-readable layout.
 */

#ifndef NORD_NETWORK_RUN_RECORD_HH
#define NORD_NETWORK_RUN_RECORD_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "power/power_model.hh"

namespace nord {

class NocSystem;

/** Metrics of one finished simulation. */
struct RunRecord
{
    Cycle cycles = 0;  ///< = execution time for closed-loop runs
    std::uint64_t created = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
    double deliveredFraction = 1.0;  ///< delivered / created (1 if none)
    double avgLatency = 0.0;         ///< cycles
    double p99Latency = 0.0;
    double avgHops = 0.0;
    std::uint64_t wakeups = 0;
    double idleFraction = 0.0;  ///< router datapath idleness
    double idleLeqBet = 0.0;    ///< share of idle periods <= BET
    double offFraction = 0.0;   ///< off / (on + off + waking) cycles
    EnergyBreakdown energy;     ///< Joules over the whole run
    double avgPowerW = 0.0;
    std::uint64_t injectedFaults = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t recovered = 0;
    std::uint64_t flitsEaten = 0;
    bool drained = false;  ///< nothing left in flight

    /** Static + PG-overhead energy (the paper's "static energy"). */
    double staticEnergy() const
    {
        return energy.routerStatic + energy.pgOverhead;
    }
};

/**
 * Finalize @p sys's statistics and reduce them to a RunRecord. The link
 * count, design and BET come from the system; energy uses a default
 * (Table 1) PowerModel.
 */
RunRecord recordRun(NocSystem &sys);

/**
 * The campaign result line's metric members, without braces:
 * "endCycle":...,"drained":true. Fractions and latencies print with six
 * decimals, energyJ as %.6e.
 */
std::string recordJson(const RunRecord &r);

}  // namespace nord

#endif  // NORD_NETWORK_RUN_RECORD_HH
