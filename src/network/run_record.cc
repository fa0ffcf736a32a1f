/**
 * @file
 * RunRecord reduction and its JSON layout.
 */

#include "network/run_record.hh"

#include "common/log.hh"
#include "network/noc_system.hh"

namespace nord {

RunRecord
recordRun(NocSystem &sys)
{
    sys.finalizeStats();
    const NetworkStats &st = sys.stats();
    const ActivityCounters t = st.totals();
    const NocConfig &cfg = sys.config();
    const int numLinks =
        2 * (cfg.rows * (cfg.cols - 1) + cfg.cols * (cfg.rows - 1));
    const PowerModel pm;

    RunRecord r;
    r.cycles = sys.now();
    r.created = st.packetsCreated();
    r.delivered = st.packetsDelivered();
    r.failed = st.packetsFailed();
    r.deliveredFraction = r.created > 0
        ? static_cast<double>(r.delivered) / static_cast<double>(r.created)
        : 1.0;
    r.avgLatency = st.avgPacketLatency();
    r.p99Latency = st.latencyPercentile(0.99);
    r.avgHops = st.avgHops();
    r.wakeups = st.totalWakeups();
    r.idleFraction = st.avgIdleFraction();
    r.idleLeqBet =
        st.combinedIdleHistogram().fractionAtOrBelow(cfg.betCycles);
    const double stateCycles = static_cast<double>(
        t.onCycles + t.offCycles + t.wakingCycles);
    r.offFraction = stateCycles > 0
        ? static_cast<double>(t.offCycles) / stateCycles : 0.0;
    r.energy = pm.compute(st, r.cycles, numLinks, cfg.design,
                          cfg.betCycles);
    r.avgPowerW = r.energy.averagePowerW(r.cycles, pm.tech().cycleTime());
    r.injectedFaults = sys.injector() ? sys.injector()->counts().total() : 0;
    const FlowStats flows = st.flowTotals();
    r.retransmits = flows.retransmits;
    r.recovered = flows.recovered;
    r.flitsEaten = st.flitsEaten();
    r.drained = sys.completionReached();
    return r;
}

std::string
recordJson(const RunRecord &r)
{
    return detail::formatString(
        "\"endCycle\":%llu,\"created\":%llu,\"delivered\":%llu,"
        "\"failed\":%llu,\"deliveredFraction\":%.6f,\"avgLatency\":%.6f,"
        "\"p99Latency\":%.6f,\"avgHops\":%.6f,\"wakeups\":%llu,"
        "\"offFraction\":%.6f,\"energyJ\":%.6e,\"injectedFaults\":%llu,"
        "\"retransmits\":%llu,\"recovered\":%llu,\"flitsEaten\":%llu,"
        "\"drained\":%s",
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.created),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.failed), r.deliveredFraction,
        r.avgLatency, r.p99Latency, r.avgHops,
        static_cast<unsigned long long>(r.wakeups), r.offFraction,
        r.energy.total(),
        static_cast<unsigned long long>(r.injectedFaults),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.recovered),
        static_cast<unsigned long long>(r.flitsEaten),
        r.drained ? "true" : "false");
}

}  // namespace nord
