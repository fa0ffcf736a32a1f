/**
 * @file
 * Statistics implementation.
 */

#include "stats/network_stats.hh"

#include <algorithm>
#include <string>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"

namespace nord {

IdlePeriodHistogram::IdlePeriodHistogram(int maxBucket)
    : buckets_(static_cast<size_t>(maxBucket) + 2, 0)
{
}

void
IdlePeriodHistogram::record(Cycle length)
{
    size_t idx = static_cast<size_t>(length);
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    ++buckets_[idx];
    ++count_;
    totalCycles_ += length;
}

std::uint64_t
IdlePeriodHistogram::countAtOrBelow(Cycle limit) const
{
    std::uint64_t total = 0;
    size_t top = static_cast<size_t>(limit);
    if (top >= buckets_.size() - 1)
        top = buckets_.size() - 2;
    for (size_t i = 0; i <= top; ++i)
        total += buckets_[i];
    return total;
}

double
IdlePeriodHistogram::fractionAtOrBelow(Cycle limit) const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(countAtOrBelow(limit)) /
           static_cast<double>(count_);
}

double
IdlePeriodHistogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(totalCycles_) / static_cast<double>(count_);
}

namespace {

/// Latency histogram: exact 1-cycle buckets up to this bound, then overflow.
constexpr size_t kLatencyBuckets = 8192;

}  // namespace

NetworkStats::NetworkStats(int numRouters, Cycle warmup)
    : routers_(numRouters),
      idleHists_(numRouters),
      runEmpty_(numRouters, 0),
      runStart_(numRouters, kNeverCycle),
      warmup_(warmup),
      latencyHist_(kLatencyBuckets + 1, 0)
{
}

void
NetworkStats::packetCreated(const PacketDescriptor &)
{
    ++packetsCreated_;
}

void
NetworkStats::packetDelivered(const Flit &tail, Cycle now)
{
    ++packetsDelivered_;
    flitsDelivered_ += tail.length;
    if (tail.createdAt >= warmup_) {
        NORD_ASSERT(now >= tail.createdAt,
                    "packet delivered before creation");
        const Cycle latency = now - tail.createdAt;
        latencySum_ += latency;
        hopSum_ += static_cast<std::uint64_t>(tail.hops);
        ++measuredPackets_;
        size_t bucket = static_cast<size_t>(latency);
        if (bucket >= latencyHist_.size())
            bucket = latencyHist_.size() - 1;
        ++latencyHist_[bucket];
    }
}

void
NetworkStats::flitEaten(Cycle)
{
    ++flitsEaten_;
}

void
NetworkStats::packetFailed()
{
    ++packetsFailed_;
}

void
NetworkStats::controlPacketCreated()
{
    ++controlPacketsCreated_;
}

void
NetworkStats::controlPacketDelivered()
{
    ++controlPacketsDelivered_;
}

FlowStats &
NetworkStats::flow(NodeId src, NodeId dst)
{
    const size_t n = routers_.size();
    if (flows_.empty()) {
        flows_.resize(n * n);
        flowTouched_.resize(n * n);
    }
    const size_t i = static_cast<size_t>(src) * n + static_cast<size_t>(dst);
    flowTouched_[i] = 1;
    return flows_[i];
}

FlowStats
NetworkStats::flowTotals() const
{
    FlowStats t;
    for (const FlowStats &f : flows_) {
        t.delivered += f.delivered;
        t.retransmits += f.retransmits;
        t.timeouts += f.timeouts;
        t.nacks += f.nacks;
        t.duplicates += f.duplicates;
        t.damaged += f.damaged;
        t.failed += f.failed;
        t.recovered += f.recovered;
        t.recoveryLatencySum += f.recoveryLatencySum;
    }
    return t;
}

double
NetworkStats::latencyPercentile(double p) const
{
    if (measuredPackets_ == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    const auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(measuredPackets_ - 1));
    std::uint64_t seen = 0;
    for (size_t i = 0; i < latencyHist_.size(); ++i) {
        seen += latencyHist_[i];
        if (seen > rank)
            return static_cast<double>(i);
    }
    return static_cast<double>(latencyHist_.size() - 1);
}

void
NetworkStats::flitInjected(Cycle)
{
    ++flitsInjected_;
}

void
NetworkStats::flitEjected(Cycle)
{
    ++flitsEjected_;
}

void
NetworkStats::routerIdleSample(NodeId id, bool empty, Cycle now)
{
    if (runStart_[id] == kNeverCycle) {
        // First sample ever: open a run.
        runStart_[id] = now;
        runEmpty_[id] = empty ? 1 : 0;
        return;
    }
    if ((runEmpty_[id] != 0) == empty)
        return;  // same mode -- exactly the no-op a skipped cycle gets
    // Mode change: close the run [runStart_, now) and open a new one.
    const Cycle len = now - runStart_[id];
    ActivityCounters &c = routers_[id];
    if (runEmpty_[id] != 0) {
        c.emptyCycles += len;
        idleHists_[id].record(len);
    } else {
        c.busyCycles += len;
    }
    runStart_[id] = now;
    runEmpty_[id] = empty ? 1 : 0;
}

void
NetworkStats::finalize(Cycle now)
{
    for (NodeId id = 0; id < numRouters(); ++id) {
        if (runStart_[id] == kNeverCycle || now <= runStart_[id])
            continue;
        const Cycle len = now - runStart_[id];
        ActivityCounters &c = routers_[id];
        if (runEmpty_[id] != 0) {
            c.emptyCycles += len;
            idleHists_[id].record(len);
        } else {
            c.busyCycles += len;
        }
        // Keep the mode, restart the run at `now`: finalize is
        // idempotent and a resumed simulation keeps accounting.
        runStart_[id] = now;
    }
}

double
NetworkStats::avgPacketLatency() const
{
    if (measuredPackets_ == 0)
        return 0.0;
    return static_cast<double>(latencySum_) /
           static_cast<double>(measuredPackets_);
}

double
NetworkStats::avgHops() const
{
    if (measuredPackets_ == 0)
        return 0.0;
    return static_cast<double>(hopSum_) /
           static_cast<double>(measuredPackets_);
}

ActivityCounters
NetworkStats::totals() const
{
    ActivityCounters t;
    for (const ActivityCounters &c : routers_) {
        t.bufferWrites += c.bufferWrites;
        t.bufferReads += c.bufferReads;
        t.vcAllocs += c.vcAllocs;
        t.swAllocs += c.swAllocs;
        t.xbarTraversals += c.xbarTraversals;
        t.linkTraversals += c.linkTraversals;
        t.bypassLatchWrites += c.bypassLatchWrites;
        t.bypassForwards += c.bypassForwards;
        t.onCycles += c.onCycles;
        t.offCycles += c.offCycles;
        t.wakingCycles += c.wakingCycles;
        t.wakeups += c.wakeups;
        t.sleeps += c.sleeps;
        t.emptyCycles += c.emptyCycles;
        t.busyCycles += c.busyCycles;
    }
    return t;
}

double
NetworkStats::avgIdleFraction() const
{
    ActivityCounters t = totals();
    std::uint64_t denom = t.emptyCycles + t.busyCycles;
    if (denom == 0)
        return 0.0;
    return static_cast<double>(t.emptyCycles) / static_cast<double>(denom);
}

std::uint64_t
NetworkStats::totalWakeups() const
{
    return totals().wakeups;
}

IdlePeriodHistogram
NetworkStats::combinedIdleHistogram() const
{
    IdlePeriodHistogram combined;
    for (const IdlePeriodHistogram &h : idleHists_) {
        const auto &b = h.buckets();
        for (size_t len = 0; len < b.size(); ++len) {
            for (std::uint64_t i = 0; i < b[len]; ++i)
                combined.record(len);
        }
    }
    return combined;
}

void
IdlePeriodHistogram::serializeState(StateSerializer &s)
{
    s.ioSequence(buckets_);
    s.io(count_);
    s.io(totalCycles_);
}

namespace {

void
serializeCounters(StateSerializer &s, ActivityCounters &c)
{
    s.io(c.bufferWrites);
    s.io(c.bufferReads);
    s.io(c.vcAllocs);
    s.io(c.swAllocs);
    s.io(c.xbarTraversals);
    s.io(c.linkTraversals);
    s.io(c.bypassLatchWrites);
    s.io(c.bypassForwards);
    s.io(c.onCycles);
    s.io(c.offCycles);
    s.io(c.wakingCycles);
    s.io(c.wakeups);
    s.io(c.sleeps);
    s.io(c.emptyCycles);
    s.io(c.busyCycles);
}

void
serializeFlow(StateSerializer &s, FlowStats &f)
{
    s.io(f.delivered);
    s.io(f.retransmits);
    s.io(f.timeouts);
    s.io(f.nacks);
    s.io(f.duplicates);
    s.io(f.damaged);
    s.io(f.failed);
    s.io(f.recovered);
    s.io(f.recoveryLatencySum);
}

}  // namespace

void
NetworkStats::serializeFlows(StateSerializer &s)
{
    // The touched flows in (src, dst) order, each keyed (src << 32) | dst:
    // the layout of a map from that key.
    const std::uint64_t n = routers_.size();
    std::uint64_t count = 0;
    for (std::uint8_t touched : flowTouched_)
        count += touched;
    s.io(count);
    if (!s.loading()) {
        for (size_t i = 0; i < flows_.size(); ++i) {
            if (!flowTouched_[i])
                continue;
            std::uint64_t key = ((i / n) << 32) | (i % n);
            s.io(key);
            serializeFlow(s, flows_[i]);
        }
        return;
    }
    std::fill(flows_.begin(), flows_.end(), FlowStats{});
    std::fill(flowTouched_.begin(), flowTouched_.end(), 0);
    std::uint64_t last = 0;
    for (std::uint64_t k = 0; k < count && s.ok(); ++k) {
        std::uint64_t key = 0;
        s.io(key);
        const std::uint64_t src = key >> 32;
        const std::uint64_t dst = key & 0xffffffffu;
        if (src >= n || dst >= n || (k != 0 && key <= last)) {
            s.fail("flow record " + std::to_string(key) +
                   " out of order or off the mesh");
            return;
        }
        last = key;
        serializeFlow(s, flow(static_cast<NodeId>(src),
                              static_cast<NodeId>(dst)));
    }
}

void
NetworkStats::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("STAT"));
    s.ioSequence(routers_,
                 [&s](ActivityCounters &c) { serializeCounters(s, c); });
    s.ioSequence(idleHists_,
                 [&s](IdlePeriodHistogram &h) { h.serializeState(s); });
    s.ioSequence(runEmpty_);
    s.ioSequence(runStart_);
    s.io(packetsCreated_);
    s.io(packetsDelivered_);
    s.io(packetsFailed_);
    s.io(flitsInjected_);
    s.io(flitsDelivered_);
    s.io(flitsEjected_);
    s.io(flitsEaten_);
    s.io(controlPacketsCreated_);
    s.io(controlPacketsDelivered_);
    s.io(latencySum_);
    s.io(hopSum_);
    s.io(measuredPackets_);
    s.ioSequence(latencyHist_);
    serializeFlows(s);
    s.io(nextPacketId_);
}

}  // namespace nord
