/**
 * @file
 * PARSEC-like closed-loop workload implementation.
 *
 * Parameter calibration targets (per Sections 3.1, 3.2 and 6):
 *   - per-node injection between ~0.01 (blackscholes) and ~0.11 (x264)
 *     flits/node/cycle, averaging near the paper's 0.1 flits/cycle router
 *     load figure;
 *   - router idleness between ~30% and ~70%;
 *   - heavily fragmented idle periods (most at or below the 10-cycle
 *     breakeven time).
 */

#include "traffic/parsec_workload.hh"

#include <algorithm>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "network/noc_system.hh"

namespace nord {

const std::vector<ParsecParams> &
parsecSuite()
{
    // gap/mlp set the intra-phase miss rate; active/quiet set the
    // barrier-synchronized phase structure (cores miss together, then
    // compute quietly), producing both the fragmented short idle periods
    // of Figure 3 and the long gating opportunities of Section 3.1.
    static const std::vector<ParsecParams> suite = {
        //  name           gap  mlp  write  mem  active  quiet   noise    txns
        {"blackscholes",   11.0, 6,  0.20, 0.08,  750.0, 1900.0, 0.0008,  700},
        {"bodytrack",      13.0, 6,  0.30, 0.12,  600.0, 1500.0, 0.0010,  700},
        {"canneal",         9.0, 6,  0.40, 0.30,  900.0,  850.0, 0.0012, 1000},
        {"dedup",          10.0, 6,  0.45, 0.18,  900.0,  850.0, 0.0012, 1000},
        {"ferret",         12.0, 6,  0.35, 0.20,  800.0, 1000.0, 0.0010, 1000},
        {"fluidanimate",   14.0, 6,  0.35, 0.12,  750.0, 1800.0, 0.0008,  700},
        {"raytrace",       11.0, 5,  0.25, 0.10,  800.0, 1400.0, 0.0008,  600},
        {"swaptions",      13.0, 5,  0.20, 0.05,  750.0, 1600.0, 0.0006,  500},
        {"vips",            8.0, 6,  0.40, 0.20,  900.0,  700.0, 0.0012, 1000},
        {"x264",            8.0, 8,  0.50, 0.25, 1000.0,  600.0, 0.0015, 1100},
    };
    return suite;
}

const ParsecParams &
parsecByName(const std::string &name)
{
    for (const ParsecParams &p : parsecSuite()) {
        if (p.name == name)
            return p;
    }
    NORD_FATAL("unknown PARSEC benchmark '%s'", name.c_str());
}

ParsecWorkload::ParsecWorkload(const ParsecParams &params,
                               std::uint64_t seed)
    : params_(params), phaseRng_(seed ^ 0x5eedf00dULL)
{
}

void
ParsecWorkload::bind(NocSystem &system)
{
    Workload::bind(system);
    numNodes_ = system.config().numNodes();
    // Each core's L2 banks within two hops, ascending by node id.
    const auto &mesh = system.mesh();
    nearBanks_.assign(static_cast<size_t>(numNodes_), {});
    for (NodeId core = 0; core < numNodes_; ++core) {
        for (NodeId n = 0; n < numNodes_; ++n) {
            if (mesh.manhattan(core, n) <= 2)
                nearBanks_[core].push_back(n);
        }
    }
    cores_.assign(static_cast<size_t>(numNodes_), Core{});
    total_ = 0;
    std::uint64_t coreSeed = phaseRng_.next64();
    for (auto &core : cores_) {
        core.remaining = params_.transactionsPerCore;
        core.rng = Rng(coreSeed++);
        core.nextIssue = core.rng.uniformInt(16);
        total_ += static_cast<std::uint64_t>(core.remaining);
    }
    phaseActive_ = true;
    phaseEnd_ = 1 + phaseRng_.geometric(params_.activeMean);
}

void
ParsecWorkload::issueTransaction(NodeId core, Cycle now)
{
    Core &c = cores_[core];
    const bool isWrite = c.rng.bernoulli(params_.writeFraction);
    const bool toMemory = c.rng.bernoulli(params_.memFraction);

    NodeId home;
    if (toMemory) {
        // Table 1: four memory controllers, one at each corner. Physical
        // pages are mapped to the nearest controller.
        const auto &mesh = system_->mesh();
        const NodeId corners[4] = {
            0, mesh.nodeAt(0, mesh.cols() - 1),
            mesh.nodeAt(mesh.rows() - 1, 0),
            mesh.nodeAt(mesh.rows() - 1, mesh.cols() - 1)};
        home = corners[0];
        for (NodeId c : corners) {
            if (mesh.manhattan(core, c) < mesh.manhattan(core, home))
                home = c;
        }
    } else if (c.rng.bernoulli(0.75)) {
        // Shared L2 with page-colored locality: most accesses hit a bank
        // near the requester, concentrating traffic spatially so edge
        // routers see long idle stretches (Section 3.1's location-
        // dependent idleness).
        const std::vector<NodeId> &near = nearBanks_[core];
        home = near[c.rng.uniformInt(near.size())];
    } else {
        // Remaining accesses hash uniformly over all banks.
        home = static_cast<NodeId>(
            c.rng.uniformInt(static_cast<std::uint64_t>(numNodes_)));
    }

    std::uint64_t tag = static_cast<std::uint64_t>(core) |
                        (toMemory ? (1ULL << 32) : 0) |
                        (isWrite ? kWriteBit : 0);
    const int reqLen = isWrite ? 5 : 1;  // write data vs. read request
    system_->inject(core, home, reqLen, tag);

    --c.remaining;
    ++c.outstanding;
    c.nextIssue = now + 1 + c.rng.geometric(params_.computeGapMean);
}

void
ParsecWorkload::tick(Cycle now)
{
    // Service requests that reached their home node.
    for (size_t i = 0; i < replies_.size();) {
        if (replies_[i].due <= now) {
            const PendingReply r = replies_[i];
            replies_[i] = replies_.back();
            replies_.pop_back();
            const int replyLen = r.isWrite ? 1 : 5;  // ack vs. data
            std::uint64_t tag =
                static_cast<std::uint64_t>(r.requester) | kReplyBit |
                (r.isNoise ? kNoiseBit : 0);
            system_->inject(r.home, r.requester, replyLen, tag);
        } else {
            ++i;
        }
    }

    // Barrier-synchronized phase clock.
    if (now >= phaseEnd_) {
        phaseActive_ = !phaseActive_;
        const double mean = phaseActive_ ? params_.activeMean
                                         : params_.quietMean;
        phaseEnd_ = now + 1 + phaseRng_.geometric(mean);
        if (phaseActive_) {
            // Cores resume with a little skew.
            for (auto &core : cores_)
                core.nextIssue = now + core.rng.uniformInt(16);
        }
    }

    // Issue new transactions (only while the phase is active).
    if (phaseActive_) {
        for (NodeId id = 0; id < numNodes_; ++id) {
            Core &c = cores_[id];
            if (c.remaining > 0 &&
                c.outstanding < params_.maxOutstanding &&
                c.nextIssue <= now) {
                issueTransaction(id, now);
            }
        }
    }

    // Background trickle (coherence / OS / prefetch): intermittent
    // single-flit requests that arrive even during quiet phases and
    // fragment router idle periods (Section 3.2, Figure 3).
    bool scriptLive = false;
    for (const Core &c : cores_)
        scriptLive |= c.remaining > 0;
    if (scriptLive && params_.noiseRate > 0.0) {
        for (NodeId id = 0; id < numNodes_; ++id) {
            if (!noiseRng_.bernoulli(params_.noiseRate))
                continue;
            NodeId dst = static_cast<NodeId>(noiseRng_.uniformInt(
                static_cast<std::uint64_t>(numNodes_)));
            std::uint64_t tag =
                static_cast<std::uint64_t>(id) | kNoiseBit;
            system_->inject(id, dst, 1, tag);
            ++noiseOutstanding_;
        }
    }
}

void
ParsecWorkload::onDelivery(const Flit &tail, Cycle now)
{
    if (tail.tag & kNoiseBit) {
        if (tail.tag & kReplyBit) {
            --noiseOutstanding_;
        } else {
            // Serve the noise request with a single-flit reply.
            PendingReply r;
            r.home = tail.dst;
            r.requester = static_cast<NodeId>(tail.tag & 0xffffffffULL);
            r.due = now + kL2Latency;
            r.isWrite = true;  // 1-flit reply
            r.isNoise = true;
            replies_.push_back(r);
        }
        return;
    }
    if (tail.tag & kReplyBit) {
        // Reply back at the requesting core.
        const NodeId core =
            static_cast<NodeId>(tail.tag & 0xffffffffULL);
        NORD_ASSERT(core == tail.dst, "reply delivered to wrong node");
        Core &c = cores_[core];
        NORD_ASSERT(c.outstanding > 0, "reply without outstanding txn");
        --c.outstanding;
        ++completed_;
        return;
    }
    // Request arrived at its home node: schedule the reply.
    const bool toMemory = (tail.tag & (1ULL << 32)) != 0;
    PendingReply r;
    r.home = tail.dst;
    r.requester = static_cast<NodeId>(tail.tag & 0xffffffffULL);
    r.due = now + (toMemory ? kMemLatency : kL2Latency);
    r.isWrite = (tail.tag & kWriteBit) != 0;
    replies_.push_back(r);
}

bool
ParsecWorkload::done() const
{
    if (!replies_.empty() || noiseOutstanding_ > 0)
        return false;
    for (const Core &c : cores_) {
        if (c.remaining > 0 || c.outstanding > 0)
            return false;
    }
    return true;
}

void
ParsecWorkload::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("PSEC"));
    s.io(phaseRng_);
    s.io(phaseActive_);
    s.io(phaseEnd_);
    s.ioSequence(cores_, [&s](Core &c) {
        s.io(c.remaining);
        s.io(c.outstanding);
        s.io(c.nextIssue);
        s.io(c.rng);
    });
    s.ioSequence(replies_, [&s](PendingReply &r) {
        s.io(r.home);
        s.io(r.requester);
        s.io(r.due);
        s.io(r.isWrite);
        s.io(r.isNoise);
    });
    s.io(completed_);
    s.io(total_);
    s.io(noiseOutstanding_);
    s.io(noiseRng_);
}

}  // namespace nord
