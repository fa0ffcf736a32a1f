/**
 * @file
 * Network assembly and run loop.
 */

#include "network/noc_system.hh"

#include <algorithm>
#include <cstdio>

#include "ckpt/checkpoint.hh"
#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "core/nord_controller.hh"

namespace nord {

NocSystem::NocSystem(const NocConfig &config)
    : config_(config),
      mesh_(config.rows, config.cols),
      ring_(mesh_),
      stats_(config.numNodes(), config.statsWarmup),
      policy_(config_, mesh_, ring_),
      ticker_(*this)
{
    config_.validate();
    buildRouters();
    buildLinks();
    buildControllers();
    auditor_ = std::make_unique<InvariantAuditor>(*this, config_.verify);
    auditor_->setRecoveryTarget(this);
    if (config_.fault.enabled) {
        injector_ = std::make_unique<FaultInjector>(*this, config_);
        injector_->setAuditor(auditor_.get());
    }
    // Every power transition re-arms the transitioning router and its
    // mesh neighbors in the kernel's active set (their next tick adjusts
    // credit views / restarts heads -- see Router::quiescent), and, when
    // the auditor is enabled, has it check that same set.
    const bool check = auditor_->enabled();
    for (NodeId id = 0; id < config_.numNodes(); ++id) {
        Router *r = routers_[id].get();
        controllers_[id]->setTransitionListener(
            [this, r, check](Cycle now, PowerState, PowerState) {
                r->kernelWake();
                for (int d = 0; d < kNumMeshDirs; ++d) {
                    const NodeId nb = mesh_.neighbor(r->id(), indexDir(d));
                    if (nb != kInvalidNode)
                        routers_[nb]->kernelWake();
                }
                if (check)
                    auditor_->onPowerTransition(now, r->id());
            });
    }
    registerAll();
}

NocSystem::~NocSystem() = default;

void
NocSystem::buildRouters()
{
    const int n = config_.numNodes();
    routers_.reserve(n);
    nis_.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        routers_.push_back(std::make_unique<Router>(
            id, config_, mesh_, ring_, stats_, &arena_));
        nis_.push_back(std::make_unique<NetworkInterface>(
            id, config_, stats_, &arena_));
    }
    for (NodeId id = 0; id < n; ++id) {
        routers_[id]->setNi(nis_[id].get());
        routers_[id]->setRoutingPolicy(&policy_);
        nis_[id]->setRouter(routers_[id].get());
        nis_[id]->setPolicy(&policy_);
        nis_[id]->setDeliveryCallback(
            [this](const Flit &tail, Cycle now) {
                if (workload_)
                    workload_->onDelivery(tail, now);
            });
    }
}

void
NocSystem::buildLinks()
{
    const int n = config_.numNodes();
    for (NodeId id = 0; id < n; ++id) {
        for (int d = 0; d < kNumMeshDirs; ++d) {
            const Direction dir = indexDir(d);
            const NodeId nb = mesh_.neighbor(id, dir);
            if (nb == kInvalidNode)
                continue;
            // Flit link: router id, output dir -> router nb, input port
            // opposite(dir). Credit link: flows back to id's output dir.
            auto flink = std::make_unique<FlitLink>(
                routers_[nb].get(), opposite(dir), &arena_);
            auto clink = std::make_unique<CreditLink>(
                routers_[id].get(), dir, &arena_);
            routers_[id]->connectOutput(dir, routers_[nb].get(),
                                        flink.get());
            routers_[nb]->connectInput(opposite(dir), flink.get());
            routers_[nb]->connectCreditReturn(opposite(dir), clink.get());
            flitLinks_.push_back(std::move(flink));
            creditLinks_.push_back(std::move(clink));
        }
    }
}

void
NocSystem::buildControllers()
{
    const int n = config_.numNodes();
    if (config_.design == PgDesign::kNord) {
        // The greedy Floyd-Warshall sweep is deterministic per mesh
        // shape; the process-wide CriticalityCache runs it once per
        // shape for both the knee and the set, and shares it across
        // NocSystem instances (benches construct many networks).
        CriticalityCache &cache = CriticalityCache::instance();
        int count = config_.nordPerfCentricCount;
        if (count < 0)
            count = cache.knee(mesh_, ring_);
        perfCentric_ = cache.perfSet(mesh_, ring_, count);
        policy_.setSteeringTable(
            cache.steering(mesh_, ring_, perfCentric_));
    }
    controllers_.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        Router &r = *routers_[id];
        ActivityCounters &c = stats_.router(id);
        switch (config_.design) {
          case PgDesign::kNoPg:
            controllers_.push_back(
                std::make_unique<NoPgController>(r, config_, c));
            break;
          case PgDesign::kConvPg:
            controllers_.push_back(
                std::make_unique<ConvPgController>(r, config_, c, 0));
            break;
          case PgDesign::kConvPgOpt:
            controllers_.push_back(std::make_unique<ConvPgController>(
                r, config_, c, kConvOptSleepGuard));
            break;
          case PgDesign::kNord: {
            const bool perf =
                std::find(perfCentric_.begin(), perfCentric_.end(), id) !=
                perfCentric_.end();
            const int threshold = perf ? config_.nordPerfThreshold
                                       : config_.nordPowerThreshold;
            const int guard = perf ? config_.nordPerfSleepGuard
                                   : config_.nordPowerSleepGuard;
            controllers_.push_back(std::make_unique<NordController>(
                r, config_, c, *nis_[id], threshold, guard));
            break;
          }
        }
        routers_[id]->setController(controllers_.back().get());
    }
}

void
NocSystem::registerAll()
{
    // Per-cycle evaluation order: inject faults (so the glitched state is
    // what this cycle observes), deliver link payloads, run router
    // pipelines, generate workload traffic, run NIs (injection/ejection/
    // bypass), then power-gating controllers (which therefore see WU
    // requests raised this cycle, while their state changes are observed
    // by neighbors next cycle).
    if (injector_)
        kernel_.add(injector_.get());
    for (auto &l : flitLinks_)
        kernel_.add(l.get());
    for (auto &l : creditLinks_)
        kernel_.add(l.get());
    for (auto &r : routers_)
        kernel_.add(r.get());
    kernel_.add(&ticker_);
    for (auto &ni : nis_)
        kernel_.add(ni.get());
    for (auto &c : controllers_)
        kernel_.add(c.get());
    // The auditor must run last so its end-of-cycle sweeps observe a fully
    // settled network state.
    kernel_.add(auditor_.get());
}

void
NocSystem::setWorkload(Workload *workload)
{
    workload_ = workload;
    if (workload_)
        workload_->bind(*this);
}

void
NocSystem::inject(NodeId src, NodeId dst, int length, std::uint64_t tag)
{
    NORD_ASSERT(mesh_.valid(src) && mesh_.valid(dst),
                "bad packet endpoints %d -> %d", src, dst);
    PacketDescriptor desc;
    desc.src = src;
    desc.dst = dst;
    desc.length = length;
    desc.createdAt = kernel_.now();
    desc.tag = tag;
    nis_[src]->enqueuePacket(desc);
}

void
NocSystem::run(Cycle cycles)
{
    kernel_.run(cycles);
}

bool
NocSystem::runTowardCompletion(Cycle maxCycles)
{
    return kernel_.runUntil([this] { return completionReached(); },
                            maxCycles);
}

bool
NocSystem::runToCompletion(Cycle maxCycles)
{
    bool ok = runTowardCompletion(maxCycles);
    finalizeStats();
    return ok;
}

bool
NocSystem::drained() const
{
    for (const auto &ni : nis_) {
        if (!ni->idle())
            return false;
    }
    for (const auto &r : routers_) {
        if (!r->datapathEmpty())
            return false;
    }
    for (const auto &l : flitLinks_) {
        if (!l->empty())
            return false;
    }
    // Credits still in flight mean upstream state is not settled.
    for (const auto &l : creditLinks_) {
        if (!l->empty())
            return false;
    }
    return true;
}

int
NocSystem::countInState(PowerState s) const
{
    int count = 0;
    for (const auto &c : controllers_) {
        if (c->state() == s)
            ++count;
    }
    return count;
}

void
NocSystem::dumpState(std::FILE *out) const
{
    std::fprintf(out, "=== NocSystem state at cycle %llu ===\n",
                 static_cast<unsigned long long>(kernel_.now()));
    for (const auto &r : routers_) {
        if (!r->datapathEmpty() || r->powerState() != PowerState::kOn)
            r->dumpState(out);
    }
    for (const auto &ni : nis_)
        ni->dumpState(out);
    for (const auto &l : flitLinks_) {
        if (!l->empty())
            std::fprintf(out, "link %s inflight=%zu\n", l->name().c_str(),
                         l->inFlight());
    }
}

void
NocSystem::killRouter(NodeId id)
{
    NORD_ASSERT(mesh_.valid(id), "killRouter: bad node %d", id);
    controllers_[id]->markDead(kernel_.now());
}

void
NocSystem::checkInvariants() const
{
    NORD_ASSERT(drained(), "checkInvariants requires a drained network");
    // A credit leaked after the last periodic sweep would still be
    // unrepaired; give the recover policy one final pass before asserting
    // quiescence.
    if (config_.verify.policy == AuditPolicy::kRecover)
        auditor_->sweep(kernel_.now());
    bool anyDead = false;
    for (const auto &c : controllers_)
        anyDead = anyDead || c->dead();
    if (!config_.fault.enabled && !config_.fault.e2e && !anyDead) {
        // Fault-free run: every packet arrives, exactly once.
        NORD_ASSERT(stats_.packetsDelivered() == stats_.packetsCreated(),
                    "packets lost: %llu created, %llu delivered",
                    static_cast<unsigned long long>(
                        stats_.packetsCreated()),
                    static_cast<unsigned long long>(
                        stats_.packetsDelivered()));
        NORD_ASSERT(stats_.flitsInjected() == stats_.flitsDelivered(),
                    "flits lost: %llu injected, %llu delivered",
                    static_cast<unsigned long long>(
                        stats_.flitsInjected()),
                    static_cast<unsigned long long>(
                        stats_.flitsDelivered()));
    } else {
        // Fault campaign: losses are legal but must be accounted -- no
        // packet vanishes without a matching failure record, duplicates
        // are filtered before delivery, and every physically injected
        // flit is either ejected or deliberately eaten.
        NORD_ASSERT(stats_.packetsDelivered() <= stats_.packetsCreated(),
                    "over-delivery: %llu created, %llu delivered",
                    static_cast<unsigned long long>(
                        stats_.packetsCreated()),
                    static_cast<unsigned long long>(
                        stats_.packetsDelivered()));
        NORD_ASSERT(stats_.packetsDelivered() + stats_.packetsFailed() >=
                        stats_.packetsCreated(),
                    "unaccounted loss: %llu created, %llu delivered, "
                    "%llu failed",
                    static_cast<unsigned long long>(
                        stats_.packetsCreated()),
                    static_cast<unsigned long long>(
                        stats_.packetsDelivered()),
                    static_cast<unsigned long long>(
                        stats_.packetsFailed()));
        NORD_ASSERT(stats_.flitsInjected() ==
                        stats_.flitsEjected() + stats_.flitsEaten(),
                    "flit leak: %llu injected, %llu ejected, %llu eaten",
                    static_cast<unsigned long long>(
                        stats_.flitsInjected()),
                    static_cast<unsigned long long>(
                        stats_.flitsEjected()),
                    static_cast<unsigned long long>(stats_.flitsEaten()));
    }
    for (const auto &r : routers_)
        r->checkQuiescent();
    for (const auto &l : creditLinks_) {
        NORD_ASSERT(l->empty(), "credit link %s still carrying credits",
                    l->name().c_str());
    }
}

void
NocSystem::finalizeStats()
{
    stats_.finalize(kernel_.now());
}

void
NocSystem::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("SYS "));
    kernel_.serializeState(s);
    stats_.serializeState(s);
    for (auto &r : routers_)
        r->serializeState(s);
    for (auto &ni : nis_)
        ni->serializeState(s);
    for (auto &l : flitLinks_)
        l->serializeState(s);
    for (auto &l : creditLinks_)
        l->serializeState(s);
    for (auto &c : controllers_)
        c->serializeState(s);
    auditor_->serializeState(s);
    bool hasInjector = injector_ != nullptr;
    s.io(hasInjector);
    if (s.loading() && hasInjector != (injector_ != nullptr)) {
        s.fail("checkpoint and system disagree on fault injector "
               "presence");
        return;
    }
    if (injector_)
        injector_->serializeState(s);
    bool hasWorkload = workload_ != nullptr;
    s.io(hasWorkload);
    if (s.loading() && hasWorkload != (workload_ != nullptr)) {
        s.fail("checkpoint and system disagree on workload presence");
        return;
    }
    if (workload_)
        workload_->serializeState(s);
}

std::uint64_t
NocSystem::stateHash() const
{
    StateSerializer s(SerialMode::kHash);
    // The hash walk reads every field without mutating anything; the
    // const_cast only satisfies the shared save/load/hash signature.
    const_cast<NocSystem *>(this)->serializeState(s);
    return s.hash();
}

std::uint64_t
NocSystem::configFingerprint() const
{
    StateSerializer s(SerialMode::kHash);
    NocConfig c = config_;
    s.io(c.rows);
    s.io(c.cols);
    s.io(c.numVcs);
    s.io(c.numEscapeVcs);
    s.io(c.bufferDepth);
    s.io(c.design);
    s.io(c.wakeupLatency);
    s.io(c.betCycles);
    s.io(c.nordWakeupWindow);
    s.io(c.nordPerfThreshold);
    s.io(c.nordPowerThreshold);
    s.io(c.nordPerfCentricCount);
    s.io(c.nordPowerSleepGuard);
    s.io(c.nordPerfSleepGuard);
    s.io(c.niStarvationLimit);
    s.io(c.nordAggressiveBypass);
    s.io(c.seed);
    s.io(c.statsWarmup);
    s.io(c.verify.interval);
    s.io(c.verify.policy);
    s.io(c.verify.maxFlitAge);
    FaultConfig &f = c.fault;
    s.io(f.enabled);
    s.io(f.flitCorruptRate);
    s.io(f.flitDropRate);
    s.io(f.creditLeakRate);
    s.io(f.lostWakeupRate);
    s.io(f.e2e);
    s.io(f.retransTimeout);
    s.io(f.retryLimit);
    return s.hash();
}

bool
NocSystem::saveCheckpoint(const std::string &path,
                          const std::array<std::uint64_t, 4> &user,
                          std::string *err)
{
    StateSerializer s(SerialMode::kSave);
    serializeState(s);
    if (!s.ok()) {
        if (err)
            *err = s.error();
        return false;
    }
    CheckpointMeta meta;
    meta.version = kCheckpointVersion;
    meta.configFingerprint = configFingerprint();
    meta.cycle = kernel_.now();
    meta.user = user;
    return writeCheckpointFile(path, meta, s.buffer(), err);
}

bool
NocSystem::loadCheckpoint(const std::string &path,
                          std::array<std::uint64_t, 4> *user,
                          std::string *err)
{
    CheckpointMeta meta;
    std::vector<std::uint8_t> payload;
    if (!readCheckpointFile(path, &meta, &payload, err))
        return false;
    if (meta.configFingerprint != configFingerprint()) {
        if (err)
            *err = "checkpoint configuration fingerprint mismatch "
                   "(different topology/design/seed/fault settings)";
        return false;
    }
    // Snapshot the live state before the load walk so a payload that
    // passes the container hashes but fails mid-walk (format drift,
    // trailing bytes, clock disagreement) cannot leave the system half
    // overwritten: the load is transactional, callers may retry or
    // restart from scratch on the same object.
    StateSerializer snap(SerialMode::kSave);
    serializeState(snap);
    if (!snap.ok()) {
        if (err)
            *err = snap.error();
        return false;
    }
    auto rollback = [this, &snap]() {
        StateSerializer undo(snap.takeBuffer());
        serializeState(undo);
        restoreDerivedState();
    };
    StateSerializer s(std::move(payload));
    serializeState(s);
    if (!s.ok()) {
        if (err)
            *err = s.error();
        rollback();
        return false;
    }
    if (!s.exhausted()) {
        if (err)
            *err = "checkpoint payload has trailing bytes (format drift)";
        rollback();
        return false;
    }
    if (meta.cycle != kernel_.now()) {
        if (err)
            *err = "checkpoint header cycle disagrees with restored "
                   "kernel clock";
        rollback();
        return false;
    }
    if (user)
        *user = meta.user;
    restoreDerivedState();
    return true;
}

void
NocSystem::loadState(StateSerializer &s)
{
    serializeState(s);
    restoreDerivedState();
}

void
NocSystem::restoreDerivedState()
{
    for (auto &r : routers_)
        r->recountOccupancy();
    for (auto &ni : nis_)
        ni->recountE2eTimers();
    // The restored state may hold work for components the active set had
    // retired (or vice versa): re-arm everything. No-op ticks keep
    // bit-identity.
    kernel_.wakeAll();
}

}  // namespace nord
