/**
 * @file
 * Top-level facade: builds and runs one simulated on-chip network.
 *
 * A NocSystem assembles the mesh topology, the Bypass Ring, routers, NIs,
 * links, per-design power-gating controllers and statistics, then drives
 * them with a cycle-based kernel. This is the primary public entry point
 * of the library:
 *
 * @code
 *   NocConfig cfg;
 *   cfg.design = PgDesign::kNord;
 *   NocSystem sys(cfg);
 *   SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 42);
 *   sys.setWorkload(&traffic);
 *   sys.run(100000);
 *   RunRecord r = recordRun(sys);  // network/run_record.hh
 *   double lat = r.avgLatency;
 * @endcode
 */

#ifndef NORD_NETWORK_NOC_SYSTEM_HH
#define NORD_NETWORK_NOC_SYSTEM_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "network/link.hh"
#include "network/noc_config.hh"
#include "ni/network_interface.hh"
#include "powergate/pg_controller.hh"
#include "router/router.hh"
#include "routing/routing_policy.hh"
#include "sim/kernel.hh"
#include "stats/network_stats.hh"
#include "topology/bypass_ring.hh"
#include "topology/criticality.hh"
#include "topology/mesh.hh"
#include "traffic/workload.hh"
#include "verify/invariant_auditor.hh"

namespace nord {

class StateSerializer;

/**
 * One fully-wired simulated network.
 */
class NocSystem
{
  public:
    explicit NocSystem(const NocConfig &config);
    ~NocSystem();

    NocSystem(const NocSystem &) = delete;
    NocSystem &operator=(const NocSystem &) = delete;

    /** Attach a traffic workload (not owned). */
    void setWorkload(Workload *workload);

    /** Run @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Run until the workload reports done and the network has drained, or
     * @p maxCycles elapse. Returns true on clean completion.
     */
    bool runToCompletion(Cycle maxCycles);

    /**
     * Chunked/checkpointed equivalent of runToCompletion(): advance at
     * most @p maxCycles further, stopping the cycle completion is
     * reached, WITHOUT finalizing statistics. The completion predicate is
     * evaluated after every cycle, so splitting one runToCompletion()
     * budget across several calls stops at the identical cycle.
     */
    bool runTowardCompletion(Cycle maxCycles);

    /** True when the workload (if any) is done and the network drained. */
    bool completionReached() const
    {
        return (!workload_ || workload_->done()) && drained();
    }

    /** Current simulation cycle. */
    Cycle now() const { return kernel_.now(); }

    /** The driving kernel (perf counters, skip toggles, wakeAll). */
    SimKernel &kernel() { return kernel_; }
    const SimKernel &kernel() const { return kernel_; }

    /** The pool behind every flit queue of the routers, NIs and links
     *  (allocation stats, test hooks). */
    const PoolArena &arena() const { return arena_; }

    /** Inject one packet from @p src to @p dst (used by workloads). */
    void inject(NodeId src, NodeId dst, int length, std::uint64_t tag = 0);

    /** True when every queue, buffer, link and bypass latch is empty. */
    bool drained() const;

    // --- Component access ----------------------------------------------
    const NocConfig &config() const { return config_; }
    const MeshTopology &mesh() const { return mesh_; }
    const BypassRing &ring() const { return ring_; }
    NetworkStats &stats() { return stats_; }
    const NetworkStats &stats() const { return stats_; }
    Router &router(NodeId id) { return *routers_[id]; }
    const Router &router(NodeId id) const { return *routers_[id]; }
    NetworkInterface &ni(NodeId id) { return *nis_[id]; }
    const NetworkInterface &ni(NodeId id) const { return *nis_[id]; }
    PgController &controller(NodeId id) { return *controllers_[id]; }
    const PgController &controller(NodeId id) const
    {
        return *controllers_[id];
    }

    /** Runtime invariant auditor (always constructed; enabled when
     *  config.verify.interval > 0). */
    InvariantAuditor &auditor() { return *auditor_; }
    const InvariantAuditor &auditor() const { return *auditor_; }

    /** Fault-campaign engine (null unless config.fault.enabled). */
    const FaultInjector *injector() const { return injector_.get(); }

    /**
     * Permanently fail router @p id right now, before the next cycle's
     * components tick. NoRD demotes it to always-gated and serves its
     * node over the bypass ring; baselines pin it on and eat what routes
     * into it.
     */
    void killRouter(NodeId id);

    /** Performance-centric router set used for asymmetric thresholds. */
    const std::vector<NodeId> &perfCentricRouters() const
    {
        return perfCentric_;
    }

    /** Number of routers currently in each power state. */
    int countInState(PowerState s) const;

    /** Finalize statistics (flush idle periods). Safe to call repeatedly. */
    void finalizeStats();

    /** Dump every non-idle component's state (diagnostics). */
    void dumpState(std::FILE *out) const;

    /**
     * Verify whole-network conservation invariants on a drained network:
     * every packet delivered, all credits home, no leaked VC or bypass
     * state. Panics with a description on violation.
     */
    void checkInvariants() const;

    // --- Checkpoint / restore -------------------------------------------

    /** Save the complete dynamic state into @p s (kSave mode). */
    void saveState(StateSerializer &s) { serializeState(s); }

    /**
     * Restore the complete dynamic state from @p s (kLoad mode), then
     * rebuild what the walk does not carry (see restoreDerivedState).
     */
    void loadState(StateSerializer &s);

    /**
     * FNV-1a hash over the complete dynamic network state. Two runs of
     * the same configuration are bit-exact iff their per-cycle hashes
     * agree; divergence after a restore pinpoints the first broken
     * component hook.
     */
    std::uint64_t stateHash() const;

    /**
     * FNV-1a hash over every configuration field (topology, design,
     * verify and fault settings, seed). A checkpoint only restores into a
     * system built from the identical configuration.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Write a checkpoint of the full dynamic state to @p path (atomic:
     * temp file + rename). @p user carries caller metadata (e.g. campaign
     * progress) restored verbatim by loadCheckpoint().
     * Returns false with *err set on failure.
     */
    bool saveCheckpoint(const std::string &path,
                        const std::array<std::uint64_t, 4> &user = {},
                        std::string *err = nullptr);

    /**
     * Restore the full dynamic state from @p path. Rejects checkpoints
     * with a different format version or configuration fingerprint and
     * never panics on corrupt input -- the caller can fall back to an
     * older checkpoint. The load is transactional: it snapshots the
     * state first and rolls back to it on any failure, so a failed load
     * leaves the system exactly as it was. Returns false with *err set
     * on failure.
     */
    bool loadCheckpoint(const std::string &path,
                        std::array<std::uint64_t, 4> *user = nullptr,
                        std::string *err = nullptr);

  private:
    /** Cycle hook that forwards to the attached workload. Workload state
     *  is checkpointed by NocSystem::serializeState, not here. */
    class WorkloadTicker : public Clocked
    {
      public:
        explicit WorkloadTicker(NocSystem &sys) : sys_(sys) {}
        void tick(Cycle now) override
        {
            if (sys_.workload_)
                sys_.workload_->tick(now);
        }
        std::string name() const override { return "workload"; }

      private:
        NocSystem &sys_;
    };

    void buildRouters();
    void buildLinks();
    void buildControllers();
    void registerAll();

    /**
     * Walk every component's serializeState hook in a fixed order:
     * kernel, stats, routers, NIs, flit links, credit links, controllers,
     * auditor, injector, workload. One function serves save, load and
     * hash, so the three walks can never disagree on field order. Private:
     * a load must be followed by restoreDerivedState(), which loadState()
     * and loadCheckpoint() do.
     */
    void serializeState(StateSerializer &s);

    /**
     * After a load walk: rebuild each router's occupancy counters and
     * work masks and each E2E endpoint's timer bookkeeping, and re-arm
     * every component, exactly as in a freshly built system.
     * None of these touches hashed state.
     */
    void restoreDerivedState();

    NORD_STATE_EXCLUDE(config, "the run configuration itself; fixed at build")
    NocConfig config_;
    // Declared right after config_ so it outlives (is destroyed after)
    // every container that allocates from it.
    NORD_STATE_EXCLUDE(config,
        "flit pool; storage is re-established by the deserialized "
        "arena-backed containers")
    PoolArena arena_;
    NORD_STATE_EXCLUDE(config, "topology derived from config at build")
    MeshTopology mesh_;
    NORD_STATE_EXCLUDE(config, "topology derived from config at build")
    BypassRing ring_;
    NetworkStats stats_;
    NORD_STATE_EXCLUDE(config, "routing tables derived from config at build")
    RoutingPolicy policy_;
    SimKernel kernel_;

    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<PgController>> controllers_;
    std::vector<std::unique_ptr<FlitLink>> flitLinks_;
    std::vector<std::unique_ptr<CreditLink>> creditLinks_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<FaultInjector> injector_;
    NORD_STATE_EXCLUDE(config, "perf-centric node set derived from config")
    std::vector<NodeId> perfCentric_;
    NORD_STATE_EXCLUDE(config,
        "stateless tick driver; the workload it drives serializes itself")
    WorkloadTicker ticker_;
    Workload *workload_ = nullptr;
};

}  // namespace nord

#endif  // NORD_NETWORK_NOC_SYSTEM_HH
