/**
 * @file
 * Off-line router-criticality analysis (Section 4.4 / Figure 6).
 *
 * The paper selects performance-centric routers with "a short off-line
 * program based on the Floyd-Warshall all-pair shortest path algorithm".
 * Given a set of powered-on routers, the reachability graph is:
 *
 *  - a powered-off router X contributes only its ring edge
 *    X -> ringSuccessor(X) (traffic traverses X through the NI bypass);
 *  - a powered-on router X contributes edges to every mesh neighbor Y that
 *    is powered on, plus the edge to Y when X is Y's ring predecessor
 *    (the only way into a gated-off router is its Bypass Inport).
 *
 * Hop costs model latency: a hop into a powered-on router costs the full
 * pipeline (4 stages + LT), a hop into a gated-off router costs the bypass
 * pipeline (2 stages + LT). A shortest path has the least latency, and the
 * fewest hops among the paths of that latency; a pair's hop count is that
 * path's.
 */

#ifndef NORD_TOPOLOGY_CRITICALITY_HH
#define NORD_TOPOLOGY_CRITICALITY_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/state_annotations.hh"
#include "common/types.hh"
#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"

namespace nord {

/** Result of analyzing one powered-on set. */
struct CriticalityPoint
{
    int numPoweredOn = 0;
    double avgDistanceHops = 0.0;   ///< mean node-to-node distance (hops)
    double avgPerHopLatency = 0.0;  ///< mean per-hop latency (cycles)
    std::vector<NodeId> poweredOn;  ///< the router set analyzed
};

/**
 * Analyzer producing Figure 6 and the performance-centric router set.
 */
class CriticalityAnalyzer
{
  public:
    /**
     * @param mesh the mesh topology
     * @param ring the bypass ring over that mesh
     * @param onRouterHopCycles per-hop latency through a powered-on router
     *        (default 5: 4-stage pipeline + LT)
     * @param offRouterHopCycles per-hop latency through a bypassed router
     *        (default 3: 2-cycle bypass + LT)
     *
     * Fatal when a path of numNodes()-1 of the costlier hop reaches 16383
     * cycles (meshes past about 57x57), or when a hop cost is negative.
     */
    CriticalityAnalyzer(const MeshTopology &mesh, const BypassRing &ring,
                        int onRouterHopCycles = 5,
                        int offRouterHopCycles = 3);

    /**
     * Average node-to-node distance (hops) and per-hop latency for a given
     * powered-on set, via all-pairs shortest paths over the mixed graph.
     */
    CriticalityPoint analyze(const std::vector<bool> &poweredOn) const;

    /**
     * All-pairs shortest distances in cycles over the mixed graph
     * (row-major n*n). Used as the static steering table for NoRD's
     * adaptive routing: entry [i*n+j] is the cost from i to j assuming
     * exactly @p poweredOn routers are on.
     */
    std::vector<double>
    distanceMatrixCycles(const std::vector<bool> &poweredOn) const;

    /**
     * Greedy sweep: starting from all routers off, repeatedly power on the
     * router that minimizes average node-to-node distance (per-hop latency,
     * then the lower id, as tie-breaks). Returns numNodes()+1 points
     * (k = 0 .. numNodes). Each step scores every candidate by one shared
     * divide-and-conquer recursion, O(n^3 log n), rather than one
     * Floyd-Warshall per candidate.
     */
    std::vector<CriticalityPoint> greedySweep() const;

    /**
     * The performance-centric router set of size @p count: the first
     * @p count routers chosen by the greedy sweep.
     */
    std::vector<NodeId> performanceCentricSet(int count) const;

    /**
     * Pick a knee point from a greedy sweep: the smallest k after which
     * no single additional router reduces the average distance by
     * @p slackHops or more (diminishing returns). The paper's 4x4
     * example lands at k = 6.
     */
    static int kneePoint(const std::vector<CriticalityPoint> &sweep,
                         double slackHops = 0.5);

  private:
    /**
     * All-pairs shortest paths (row-major n*n) by Floyd-Warshall,
     * overwriting @p dist. Each entry is `cycles << 16 | hops`, so the
     * relaxation's min picks the least latency, then the fewest hops,
     * whatever order the passes run in. Unreachable pairs hold
     * `16383 << 16`; the constructor guarantees every path is shorter.
     */
    void shortestPaths(const std::vector<bool> &poweredOn,
                       std::vector<std::int32_t> &dist) const;

    const MeshTopology &mesh_;
    const BypassRing &ring_;
    int onHopCycles_;
    int offHopCycles_;
};

/**
 * Process-wide cache of criticality-analysis results, keyed by mesh
 * shape. The greedy sweep is deterministic per shape, so it runs once
 * per (rows, cols): knee() and every perfSet() read that one sweep, and
 * benches and tests that construct many NocSystems share it. steering()
 * adds one all-pairs shortest-path run per performance-centric set.
 *
 * This replaces the anonymous function-local `static std::map` caches
 * that used to live in noc_system.cc and cdg.cc: those were unsynchronized
 * mutable statics -- data races the moment two NocSystems are built on two
 * threads (see tests/test_concurrency.cc). The cache is the one piece of
 * deliberately shared mutable state in the library; it is mutex-guarded
 * and carries a nord-lint whitelist entry telling its story.
 *
 * Returned references stay valid for the process lifetime (std::map nodes
 * are stable, entries are never erased except by clear(), which is a
 * test-only hook callers must not race with lookups).
 */
class CriticalityCache
{
  public:
    /** The process-wide instance. */
    static CriticalityCache &instance();

    /** Knee point of the greedy sweep for @p mesh's shape. */
    int knee(const MeshTopology &mesh, const BypassRing &ring);

    /**
     * Performance-centric router set of size @p count: the first @p count
     * routers of the shape's greedy sweep, sorted. Panics unless
     * 0 <= count <= numNodes().
     */
    const std::vector<NodeId> &perfSet(const MeshTopology &mesh,
                                       const BypassRing &ring, int count);

    /** NoRD steering table for a performance-centric set. */
    const std::vector<double> &steering(const MeshTopology &mesh,
                                        const BypassRing &ring,
                                        const std::vector<NodeId> &perf);

    /** Drop every cached entry (tests only; forces recomputation). */
    void clear();

    /** Cached entries across all tables (tests). */
    std::size_t entries() const;

  private:
    CriticalityCache() = default;

    /** The greedy sweep for @p mesh's shape; the caller holds mu_. */
    const std::vector<CriticalityPoint> &sweepLocked(const MeshTopology &mesh,
                                                     const BypassRing &ring);

    NORD_STATE_EXCLUDE(config, "synchronization primitive, not state")
    mutable std::mutex mu_;
    NORD_STATE_EXCLUDE(cache, "memoized greedy sweeps; recomputed on miss")
    std::map<std::pair<int, int>, std::vector<CriticalityPoint>> sweep_;
    NORD_STATE_EXCLUDE(cache, "memoized steering weights; recomputed on miss")
    std::map<std::tuple<int, int, int>, std::vector<double>> steering_;
};

}  // namespace nord

#endif  // NORD_TOPOLOGY_CRITICALITY_HH
