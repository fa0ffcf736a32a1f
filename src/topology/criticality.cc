/**
 * @file
 * Floyd-Warshall router-criticality analysis.
 */

#include "topology/criticality.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/log.hh"

namespace nord {

namespace {

/** Path length type of the all-pairs matrices (hops and cycles). */
using Dist = std::int16_t;

/**
 * "No path yet". Half of INT16_MAX, so the sum of two entries -- the
 * candidate of one relaxation -- never overflows, and any finite path
 * (at most n-1 hops; the constructor's range guard) stays below it.
 */
constexpr Dist kUnreachable = std::numeric_limits<Dist>::max() / 2;

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Hop and cycle totals over every ordered pair i != j of one all-pairs
 * solution. Integer sums of integers: the averages below divide them
 * exactly as the old double accumulators did.
 */
struct PairSums
{
    std::int64_t hops = 0;
    std::int64_t cycles = 0;

    double avgDistanceHops(int n) const
    {
        return static_cast<double>(hops) / (n * (n - 1));
    }
    double avgPerHopLatency() const
    {
        return static_cast<double>(cycles) / static_cast<double>(hops);
    }
};

PairSums
pairSums(int n, const std::vector<Dist> &hops,
         const std::vector<Dist> &cycles)
{
    // The diagonal stays 0 (no self edges, no negative costs), so whole
    // row-major sums are the off-diagonal sums.
    PairSums sums;
    Dist worst = 0;
    for (std::size_t ij = 0; ij < cycles.size(); ++ij) {
        sums.hops += hops[ij];
        sums.cycles += cycles[ij];
        worst = std::max(worst, cycles[ij]);
    }
    if (worst == kUnreachable) {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                NORD_ASSERT(cycles[static_cast<std::size_t>(i) * n + j] !=
                                kUnreachable,
                            "network disconnected between %d and %d", i, j);
            }
        }
    }
    return sums;
}

CriticalityPoint
makePoint(const std::vector<bool> &poweredOn, const PairSums &sums)
{
    const int n = static_cast<int>(poweredOn.size());
    CriticalityPoint pt;
    pt.numPoweredOn = static_cast<int>(
        std::count(poweredOn.begin(), poweredOn.end(), true));
    pt.avgDistanceHops = sums.avgDistanceHops(n);
    pt.avgPerHopLatency = sums.avgPerHopLatency();
    for (NodeId x = 0; x < n; ++x) {
        if (poweredOn[x])
            pt.poweredOn.push_back(x);
    }
    return pt;
}

}  // namespace

CriticalityAnalyzer::CriticalityAnalyzer(const MeshTopology &mesh,
                                         const BypassRing &ring,
                                         int onRouterHopCycles,
                                         int offRouterHopCycles)
    : mesh_(mesh), ring_(ring),
      onHopCycles_(onRouterHopCycles),
      offHopCycles_(offRouterHopCycles)
{
    const std::int64_t longest =
        static_cast<std::int64_t>(mesh_.numNodes() - 1) *
        std::max(onHopCycles_, offHopCycles_);
    if (std::min(onHopCycles_, offHopCycles_) < 0 || longest >= kUnreachable) {
        NORD_FATAL("criticality analysis of a %dx%d mesh with hop costs "
                   "%d/%d cycles: a path of up to %lld cycles must be "
                   "non-negative and below %d",
                   mesh_.rows(), mesh_.cols(), onHopCycles_, offHopCycles_,
                   static_cast<long long>(longest), kUnreachable);
    }
}

// The Floyd-Warshall kernel below vectorizes; on x86-64 it also gets an
// AVX2 clone, picked at load time on CPUs that have it. The integer math
// is the same in both clones.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NORD_FLOYD_WARSHALL_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define NORD_FLOYD_WARSHALL_CLONES
#endif

NORD_FLOYD_WARSHALL_CLONES void
CriticalityAnalyzer::shortestPaths(const std::vector<bool> &poweredOn,
                                   std::vector<std::int16_t> &distHops,
                                   std::vector<std::int16_t> &distCycles) const
{
    const int n = mesh_.numNodes();
    NORD_ASSERT(static_cast<int>(poweredOn.size()) == n,
                "poweredOn size %zu != %d", poweredOn.size(), n);
    distHops.assign(static_cast<size_t>(n) * n, kUnreachable);
    distCycles.assign(static_cast<size_t>(n) * n, kUnreachable);
    for (int i = 0; i < n; ++i) {
        distHops[static_cast<size_t>(i) * n + i] = 0;
        distCycles[static_cast<size_t>(i) * n + i] = 0;
    }

    // Edge x -> y exists when x can hand a flit to y. Cost is charged for
    // traversing y (the hop's pipeline) -- consistent for whole paths since
    // the source NI injects directly into x's pipeline.
    auto addEdge = [&](NodeId x, NodeId y) {
        const int hopCost = poweredOn[y] ? onHopCycles_ : offHopCycles_;
        distHops[static_cast<size_t>(x) * n + y] = 1;
        distCycles[static_cast<size_t>(x) * n + y] =
            static_cast<Dist>(hopCost);
    };

    for (NodeId x = 0; x < n; ++x) {
        if (!poweredOn[x]) {
            // Gated-off: only the ring edge out of the NI bypass.
            addEdge(x, ring_.successor(x));
            continue;
        }
        for (int d = 0; d < kNumMeshDirs; ++d) {
            NodeId y = mesh_.neighbor(x, indexDir(d));
            if (y == kInvalidNode)
                continue;
            if (poweredOn[y] || ring_.predecessor(y) == x) {
                // Into an on router: always allowed. Into an off router:
                // only via its Bypass Inport (we must be its ring
                // predecessor).
                addEdge(x, y);
            }
        }
    }

    // Floyd-Warshall on cycles; hops follow the same relaxations (strict
    // <, so ties keep the earlier path). Pass k never changes row k or
    // column k (D[k][k] = 0), so row k is skipped, never aliases row i,
    // and the branchless inner loop vectorizes.
    for (int k = 0; k < n; ++k) {
        const size_t rowK = static_cast<size_t>(k) * n;
        const Dist *__restrict cyclesK = &distCycles[rowK];
        const Dist *__restrict hopsK = &distHops[rowK];
        for (int i = 0; i < n; ++i) {
            if (i == k)
                continue;
            const size_t rowI = static_cast<size_t>(i) * n;
            Dist *__restrict cyclesI = &distCycles[rowI];
            Dist *__restrict hopsI = &distHops[rowI];
            const Dist cyclesIK = cyclesI[k];
            if (cyclesIK == kUnreachable)
                continue;
            const Dist hopsIK = hopsI[k];
            for (int j = 0; j < n; ++j) {
                const Dist cand = static_cast<Dist>(cyclesIK + cyclesK[j]);
                const Dist candHops = static_cast<Dist>(hopsIK + hopsK[j]);
                const Dist oldCycles = cyclesI[j];
                const Dist oldHops = hopsI[j];
                const bool better = cand < oldCycles;
                hopsI[j] = better ? candHops : oldHops;
                cyclesI[j] = better ? cand : oldCycles;
            }
        }
    }
}

std::vector<double>
CriticalityAnalyzer::distanceMatrixCycles(
    const std::vector<bool> &poweredOn) const
{
    std::vector<Dist> hops;
    std::vector<Dist> cycles;
    shortestPaths(poweredOn, hops, cycles);
    std::vector<double> out(cycles.size());
    std::transform(cycles.begin(), cycles.end(), out.begin(), [](Dist c) {
        return c == kUnreachable ? kInf : static_cast<double>(c);
    });
    return out;
}

CriticalityPoint
CriticalityAnalyzer::analyze(const std::vector<bool> &poweredOn) const
{
    std::vector<Dist> hops;
    std::vector<Dist> cycles;
    shortestPaths(poweredOn, hops, cycles);
    return makePoint(poweredOn, pairSums(mesh_.numNodes(), hops, cycles));
}

std::vector<CriticalityPoint>
CriticalityAnalyzer::greedySweep() const
{
    const int n = mesh_.numNodes();
    std::vector<bool> on(n, false);
    // One pair of matrices serves every candidate of every step.
    std::vector<Dist> hops;
    std::vector<Dist> cycles;
    std::vector<CriticalityPoint> sweep;
    sweep.push_back(analyze(on));

    for (int k = 1; k <= n; ++k) {
        int best = -1;
        double bestDist = kInf;
        double bestLat = kInf;
        PairSums bestSums;
        for (NodeId cand = 0; cand < n; ++cand) {
            if (on[cand])
                continue;
            on[cand] = true;
            shortestPaths(on, hops, cycles);
            on[cand] = false;
            const PairSums sums = pairSums(n, hops, cycles);
            const double dist = sums.avgDistanceHops(n);
            const double lat = sums.avgPerHopLatency();
            if (dist < bestDist || (dist == bestDist && lat < bestLat)) {
                best = cand;
                bestDist = dist;
                bestLat = lat;
                bestSums = sums;
            }
        }
        NORD_ASSERT(best >= 0, "greedy sweep found no candidate at k=%d", k);
        on[best] = true;
        sweep.push_back(makePoint(on, bestSums));
    }
    return sweep;
}

std::vector<NodeId>
CriticalityAnalyzer::performanceCentricSet(int count) const
{
    NORD_ASSERT(count >= 0 && count <= mesh_.numNodes(),
                "bad performance-centric count %d", count);
    auto sweep = greedySweep();
    std::vector<NodeId> set = sweep[count].poweredOn;
    std::sort(set.begin(), set.end());
    return set;
}

int
CriticalityAnalyzer::kneePoint(const std::vector<CriticalityPoint> &sweep,
                               double slackHops)
{
    NORD_ASSERT(!sweep.empty(), "empty sweep");
    // Diminishing-returns knee: the smallest k after which no single
    // additional router improves the average distance by slackHops or
    // more. For the paper's 4x4 mesh this lands at 6 routers (Fig. 6).
    for (size_t k = 0; k + 1 < sweep.size(); ++k) {
        bool flat = true;
        for (size_t j = k; j + 1 < sweep.size(); ++j) {
            if (sweep[j].avgDistanceHops - sweep[j + 1].avgDistanceHops >=
                slackHops) {
                flat = false;
                break;
            }
        }
        if (flat)
            return static_cast<int>(k);
    }
    return static_cast<int>(sweep.size()) - 1;
}

CriticalityCache &
CriticalityCache::instance()
{
    // The one whitelisted mutable static in the library: a named,
    // mutex-guarded cache (see nord-lint's whitelist).
    static CriticalityCache cache;
    return cache;
}

const std::vector<CriticalityPoint> &
CriticalityCache::sweepLocked(const MeshTopology &mesh,
                              const BypassRing &ring)
{
    auto key = std::make_pair(mesh.rows(), mesh.cols());
    auto it = sweep_.find(key);
    if (it == sweep_.end())
        it = sweep_.emplace(key,
                            CriticalityAnalyzer(mesh, ring).greedySweep())
                 .first;
    return it->second;
}

int
CriticalityCache::knee(const MeshTopology &mesh, const BypassRing &ring)
{
    std::lock_guard<std::mutex> lock(mu_);
    return CriticalityAnalyzer::kneePoint(sweepLocked(mesh, ring));
}

const std::vector<NodeId> &
CriticalityCache::perfSet(const MeshTopology &mesh, const BypassRing &ring,
                          int count)
{
    NORD_ASSERT(count >= 0 && count <= mesh.numNodes(),
                "bad performance-centric count %d", count);
    std::lock_guard<std::mutex> lock(mu_);
    // sweep[count].poweredOn is the sorted first @p count of the order.
    return sweepLocked(mesh, ring)[count].poweredOn;
}
const std::vector<double> &
CriticalityCache::steering(const MeshTopology &mesh, const BypassRing &ring,
                           const std::vector<NodeId> &perf)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto key = std::make_tuple(mesh.rows(), mesh.cols(),
                               static_cast<int>(perf.size()));
    auto it = steering_.find(key);
    if (it == steering_.end()) {
        CriticalityAnalyzer analyzer(mesh, ring);
        std::vector<bool> on(static_cast<size_t>(mesh.numNodes()), false);
        for (NodeId r : perf)
            on[r] = true;
        it = steering_.emplace(key,
                               analyzer.distanceMatrixCycles(on)).first;
    }
    return it->second;
}

void
CriticalityCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    sweep_.clear();
    steering_.clear();
}

std::size_t
CriticalityCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sweep_.size() + steering_.size();
}

}  // namespace nord
