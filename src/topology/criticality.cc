/**
 * @file
 * Router-criticality analysis: all-pairs shortest paths over the mixed
 * mesh/ring graph, and the greedy sweep over powered-on sets.
 */

#include "topology/criticality.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/log.hh"

namespace nord {

namespace {

/**
 * One all-pairs entry, `cycles << 16 | hops`. Adding two entries adds
 * both fields: a path of at most n-1 < 32767 hops, or two of them, never
 * carries into the cycles. So the smaller entry is the lower-latency
 * path, fewer hops breaking a tie, and a relaxation is a plain min.
 */
using Dist = std::int32_t;

constexpr int kHopBits = 16;
constexpr Dist kHopMask = (Dist{1} << kHopBits) - 1;

/** Every path's latency stays below this (the constructor's range guard). */
constexpr Dist kMaxCycles = std::numeric_limits<std::int16_t>::max() / 2;

/**
 * "No path yet": above every finite path, and the sum of two of them --
 * the candidate of one relaxation -- still fits an int32_t.
 */
constexpr Dist kUnreachable = kMaxCycles << kHopBits;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The entry of one hop costing @p cycles. */
constexpr Dist
hopDist(int cycles)
{
    return static_cast<Dist>(cycles) << kHopBits | 1;
}

// The kernels below vectorize; on x86-64 they also get an AVX2 clone,
// picked at load time on CPUs that have it. The integer math is the
// same in both clones.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NORD_FLOYD_WARSHALL_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define NORD_FLOYD_WARSHALL_CLONES
#endif

/**
 * Floyd-Warshall passes over routers [first, last): afterwards @p m also
 * holds the paths with those routers as intermediates. Entries are exact
 * minima, so passes commute and any order gives the same matrix. Pass k
 * never changes row k or column k (m[k][k] = 0), so row k is skipped,
 * never aliases row i, and the branchless inner loop vectorizes.
 */
NORD_FLOYD_WARSHALL_CLONES void
relaxThrough(Dist *m, int n, const NodeId *first, const NodeId *last)
{
    for (; first != last; ++first) {
        const int k = *first;
        const Dist *__restrict rowK = m + static_cast<size_t>(k) * n;
        for (int i = 0; i < n; ++i) {
            if (i == k)
                continue;
            Dist *__restrict rowI = m + static_cast<size_t>(i) * n;
            const Dist ik = rowI[k];
            if (ik == kUnreachable)
                continue;
            for (int j = 0; j < n; ++j)
                rowI[j] = std::min(rowI[j], ik + rowK[j]);
        }
    }
}

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

/**
 * Totals of min(m[i][j], to[i] + from[j]): the distances of a graph whose
 * paths either avoid one router (m) or run through it (to it, then from
 * it). All-kUnreachable @p to and @p from sum @p m itself.
 */
NORD_FLOYD_WARSHALL_CLONES PairSums
pairSums(int n, const Dist *m, const Dist *to, const Dist *__restrict from)
{
    // The diagonal stays 0 (no self edges, no negative costs), so whole
    // row-major sums are the off-diagonal sums. A row's totals fit an
    // int32_t: n < 32768 entries of at most n-1 hops and kMaxCycles.
    PairSums sums;
    Dist worst = 0;
    for (int i = 0; i < n; ++i) {
        const Dist *__restrict rowI = m + static_cast<size_t>(i) * n;
        const Dist toI = to[i];
        std::int32_t hops = 0;
        std::int32_t cycles = 0;
        for (int j = 0; j < n; ++j) {
            const Dist d = std::min(rowI[j], toI + from[j]);
            hops += d & kHopMask;
            cycles += d >> kHopBits;
            worst = std::max(worst, d);
        }
        sums.hops += hops;
        sums.cycles += cycles;
    }
    if (worst == kUnreachable) {
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                NORD_ASSERT(std::min(m[static_cast<size_t>(i) * n + j],
                                     to[i] + from[j]) != kUnreachable,
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

/**
 * The mixed graph of one powered-on set (see criticality.hh). Edge x -> y
 * exists when x can hand a flit to y. Cost is charged for traversing y
 * (the hop's pipeline) -- consistent for whole paths since the source NI
 * injects directly into x's pipeline.
 */
struct MixedGraph
{
    const MeshTopology &mesh;
    const BypassRing &ring;
    Dist intoOn;   ///< a hop into a powered-on router
    Dist intoOff;  ///< a hop into a gated-off router

    /** Overwrite @p m (n*n) with the one-hop paths of @p poweredOn. */
    void directEdges(const std::vector<bool> &poweredOn, Dist *m) const
    {
        const int n = mesh.numNodes();
        std::fill(m, m + static_cast<size_t>(n) * n, kUnreachable);
        for (int i = 0; i < n; ++i)
            m[static_cast<size_t>(i) * n + i] = 0;
        auto addEdge = [&](NodeId x, NodeId y) {
            m[static_cast<size_t>(x) * n + y] =
                poweredOn[y] ? intoOn : intoOff;
        };
        for (NodeId x = 0; x < n; ++x) {
            if (!poweredOn[x]) {
                // Gated-off: only the ring edge out of the NI bypass.
                addEdge(x, ring.successor(x));
                continue;
            }
            for (int d = 0; d < kNumMeshDirs; ++d) {
                NodeId y = mesh.neighbor(x, indexDir(d));
                if (y == kInvalidNode)
                    continue;
                if (poweredOn[y] || ring.predecessor(y) == x) {
                    // Into an on router: always allowed. Into an off
                    // router: only via its Bypass Inport (we must be its
                    // ring predecessor).
                    addEdge(x, y);
                }
            }
        }
    }
};

/**
 * One step of the greedy sweep: of the routers still off, the one whose
 * powering on gives the smallest average distance (per-hop latency as
 * tie-break, then the lowest id), by divide and conquer.
 *
 * Every candidate graph shares the edges among the routers other than
 * its candidate c. So a matrix relaxed through every router but c -- in
 * the base graph, where all candidates are off -- holds c's graph's
 * paths that avoid c, and c's <= 4 in- and out-edges give the rest. The
 * recursion shares the relaxations: a half's matrix is its parent's,
 * relaxed through the other half's routers. That is O(m log m) passes
 * for m candidates, against m * n for one Floyd-Warshall per candidate.
 */
class CandidateSearch
{
  public:
    explicit CandidateSearch(const MixedGraph &graph)
        : graph_(graph), n_(graph.mesh.numNodes()),
          to_(static_cast<size_t>(n_)), from_(static_cast<size_t>(n_))
    {
        // A left half goes one matrix deeper with at most half the
        // candidates; a right half reuses its parent's matrix.
        size_t depth = 1;
        for (int m = n_; m > 1; m = (m + 1) / 2)
            ++depth;
        levels_.assign(depth,
                       std::vector<Dist>(static_cast<size_t>(n_) * n_));
    }

    /** The router to power on next, and the sums of that graph. */
    std::pair<NodeId, PairSums> best(const std::vector<bool> &poweredOn)
    {
        on_ = &poweredOn;
        std::vector<NodeId> onIds;
        std::vector<NodeId> offIds;
        for (NodeId x = 0; x < n_; ++x)
            (poweredOn[x] ? onIds : offIds).push_back(x);
        best_ = -1;
        bestDist_ = kInf;
        bestLat_ = kInf;
        Dist *base = levels_[0].data();
        graph_.directEdges(poweredOn, base);
        relaxThrough(base, n_, onIds.data(), onIds.data() + onIds.size());
        if (!offIds.empty())
            search(0, offIds.data(), offIds.data() + offIds.size());
        return {best_, bestSums_};
    }

  private:
    /**
     * levels_[depth] is relaxed through every router but the candidates
     * [first, last), which are sorted. The left half goes first, so the
     * leaves arrive in increasing id and the first wins a tie.
     */
    void search(size_t depth, const NodeId *first, const NodeId *last)
    {
        const size_t cells = static_cast<size_t>(n_) * n_;
        Dist *m = levels_[depth].data();
        if (last - first == 1) {
            consider(*first, m);
            return;
        }
        const NodeId *mid = first + (last - first) / 2;
        NORD_DCHECK(depth + 1 < levels_.size(), "recursion too deep");
        Dist *half = levels_[depth + 1].data();
        std::copy(m, m + cells, half);
        relaxThrough(half, n_, mid, last);
        search(depth + 1, first, mid);
        relaxThrough(m, n_, first, mid);
        search(depth, mid, last);
    }

    /**
     * Score candidate @p c from @p m, relaxed through every router but c.
     * Paths of c's graph avoid c (m as is) or run through it: to[i] over
     * c's in-edges, from[j] over its out-edges, with c on. Row c and
     * column c of m hold c-off paths, so they give way to to and from.
     */
    void consider(NodeId c, Dist *m)
    {
        const std::vector<bool> &on = *on_;
        const size_t n = static_cast<size_t>(n_);
        std::fill(to_.begin(), to_.end(), kUnreachable);
        std::fill(from_.begin(), from_.end(), kUnreachable);
        auto inEdge = [&](NodeId x) {
            for (size_t i = 0; i < n; ++i)
                to_[i] = std::min(to_[i], m[i * n + x] + graph_.intoOn);
        };
        auto outEdge = [&](NodeId y) {
            const Dist hop = on[y] ? graph_.intoOn : graph_.intoOff;
            const Dist *rowY = m + y * n;
            for (size_t j = 0; j < n; ++j)
                from_[j] = std::min(from_[j], hop + rowY[j]);
        };
        for (int d = 0; d < kNumMeshDirs; ++d) {
            const NodeId y = graph_.mesh.neighbor(c, indexDir(d));
            if (y == kInvalidNode)
                continue;
            if (on[y])
                inEdge(y);
            if (on[y] || graph_.ring.predecessor(y) == c)
                outEdge(y);
        }
        // A gated-off predecessor reaches c through its NI bypass.
        const NodeId pred = graph_.ring.predecessor(c);
        if (!on[pred])
            inEdge(pred);
        to_[c] = 0;
        from_[c] = 0;
        std::fill(m + c * n, m + (c + 1) * n, kUnreachable);
        for (size_t i = 0; i < n; ++i)
            m[i * n + c] = kUnreachable;

        const PairSums sums = pairSums(n_, m, to_.data(), from_.data());
        const double dist = sums.avgDistanceHops(n_);
        const double lat = sums.avgPerHopLatency();
        if (dist < bestDist_ || (dist == bestDist_ && lat < bestLat_)) {
            best_ = c;
            bestDist_ = dist;
            bestLat_ = lat;
            bestSums_ = sums;
        }
    }

    const MixedGraph &graph_;
    const int n_;
    std::vector<std::vector<Dist>> levels_;
    std::vector<Dist> to_;
    std::vector<Dist> from_;
    const std::vector<bool> *on_ = nullptr;
    NodeId best_ = -1;
    double bestDist_ = kInf;
    double bestLat_ = kInf;
    PairSums bestSums_;
};

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
    if (std::min(onHopCycles_, offHopCycles_) < 0 || longest >= kMaxCycles) {
        NORD_FATAL("criticality analysis of a %dx%d mesh with hop costs "
                   "%d/%d cycles: a path of up to %lld cycles must be "
                   "non-negative and below %d",
                   mesh_.rows(), mesh_.cols(), onHopCycles_, offHopCycles_,
                   static_cast<long long>(longest), kMaxCycles);
    }
}

void
CriticalityAnalyzer::shortestPaths(const std::vector<bool> &poweredOn,
                                   std::vector<std::int32_t> &dist) const
{
    const int n = mesh_.numNodes();
    NORD_ASSERT(static_cast<int>(poweredOn.size()) == n,
                "poweredOn size %zu != %d", poweredOn.size(), n);
    dist.resize(static_cast<size_t>(n) * n);
    const MixedGraph graph{mesh_, ring_, hopDist(onHopCycles_),
                           hopDist(offHopCycles_)};
    graph.directEdges(poweredOn, dist.data());
    std::vector<NodeId> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    relaxThrough(dist.data(), n, all.data(), all.data() + n);
}

std::vector<double>
CriticalityAnalyzer::distanceMatrixCycles(
    const std::vector<bool> &poweredOn) const
{
    std::vector<Dist> dist;
    shortestPaths(poweredOn, dist);
    std::vector<double> out(dist.size());
    std::transform(dist.begin(), dist.end(), out.begin(), [](Dist d) {
        return d == kUnreachable ? kInf
                                 : static_cast<double>(d >> kHopBits);
    });
    return out;
}

CriticalityPoint
CriticalityAnalyzer::analyze(const std::vector<bool> &poweredOn) const
{
    const int n = mesh_.numNodes();
    std::vector<Dist> dist;
    shortestPaths(poweredOn, dist);
    const std::vector<Dist> none(static_cast<size_t>(n), kUnreachable);
    return makePoint(poweredOn,
                     pairSums(n, dist.data(), none.data(), none.data()));
}

std::vector<CriticalityPoint>
CriticalityAnalyzer::greedySweep() const
{
    const int n = mesh_.numNodes();
    const MixedGraph graph{mesh_, ring_, hopDist(onHopCycles_),
                           hopDist(offHopCycles_)};
    // One set of recursion matrices serves every step.
    CandidateSearch search(graph);
    std::vector<bool> on(n, false);
    std::vector<CriticalityPoint> sweep;
    sweep.push_back(analyze(on));

    for (int k = 1; k <= n; ++k) {
        const auto [best, sums] = search.best(on);
        NORD_ASSERT(best >= 0, "greedy sweep found no candidate at k=%d", k);
        on[best] = true;
        sweep.push_back(makePoint(on, sums));
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
