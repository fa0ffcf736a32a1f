/**
 * @file
 * Tests for the Floyd-Warshall criticality analysis (Figure 6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/log.hh"
#include "topology/criticality.hh"

namespace nord {
namespace {

/**
 * Test oracle: the original double-precision Floyd-Warshall analysis and
 * greedy sweep, kept verbatim apart from living outside the library.
 * The library's 16-bit integer version must reproduce it bit for bit.
 */
class ReferenceAnalyzer
{
  public:
    ReferenceAnalyzer(const MeshTopology &mesh, const BypassRing &ring)
        : mesh_(mesh), ring_(ring)
    {
    }

    std::vector<double>
    distanceMatrixCycles(const std::vector<bool> &poweredOn) const
    {
        std::vector<double> hops;
        std::vector<double> cycles;
        shortestPaths(poweredOn, hops, cycles);
        return cycles;
    }

    CriticalityPoint
    analyze(const std::vector<bool> &poweredOn) const
    {
        const int n = mesh_.numNodes();
        std::vector<double> hops;
        std::vector<double> cycles;
        shortestPaths(poweredOn, hops, cycles);

        double sumHops = 0.0;
        double sumCycles = 0.0;
        int pairs = 0;
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                const size_t ij = static_cast<size_t>(i) * n + j;
                NORD_ASSERT(cycles[ij] != kInf,
                            "network disconnected between %d and %d", i, j);
                sumHops += hops[ij];
                sumCycles += cycles[ij];
                ++pairs;
            }
        }

        CriticalityPoint pt;
        pt.numPoweredOn = static_cast<int>(
            std::count(poweredOn.begin(), poweredOn.end(), true));
        pt.avgDistanceHops = sumHops / pairs;
        pt.avgPerHopLatency = sumCycles / sumHops;
        for (NodeId x = 0; x < n; ++x) {
            if (poweredOn[x])
                pt.poweredOn.push_back(x);
        }
        return pt;
    }

    std::vector<CriticalityPoint>
    greedySweep() const
    {
        const int n = mesh_.numNodes();
        std::vector<bool> on(n, false);
        std::vector<CriticalityPoint> sweep;
        sweep.push_back(analyze(on));

        for (int k = 1; k <= n; ++k) {
            int best = -1;
            double bestDist = kInf;
            double bestLat = kInf;
            for (NodeId cand = 0; cand < n; ++cand) {
                if (on[cand])
                    continue;
                on[cand] = true;
                CriticalityPoint pt = analyze(on);
                on[cand] = false;
                if (pt.avgDistanceHops < bestDist ||
                    (pt.avgDistanceHops == bestDist &&
                     pt.avgPerHopLatency < bestLat)) {
                    best = cand;
                    bestDist = pt.avgDistanceHops;
                    bestLat = pt.avgPerHopLatency;
                }
            }
            NORD_ASSERT(best >= 0, "greedy sweep found no candidate at k=%d",
                        k);
            on[best] = true;
            sweep.push_back(analyze(on));
        }
        return sweep;
    }

  private:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    void
    shortestPaths(const std::vector<bool> &poweredOn,
                  std::vector<double> &distHops,
                  std::vector<double> &distCycles) const
    {
        const int n = mesh_.numNodes();
        NORD_ASSERT(static_cast<int>(poweredOn.size()) == n,
                    "poweredOn size %zu != %d", poweredOn.size(), n);
        distHops.assign(static_cast<size_t>(n) * n, kInf);
        distCycles.assign(static_cast<size_t>(n) * n, kInf);
        for (int i = 0; i < n; ++i) {
            distHops[static_cast<size_t>(i) * n + i] = 0.0;
            distCycles[static_cast<size_t>(i) * n + i] = 0.0;
        }

        auto addEdge = [&](NodeId x, NodeId y) {
            double hopCost = poweredOn[y] ? onHopCycles_ : offHopCycles_;
            distHops[static_cast<size_t>(x) * n + y] = 1.0;
            distCycles[static_cast<size_t>(x) * n + y] = hopCost;
        };

        for (NodeId x = 0; x < n; ++x) {
            if (!poweredOn[x]) {
                addEdge(x, ring_.successor(x));
                continue;
            }
            for (int d = 0; d < kNumMeshDirs; ++d) {
                NodeId y = mesh_.neighbor(x, indexDir(d));
                if (y == kInvalidNode)
                    continue;
                if (poweredOn[y] || ring_.predecessor(y) == x)
                    addEdge(x, y);
            }
        }

        for (int k = 0; k < n; ++k) {
            for (int i = 0; i < n; ++i) {
                const size_t ik = static_cast<size_t>(i) * n + k;
                if (distCycles[ik] == kInf)
                    continue;
                for (int j = 0; j < n; ++j) {
                    const size_t kj = static_cast<size_t>(k) * n + j;
                    const size_t ij = static_cast<size_t>(i) * n + j;
                    double cand = distCycles[ik] + distCycles[kj];
                    if (cand < distCycles[ij]) {
                        distCycles[ij] = cand;
                        distHops[ij] = distHops[ik] + distHops[kj];
                    }
                }
            }
        }
    }

    const MeshTopology &mesh_;
    const BypassRing &ring_;
    int onHopCycles_ = 5;
    int offHopCycles_ = 3;
};

/** The order in which a greedy sweep powers routers on. */
std::vector<NodeId>
sweepOrder(const std::vector<CriticalityPoint> &sweep)
{
    std::vector<NodeId> order;
    for (size_t k = 1; k < sweep.size(); ++k) {
        const auto &prev = sweep[k - 1].poweredOn;
        for (NodeId r : sweep[k].poweredOn) {
            if (std::find(prev.begin(), prev.end(), r) == prev.end())
                order.push_back(r);
        }
    }
    return order;
}

class CriticalityTest : public ::testing::Test
{
  protected:
    CriticalityTest() : mesh(4, 4), ring(mesh), analyzer(mesh, ring) {}

    MeshTopology mesh;
    BypassRing ring;
    CriticalityAnalyzer analyzer;
};

TEST_F(CriticalityTest, AllOnMatchesMeshAverage)
{
    std::vector<bool> on(16, true);
    CriticalityPoint pt = analyzer.analyze(on);
    // Average pairwise Manhattan distance of a 4x4 mesh is 8/3.
    EXPECT_NEAR(pt.avgDistanceHops, 8.0 / 3.0, 1e-9);
    EXPECT_NEAR(pt.avgPerHopLatency, 5.0, 1e-9);
}

TEST_F(CriticalityTest, AllOffIsTheRing)
{
    std::vector<bool> off(16, false);
    CriticalityPoint pt = analyzer.analyze(off);
    // Unidirectional 16-ring: mean forward distance = (1+...+15)/15 = 8.
    EXPECT_NEAR(pt.avgDistanceHops, 8.0, 1e-9);
    EXPECT_NEAR(pt.avgPerHopLatency, 3.0, 1e-9);
}

TEST_F(CriticalityTest, GreedySweepShape)
{
    auto sweep = analyzer.greedySweep();
    ASSERT_EQ(sweep.size(), 17u);
    // Distance is non-increasing in k; per-hop latency rises overall.
    for (size_t k = 1; k < sweep.size(); ++k) {
        EXPECT_LE(sweep[k].avgDistanceHops,
                  sweep[k - 1].avgDistanceHops + 1e-9);
        EXPECT_EQ(sweep[k].numPoweredOn, static_cast<int>(k));
    }
    EXPECT_LT(sweep.front().avgPerHopLatency,
              sweep.back().avgPerHopLatency);
}

TEST_F(CriticalityTest, KneeMatchesPaper)
{
    // The paper's 4x4 example designates six performance-centric routers.
    auto sweep = analyzer.greedySweep();
    EXPECT_EQ(CriticalityAnalyzer::kneePoint(sweep), 6);
}

TEST_F(CriticalityTest, PerformanceCentricSetSizeAndValidity)
{
    auto set = analyzer.performanceCentricSet(6);
    EXPECT_EQ(set.size(), 6u);
    for (NodeId r : set) {
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 16);
    }
    // Sorted and unique.
    for (size_t i = 1; i < set.size(); ++i)
        EXPECT_LT(set[i - 1], set[i]);
}

TEST_F(CriticalityTest, DistanceMatrixProperties)
{
    std::vector<bool> on(16, false);
    on[5] = on[6] = on[9] = on[10] = true;  // center on
    auto m = analyzer.distanceMatrixCycles(on);
    ASSERT_EQ(m.size(), 256u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(m[i * 16 + i], 0.0);
        for (int j = 0; j < 16; ++j) {
            if (i != j) {
                EXPECT_GT(m[i * 16 + j], 0.0);
                EXPECT_LT(m[i * 16 + j], 16.0 * 5.0);
            }
        }
    }
    // Triangle inequality.
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
            for (int k = 0; k < 16; ++k) {
                EXPECT_LE(m[i * 16 + j],
                          m[i * 16 + k] + m[k * 16 + j] + 1e-9);
            }
        }
    }
}

TEST_F(CriticalityTest, SinglePoweredOnRouterStillConnected)
{
    for (NodeId r = 0; r < 16; ++r) {
        std::vector<bool> on(16, false);
        on[r] = true;
        CriticalityPoint pt = analyzer.analyze(on);  // panics if split
        EXPECT_GT(pt.avgDistanceHops, 0.0);
    }
}

TEST(CriticalityLarge, EightByEightRingDistance)
{
    MeshTopology mesh(8, 8);
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);
    std::vector<bool> off(64, false);
    CriticalityPoint pt = analyzer.analyze(off);
    // 64-ring: mean forward distance = 65*64/2/63... = sum(1..63)/63 = 32.
    EXPECT_NEAR(pt.avgDistanceHops, 32.0, 1e-9);
}

TEST(CriticalityEdge, TwoByTwoMesh)
{
    // The smallest legal mesh: the ring is the mesh's outer face, and the
    // analysis endpoints have closed forms.
    MeshTopology mesh(2, 2);
    BypassRing ring(mesh);
    CriticalityAnalyzer analyzer(mesh, ring);

    std::vector<bool> on(4, true);
    // Ordered pairwise Manhattan distances: 8x1 + 4x2 over 12 pairs.
    EXPECT_NEAR(analyzer.analyze(on).avgDistanceHops, 4.0 / 3.0, 1e-9);

    std::vector<bool> off(4, false);
    // 4-ring: mean forward distance = (1+2+3)/3 = 2.
    EXPECT_NEAR(analyzer.analyze(off).avgDistanceHops, 2.0, 1e-9);

    auto sweep = analyzer.greedySweep();
    ASSERT_EQ(sweep.size(), 5u);
    int knee = CriticalityAnalyzer::kneePoint(sweep);
    EXPECT_GE(knee, 0);
    EXPECT_LE(knee, 4);
    auto set = analyzer.performanceCentricSet(knee);
    EXPECT_EQ(static_cast<int>(set.size()), knee);
}

TEST(CriticalityEdge, RectangularMeshes)
{
    // k x m with k != m: the serpentine ring construction and the sweep
    // must not assume a square mesh.
    for (auto [rows, cols] : {std::pair{2, 5}, {4, 6}, {6, 4}}) {
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        CriticalityAnalyzer analyzer(mesh, ring);
        const int n = rows * cols;

        std::vector<bool> off(n, false);
        // n-ring: mean forward distance = sum(1..n-1)/(n-1) = n/2.
        EXPECT_NEAR(analyzer.analyze(off).avgDistanceHops, n / 2.0, 1e-9)
            << rows << "x" << cols;

        auto sweep = analyzer.greedySweep();
        ASSERT_EQ(sweep.size(), static_cast<size_t>(n) + 1);
        for (size_t k = 1; k < sweep.size(); ++k) {
            EXPECT_LE(sweep[k].avgDistanceHops,
                      sweep[k - 1].avgDistanceHops + 1e-9);
        }
        int knee = CriticalityAnalyzer::kneePoint(sweep);
        auto set = analyzer.performanceCentricSet(knee);
        EXPECT_EQ(static_cast<int>(set.size()), knee);
        for (NodeId r : set) {
            EXPECT_GE(r, 0);
            EXPECT_LT(r, n);
        }
    }
}

TEST(CriticalityOracle, IntegerSweepMatchesDoubleReference)
{
    for (auto [rows, cols] : {std::pair{2, 2}, {2, 5}, {4, 4}, {4, 6},
                              {6, 4}, {6, 6}, {8, 8}}) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        CriticalityAnalyzer analyzer(mesh, ring);
        ReferenceAnalyzer reference(mesh, ring);
        const int n = mesh.numNodes();

        const auto sweep = analyzer.greedySweep();
        const auto expected = reference.greedySweep();
        ASSERT_EQ(sweep.size(), expected.size());
        for (size_t k = 0; k < sweep.size(); ++k) {
            SCOPED_TRACE("k=" + std::to_string(k));
            EXPECT_EQ(sweep[k].numPoweredOn, expected[k].numPoweredOn);
            EXPECT_EQ(sweep[k].poweredOn, expected[k].poweredOn);
            EXPECT_EQ(sweep[k].avgDistanceHops, expected[k].avgDistanceHops);
            EXPECT_EQ(sweep[k].avgPerHopLatency,
                      expected[k].avgPerHopLatency);

            // Every prefix's steering table, and analyze() on its own.
            std::vector<bool> on(n, false);
            for (NodeId r : expected[k].poweredOn)
                on[r] = true;
            EXPECT_EQ(analyzer.distanceMatrixCycles(on),
                      reference.distanceMatrixCycles(on));
            const CriticalityPoint pt = analyzer.analyze(on);
            EXPECT_EQ(pt.avgDistanceHops, expected[k].avgDistanceHops);
            EXPECT_EQ(pt.avgPerHopLatency, expected[k].avgPerHopLatency);
        }
    }
}

TEST(CriticalityOracle, EveryCandidateGraphMatchesReference)
{
    // Every graph the reference sweep scores: a step's powered-on set
    // plus one router still off. The library's fewest-hops tie-break
    // must give the visiting-order reference's sums on each of them.
    for (auto [rows, cols] : {std::pair{2, 2}, {2, 5}, {4, 4}, {4, 6},
                              {6, 4}, {6, 6}, {8, 8}}) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        CriticalityAnalyzer analyzer(mesh, ring);
        ReferenceAnalyzer reference(mesh, ring);
        const int n = mesh.numNodes();

        const auto steps = reference.greedySweep();
        for (size_t k = 0; k + 1 < steps.size(); ++k) {
            std::vector<bool> on(n, false);
            for (NodeId r : steps[k].poweredOn)
                on[r] = true;
            for (NodeId c = 0; c < n; ++c) {
                if (on[c])
                    continue;
                on[c] = true;
                const CriticalityPoint pt = analyzer.analyze(on);
                const CriticalityPoint expected = reference.analyze(on);
                on[c] = false;
                EXPECT_EQ(pt.avgDistanceHops, expected.avgDistanceHops)
                    << "k=" << k << " router " << c;
                EXPECT_EQ(pt.avgPerHopLatency, expected.avgPerHopLatency)
                    << "k=" << k << " router " << c;
            }
        }
    }
}

TEST(CriticalityCacheTest, EightByEightKneeAndSetArePinned)
{
    // The values the double-precision analysis produced for 8x8.
    CriticalityCache &cache = CriticalityCache::instance();
    cache.clear();
    MeshTopology mesh(8, 8);
    BypassRing ring(mesh);
    const int knee = cache.knee(mesh, ring);
    EXPECT_EQ(knee, 12);
    EXPECT_EQ(cache.perfSet(mesh, ring, knee),
              (std::vector<NodeId>{0, 1, 8, 9, 17, 24, 25, 33, 40, 41, 49,
                                   57}));
}

TEST(CriticalityCacheTest, TenByTenKneeAndSetArePinned)
{
    // The values the visiting-order analysis produced for 10x10, the
    // first shape where some minimum-latency paths differ in hop count.
    // The hash covers every sweep point: FNV-1a 64 over the bits of
    // each point's distance and then latency, low byte first.
    CriticalityCache &cache = CriticalityCache::instance();
    cache.clear();
    MeshTopology mesh(10, 10);
    BypassRing ring(mesh);
    const int knee = cache.knee(mesh, ring);
    EXPECT_EQ(knee, 15);
    EXPECT_EQ(cache.perfSet(mesh, ring, knee),
              (std::vector<NodeId>{0, 1, 10, 11, 21, 30, 31, 41, 50, 51, 61,
                                   70, 71, 81, 91}));

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            hash ^= (bits >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (const CriticalityPoint &pt :
         CriticalityAnalyzer(mesh, ring).greedySweep()) {
        mix(pt.avgDistanceHops);
        mix(pt.avgPerHopLatency);
    }
    EXPECT_EQ(hash, 0x63c5d98b183ad06aULL);
}

TEST(CriticalityCacheTest, PerfSetIsSortedPrefixOfOneSweep)
{
    CriticalityCache &cache = CriticalityCache::instance();
    for (auto [rows, cols] : {std::pair{4, 4}, {4, 6}}) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        MeshTopology mesh(rows, cols);
        BypassRing ring(mesh);
        const int n = mesh.numNodes();
        const std::vector<NodeId> order =
            sweepOrder(CriticalityAnalyzer(mesh, ring).greedySweep());
        ASSERT_EQ(static_cast<int>(order.size()), n);

        cache.clear();
        const int knee = cache.knee(mesh, ring);
        for (int count : {0, knee, n}) {
            std::vector<NodeId> prefix(order.begin(), order.begin() + count);
            std::sort(prefix.begin(), prefix.end());
            EXPECT_EQ(cache.perfSet(mesh, ring, count), prefix)
                << "count " << count;
        }
        // knee() and every perfSet() share the shape's single sweep.
        EXPECT_EQ(cache.entries(), 1u);
    }
}

TEST(CriticalityCacheTest, OutOfRangeCountDies)
{
    MeshTopology mesh(4, 4);
    BypassRing ring(mesh);
    CriticalityCache &cache = CriticalityCache::instance();
    EXPECT_DEATH(cache.perfSet(mesh, ring, 17),
                 "bad performance-centric count 17");
    EXPECT_DEATH(cache.perfSet(mesh, ring, -1),
                 "bad performance-centric count -1");
}

TEST(CriticalityEdge, SixteenBitRangeGuard)
{
    // 56x56: a 3135-hop path of 5-cycle hops fits below INT16_MAX/2.
    MeshTopology fits(56, 56);
    BypassRing fitsRing(fits);
    CriticalityAnalyzer analyzer(fits, fitsRing);

    // 58x58: 3363 hops x 5 cycles does not.
    EXPECT_EXIT(
        {
            MeshTopology mesh(58, 58);
            BypassRing ring(mesh);
            CriticalityAnalyzer tooBig(mesh, ring);
        },
        ::testing::ExitedWithCode(1), "criticality analysis of a 58x58");
}

}  // namespace
}  // namespace nord
