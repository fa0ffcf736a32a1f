/**
 * @file
 * Hidden-state stress tests: two NocSystems on two threads.
 *
 * The library's contract after the hidden-static purge: independent
 * NocSystems share NO mutable state except the mutex-guarded
 * CriticalityCache and the lock-free trace selection, so concurrent
 * campaigns are bit-identical to serial ones. Each case is its own
 * tier-1 ctest entry (`ctest -R Concurrency`); CI also runs them under
 * ThreadSanitizer, where DISABLED_PlantedStaticCacheRace reproduces the
 * pre-fix bug shape as a detected race (negative control for the TSan
 * job itself). ctest registers that control as a disabled entry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/trace.hh"
#include "network/noc_system.hh"
#include "topology/criticality.hh"
#include "traffic/synthetic_traffic.hh"

#if defined(__SANITIZE_THREAD__)
#define NORD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NORD_TSAN 1
#endif
#endif

namespace nord {
namespace {

/** Build, run and drain one campaign; returns the final state hash. */
std::uint64_t
campaignHash(PgDesign design, Cycle cycles)
{
    NocConfig cfg = makeShippedConfig(design, 4, 4);
    cfg.verify.interval = 250;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05,
                             cfg.seed);
    sys.setWorkload(&traffic);
    sys.run(cycles);
    sys.setWorkload(nullptr);
    EXPECT_TRUE(sys.runToCompletion(cycles * 4));
    sys.checkInvariants();
    return sys.stateHash();
}

TEST(Concurrency, ThreadedCampaignsBitIdenticalToSerial)
{
    const Cycle kCycles = 3000;
    const std::vector<PgDesign> designs = {
        PgDesign::kNoPg, PgDesign::kConvPg, PgDesign::kConvPgOpt,
        PgDesign::kNord};

    // Golden serial hashes, one design at a time.
    std::vector<std::uint64_t> serial;
    for (PgDesign d : designs)
        serial.push_back(campaignHash(d, kCycles));

    // All four concurrently, racing through NocSystem construction (the
    // shared CriticalityCache) and the full campaign. Start from a cold
    // cache so construction itself contends.
    CriticalityCache::instance().clear();
    std::vector<std::uint64_t> threaded(designs.size(), 0);
    std::vector<std::thread> workers;
    for (size_t i = 0; i < designs.size(); ++i) {
        workers.emplace_back([&, i] {
            threaded[i] = campaignHash(designs[i], kCycles);
        });
    }
    for (std::thread &w : workers)
        w.join();

    for (size_t i = 0; i < designs.size(); ++i)
        EXPECT_EQ(threaded[i], serial[i])
            << pgDesignName(designs[i])
            << " diverged when run on a thread";
}

TEST(Concurrency, ConcurrentConstructionSharesCriticalityCache)
{
    CriticalityCache::instance().clear();
    std::vector<NodeId> perfA, perfB;
    std::thread a([&] {
        NocSystem sys(makeShippedConfig(PgDesign::kNord, 4, 4));
        perfA = sys.perfCentricRouters();
    });
    std::thread b([&] {
        NocSystem sys(makeShippedConfig(PgDesign::kNord, 4, 4));
        perfB = sys.perfCentricRouters();
    });
    a.join();
    b.join();
    EXPECT_FALSE(perfA.empty());
    EXPECT_EQ(perfA, perfB);
    EXPECT_GT(CriticalityCache::instance().entries(), 0u);
}

TEST(Concurrency, TraceSelectionIsResettable)
{
    // The old once-latched static could never change its mind within a
    // process; the TraceConfig atomic can.
    TraceConfig::setPacket(7);
    EXPECT_EQ(tracedPacket(), 7u);
    TraceConfig::setPacket(9);
    EXPECT_EQ(tracedPacket(), 9u);
    TraceConfig::setPacket(0);
    EXPECT_EQ(tracedPacket(), 0u);
    TraceConfig::reset();  // next query re-reads NORD_TRACE_PACKET
}

/**
 * The pre-fix bug shape: a function-local static cache mutated with no
 * lock. Kept as a disabled negative control -- under the TSan CI job it
 * is run explicitly (--gtest_also_run_disabled_tests) and MUST make the
 * run fail with a reported data race, proving the sanitizer wiring can
 * see exactly the class of bug the CriticalityCache fix removed.
 */
[[maybe_unused]] int
plantedCachedLookup(int key)
{
    // nord-lint-allow would be wrong here: tests/ is outside the
    // mutable-static ban, which is the point -- the planted bug lives
    // where the lint cannot object.
    static std::map<int, int> cache;
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, key * key).first;
    return it->second;
}

TEST(Concurrency, DISABLED_PlantedStaticCacheRace)
{
#ifdef NORD_TSAN
    std::thread a([] {
        for (int i = 0; i < 20000; ++i)
            plantedCachedLookup(i);
    });
    std::thread b([] {
        for (int i = 0; i < 20000; ++i)
            plantedCachedLookup(i + 1);
    });
    a.join();
    b.join();
    SUCCEED() << "TSan reports the race via its own exit code";
#else
    GTEST_SKIP() << "negative control: only meaningful under "
                    "ThreadSanitizer";
#endif
}

}  // namespace
}  // namespace nord
