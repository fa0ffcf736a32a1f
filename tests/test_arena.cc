/**
 * @file
 * PoolArena / ArenaAllocator unit tests: reuse after free, double-free
 * detection, alignment, exhaustion growth, teardown leak accounting, and
 * a whole system that allocates nothing under steady load; ArenaRing:
 * FIFO order across wraparound and growth, the rewind of an emptied
 * ring, iteration order, deque-identical checkpoint bytes, heap fallback
 * and empty-access checks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "ckpt/state_serializer.hh"
#include "common/arena.hh"
#include "common/flit.hh"
#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

TEST(Arena, ReuseAfterFree)
{
    PoolArena arena;
    void *a = arena.allocate(48);
    arena.deallocate(a, 48);
    // Same size class -> the freed block is recycled, not fresh slab.
    void *b = arena.allocate(40);
    EXPECT_EQ(a, b);
    EXPECT_EQ(arena.stats().reuses, 1u);
    arena.deallocate(b, 40);
    EXPECT_EQ(arena.stats().liveBlocks, 0u);
    EXPECT_EQ(arena.checkTeardown(), 0u);
}

TEST(Arena, DistinctLiveBlocksDontAlias)
{
    PoolArena arena;
    std::vector<void *> blocks;
    for (int i = 0; i < 256; ++i)
        blocks.push_back(arena.allocate(64));
    for (size_t i = 0; i < blocks.size(); ++i) {
        for (size_t j = i + 1; j < blocks.size(); ++j)
            ASSERT_NE(blocks[i], blocks[j]);
    }
    for (void *p : blocks)
        arena.deallocate(p, 64);
    EXPECT_EQ(arena.stats().liveBlocks, 0u);
}

TEST(Arena, DoubleFreeTrips)
{
    PoolArena arena;
    void *p = arena.allocate(32);
    arena.deallocate(p, 32);
    EXPECT_DEATH(arena.deallocate(p, 32), "double free");
}

TEST(Arena, ForeignPointerTrips)
{
    PoolArena arena;
    alignas(PoolArena::kAlign) char fake[64] = {};
    EXPECT_DEATH(arena.deallocate(fake + PoolArena::kAlign, 16),
                 "non-arena");
}

TEST(Arena, Alignment)
{
    PoolArena arena;
    for (std::size_t sz : {1u, 7u, 16u, 33u, 100u, 4096u, 8192u}) {
        void *p = arena.allocate(sz);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                      PoolArena::kAlign,
                  0u)
            << "size " << sz;
        arena.deallocate(p, sz);
    }
}

TEST(Arena, ExhaustionGrowsSlabs)
{
    PoolArena arena;
    // Far more than the first slab (16 KiB) holds: growth path must kick
    // in, and every block must still be usable.
    std::vector<void *> blocks;
    constexpr int kCount = 10000;
    constexpr std::size_t kSz = 128;
    for (int i = 0; i < kCount; ++i) {
        void *p = arena.allocate(kSz);
        *static_cast<int *>(p) = i;
        blocks.push_back(p);
    }
    EXPECT_GT(arena.stats().slabBytes, 16u * 1024u);
    for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(*static_cast<int *>(blocks[i]), i);
    for (void *p : blocks)
        arena.deallocate(p, kSz);
    EXPECT_EQ(arena.stats().liveBlocks, 0u);
    // Steady state: the next wave recycles instead of growing.
    const std::uint64_t slabsBefore = arena.stats().slabBytes;
    for (int i = 0; i < kCount; ++i)
        blocks[static_cast<size_t>(i)] = arena.allocate(kSz);
    EXPECT_EQ(arena.stats().slabBytes, slabsBefore);
    for (void *p : blocks)
        arena.deallocate(p, kSz);
}

TEST(Arena, OversizeFallback)
{
    PoolArena arena;
    void *p = arena.allocate(100000);
    EXPECT_EQ(arena.stats().oversize, 1u);
    EXPECT_EQ(arena.stats().liveBlocks, 1u);
    arena.deallocate(p, 100000);
    EXPECT_EQ(arena.stats().liveBlocks, 0u);
}

TEST(Arena, PlantedLeakFlaggedByTeardownAccounting)
{
    PoolArena arena;
    void *kept = arena.allocate(64);
    void *freed = arena.allocate(64);
    arena.deallocate(freed, 64);
    // The planted leak: `kept` is never returned. Teardown accounting
    // must flag exactly that block.
    EXPECT_EQ(arena.checkTeardown(), 1u);
    EXPECT_EQ(arena.stats().liveBytes, 64u);
    arena.deallocate(kept, 64);  // clean up so the dtor stays silent
    EXPECT_EQ(arena.checkTeardown(), 0u);
}

TEST(Arena, AllocatorBackedDequeRoundTrips)
{
    // The NI's injection queue: an unbounded FIFO that grows by doubling
    // through the arena and hands every block back at teardown.
    PoolArena arena;
    {
        ArenaRing<Flit> q{ArenaAllocator<Flit>(&arena)};
        for (int i = 0; i < 1000; ++i) {
            Flit f;
            f.seq = static_cast<std::int16_t>(i % 128);
            q.push_back(f);
            // A 64-flit backlog still grows inside the pool.
            if (i == 63) {
                EXPECT_EQ(arena.stats().oversize, 0u);
            }
        }
        EXPECT_GT(arena.stats().allocCalls, 0u);
        EXPECT_GT(arena.stats().oversize, 0u);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(q.front().seq, static_cast<std::int16_t>(i % 128));
            q.pop_front();
        }
        EXPECT_TRUE(q.empty());
    }
    EXPECT_EQ(arena.checkTeardown(), 0u);
}

TEST(Arena, NullArenaAllocatorUsesHeap)
{
    // A component built outside a NocSystem: a default allocator must
    // work standalone and never touch any arena.
    ArenaRing<int> q;
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(q.front(), 0);
    ArenaAllocator<int> heap1;
    ArenaAllocator<int> heap2;
    EXPECT_TRUE(heap1 == heap2);
    PoolArena arena;
    ArenaAllocator<int> pooled(&arena);
    EXPECT_TRUE(heap1 != pooled);
}

TEST(Arena, SteadyLoadAllocatesNothing)
{
    // Every flit queue of the cycle loop sits on an ArenaRing that keeps
    // its storage: once the NIs' injection queues have reached their
    // working depth, a sub-saturation run allocates nothing at all.
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 5);
    sys.setWorkload(&traffic);
    sys.run(5000);
    const std::uint64_t warm = sys.arena().stats().allocCalls;
    const std::uint64_t delivered = sys.stats().packetsDelivered();
    sys.run(5000);
    EXPECT_GT(sys.stats().packetsDelivered(), delivered + 1000)
        << "the window carried no traffic; the check proved nothing";
    EXPECT_EQ(sys.arena().stats().allocCalls, warm);
    sys.setWorkload(nullptr);
}

// --- ArenaRing ---------------------------------------------------------------

/** Pop everything, returning the values in pop order. */
std::vector<int>
drain(ArenaRing<int> &q)
{
    std::vector<int> out;
    while (!q.empty()) {
        out.push_back(q.front());
        q.pop_front();
    }
    return out;
}

/** Pop order of a copy, leaving @p q as it is. */
std::vector<int>
drainCopy(const ArenaRing<int> &q)
{
    ArenaRing<int> copy(q);
    return drain(copy);
}

TEST(ArenaRing, WraparoundAcrossGrowthKeepsFifoOrder)
{
    PoolArena arena;
    ArenaRing<int> q{ArenaAllocator<int>(&arena)};
    q.reserve(3);
    EXPECT_EQ(q.capacity(), 3u);  // exactly what was reserved
    // Move the head off slot 0 so the contents wrap, then grow twice
    // while wrapped.
    int next = 0;
    int expect = 0;
    for (int round = 0; round < 3; ++round) {
        q.push_back(next++);
        q.push_back(next++);
        EXPECT_EQ(q.front(), expect++);
        q.pop_front();
    }
    for (int i = 0; i < 9; ++i)
        q.push_back(next++);
    EXPECT_EQ(q.capacity(), 12u);
    EXPECT_EQ(q.back(), next - 1);
    std::vector<int> want;
    for (int v = expect; v < next; ++v)
        want.push_back(v);
    EXPECT_EQ(drain(q), want);
    EXPECT_EQ(q.capacity(), 12u);  // never shrinks
}

TEST(ArenaRing, EmptiedRingRewindsToSlotZero)
{
    ArenaRing<int> q;
    q.reserve(4);
    q.push_back(0);
    const int *slot0 = &q.front();
    q.push_back(1);
    q.push_back(2);
    q.pop_front();
    q.pop_front();
    q.pop_front();
    // Drained three slots in: the next element starts over at slot 0,
    // so a queue that empties between bursts keeps its elements
    // contiguous.
    q.push_back(3);
    EXPECT_EQ(&q.front(), slot0);
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(ArenaRing, IterationOrderEqualsPopOrder)
{
    ArenaRing<int> q;
    for (int i = 0; i < 6; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    for (int i = 6; i < 12; ++i)  // wraps inside capacity 8, then grows
        q.emplace_back(i);
    std::vector<int> iterated(q.begin(), q.end());
    const ArenaRing<int> copy(q);
    ArenaRing<int> assigned;
    assigned.push_back(-1);
    assigned = q;
    EXPECT_EQ(iterated, drain(q));
    EXPECT_EQ(std::vector<int>(copy.begin(), copy.end()), iterated);
    EXPECT_EQ(drain(assigned), iterated);
}

TEST(ArenaRing, SerializesToTheBytesOfADeque)
{
    ArenaRing<Flit> ring;
    ring.reserve(4);
    std::deque<Flit> deque;
    for (int i = 0; i < 7; ++i) {
        Flit f;
        f.packet = 100 + static_cast<PacketId>(i);
        f.seq = static_cast<std::int16_t>(i);
        ring.push_back(f);
        deque.push_back(f);
        if (i % 3 == 0) {  // keep the ring wrapped
            ring.pop_front();
            deque.pop_front();
        }
    }
    StateSerializer a(SerialMode::kSave);
    a.ioSequence(ring);
    StateSerializer b(SerialMode::kSave);
    b.ioSequence(deque);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.buffer(), b.buffer());

    // And a load refills the ring in the same order.
    ArenaRing<Flit> back;
    StateSerializer load(a.buffer());
    load.ioSequence(back);
    ASSERT_TRUE(load.ok()) << load.error();
    ASSERT_EQ(back.size(), deque.size());
    size_t i = 0;
    for (const Flit &f : back)
        EXPECT_EQ(f.packet, deque[i++].packet);
}

TEST(ArenaRing, NullArenaUsesHeapAndPooledRingLeaksNothing)
{
    PoolArena arena;
    {
        ArenaRing<Flit> heap;  // default allocator: no arena at all
        for (int i = 0; i < 100; ++i)
            heap.push_back(Flit{});
        ArenaRing<Flit> moved(std::move(heap));
        EXPECT_EQ(moved.size(), 100u);
        EXPECT_EQ(arena.stats().allocCalls, 0u);

        ArenaRing<Flit> pooled{ArenaAllocator<Flit>(&arena)};
        for (int i = 0; i < 100; ++i)
            pooled.push_back(Flit{});
        const std::uint64_t pooledAllocs = arena.stats().allocCalls;
        EXPECT_GT(pooledAllocs, 0u);
        ArenaRing<Flit> copy(pooled);  // a copy draws from the same arena
        EXPECT_GT(arena.stats().allocCalls, pooledAllocs);
        EXPECT_GT(arena.stats().liveBlocks, 0u);
    }
    EXPECT_EQ(arena.checkTeardown(), 0u);
}

/** The ring's contents by index, front first. */
std::vector<int>
indexed(const ArenaRing<int> &q)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < q.size(); ++i)
        out.push_back(q[i]);
    return out;
}

TEST(ArenaRing, IndexedReadsAcrossWraparoundAndGrowth)
{
    ArenaRing<int> q;
    q.reserve(4);
    std::deque<int> model;
    int next = 0;
    // Push two, pop one, so the contents wrap inside capacity 4 and then
    // grow twice while wrapped; every step reads back by index.
    for (int step = 0; step < 12; ++step) {
        q.push_back(next);
        model.push_back(next++);
        q.push_back(next);
        model.push_back(next++);
        q.pop_front();
        model.pop_front();
        ASSERT_EQ(indexed(q), std::vector<int>(model.begin(), model.end()))
            << "step " << step;
    }
    EXPECT_EQ(q.capacity(), 16u);
    q[3] = -7;  // writes land where reads find them
    EXPECT_EQ(q[3], -7);
    EXPECT_EQ(std::vector<int>(q.begin(), q.end())[3], -7);
}

TEST(ArenaRing, EraseAndInsertAtAnyPositionKeepFifoOrder)
{
    // Front, middle and back positions on a wrapped ring, against a
    // deque: the shorter side moves, the order of the rest stays.
    ArenaRing<int> q;
    q.reserve(8);
    std::deque<int> model;
    for (int i = 0; i < 5; ++i) {
        q.push_back(i);
        model.push_back(i);
    }
    for (int i = 0; i < 3; ++i) {  // head at slot 3: contents wrap
        q.pop_front();
        model.pop_front();
        q.push_back(5 + i);
        model.push_back(5 + i);
    }
    auto same = [&] {
        return indexed(q) == std::vector<int>(model.begin(), model.end()) &&
               drainCopy(q) == std::vector<int>(model.begin(), model.end());
    };
    ASSERT_TRUE(same());
    for (int where = 0; where < 3; ++where) {  // front, middle, back
        const std::size_t pos =
            where == 0 ? 0 : where == 1 ? model.size() / 2 : model.size() - 1;
        q.erase(pos);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
        ASSERT_TRUE(same()) << "erase at " << pos;
    }
    ASSERT_EQ(model.size(), 2u);
    int v = 100;
    for (std::size_t pos : {0, 1, 4, 2, 5, 0, 4}) {  // the last one grows it
        q.insert(pos, v);
        model.insert(model.begin() + static_cast<std::ptrdiff_t>(pos), v++);
        ASSERT_TRUE(same()) << "insert at " << pos;
    }
    EXPECT_EQ(q.capacity(), 16u);
    while (!model.empty()) {
        const std::size_t pos = model.size() / 2;
        q.erase(pos);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
        ASSERT_TRUE(same());
    }
    EXPECT_TRUE(q.empty());
}

TEST(ArenaRing, EmptyAccessTripsDcheck)
{
#ifdef NDEBUG
    GTEST_SKIP() << "NORD_DCHECK compiles out under NDEBUG";
#else
    ArenaRing<int> q;
    EXPECT_DEATH(q.front(), "empty ring");
    EXPECT_DEATH(q.pop_front(), "empty ring");
    q.push_back(1);
    q.pop_front();
    EXPECT_DEATH(q.pop_front(), "empty ring");
#endif
}

}  // namespace
}  // namespace nord
