/**
 * @file
 * Pool arena for flit/packet buffers.
 *
 * Replaces per-flit heap churn on the hottest simulation path (VC buffer,
 * link-queue and NI-queue storage) with size-classed free lists carved out
 * of geometrically growing slabs. Design points:
 *
 *  - 16-byte size classes up to kMaxClassBytes; anything larger falls back
 *    to ::operator new (counted, so oversize traffic shows up in stats).
 *  - Every block carries a 16-byte header with a live/free magic, so a
 *    double free or a foreign pointer trips NORD_ASSERT instead of
 *    corrupting a free list.
 *  - Frees push onto the class free list; allocation pops before carving
 *    new slab space, so steady-state simulation reaches a fixed footprint
 *    and then recycles (Stats::reuses tracks this).
 *  - checkTeardown() reports leaked blocks at end of life; the destructor
 *    warns on stderr (src/common/ may use stdio) so a leak in a bench or
 *    tool is loud even without the unit test.
 *
 * ArenaAllocator<T> adapts a PoolArena to the std allocator interface.
 * A default-constructed (nullptr-arena) allocator degrades to plain
 * ::operator new/delete, so components built without a NocSystem (unit
 * tests of one router, NI or link) keep the same container type. One
 * container sits on it: ArenaRing, the FIFO of every queue in the cycle
 * loop (VC buffers, link delay lines, the NI's injection and ejection
 * queues, bypass latch and stage 3) and of the E2E endpoint's buffers,
 * three of which it keeps as sorted tables (indexed access plus an
 * order-keeping insert and erase).
 */

#ifndef NORD_COMMON_ARENA_HH
#define NORD_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/state_annotations.hh"

namespace nord {

/**
 * Size-classed pool allocator with slab backing and free-list reuse.
 * Not thread-safe: one arena belongs to one NocSystem (one kernel
 * thread), like every other per-system object.
 */
class PoolArena
{
  public:
    /** Allocation/footprint counters (diagnostics + test hooks). */
    struct Stats
    {
        std::uint64_t allocCalls = 0;   ///< allocate() calls, any path
        std::uint64_t frees = 0;        ///< deallocate() calls
        std::uint64_t reuses = 0;       ///< allocations served from a free list
        std::uint64_t oversize = 0;     ///< fell back to ::operator new
        std::uint64_t liveBlocks = 0;   ///< currently outstanding blocks
        std::uint64_t liveBytes = 0;    ///< payload bytes outstanding
        std::uint64_t peakLiveBytes = 0;
        std::uint64_t slabBytes = 0;    ///< total slab capacity acquired
    };

    PoolArena() = default;
    ~PoolArena();

    PoolArena(const PoolArena &) = delete;
    PoolArena &operator=(const PoolArena &) = delete;

    /** Allocate @p bytes with alignment <= kAlign. Never returns null. */
    void *allocate(std::size_t bytes);

    /** Return a block obtained from allocate(). Null is a no-op. */
    void deallocate(void *p, std::size_t bytes);

    const Stats &stats() const { return stats_; }

    /**
     * Teardown accounting: returns the number of leaked (still-live)
     * blocks. Call when every container using the arena is gone; the
     * destructor performs the same check and warns on stderr.
     */
    std::uint64_t checkTeardown() const { return stats_.liveBlocks; }

    /** Block alignment guarantee (also the header size). */
    static constexpr std::size_t kAlign = 16;

    /**
     * Largest pooled payload; bigger requests use ::operator new. 8 KiB
     * keeps a 64-flit ring (the deepest NI injection backlog a loaded
     * 8x8 mesh reaches in tens of thousands of cycles) inside the pool.
     */
    static constexpr std::size_t kMaxClassBytes = 8192;

  private:
    struct Header
    {
        std::uint32_t magic;      ///< kMagicLive / kMagicFree
        std::uint32_t sizeClass;  ///< class index, or kOversizeClass
        Header *next;             ///< free-list link while free
    };
    static_assert(sizeof(Header) <= kAlign, "header must fit the alignment");

    static constexpr std::uint32_t kMagicLive = 0x4c697645u;  // "LivE"
    static constexpr std::uint32_t kMagicFree = 0x46726565u;  // "Free"
    static constexpr std::uint32_t kOversizeClass = 0xffffffffu;

    static constexpr std::size_t kNumClasses = kMaxClassBytes / kAlign;
    static constexpr std::size_t kInitialSlabBytes = 16 * 1024;
    static constexpr std::size_t kMaxSlabBytes = 1024 * 1024;

    /** Carve a fresh block for @p cls from the current slab (grow it
        geometrically when exhausted). */
    Header *carve(std::uint32_t cls);

    NORD_STATE_EXCLUDE(cache,
        "slab storage regrows as deserialized containers reallocate")
    std::vector<char *> slabs_;          ///< owned slab storage
    NORD_STATE_EXCLUDE(cache, "bump offset into slabs_.back()")
    std::size_t slabNext_ = 0;           ///< bump offset in slabs_.back()
    NORD_STATE_EXCLUDE(cache, "capacity of slabs_.back()")
    std::size_t slabCap_ = 0;            ///< capacity of slabs_.back()
    NORD_STATE_EXCLUDE(cache, "geometric growth cursor")
    std::size_t nextSlabBytes_ = kInitialSlabBytes;
    NORD_STATE_EXCLUDE(cache,
        "free lists rebuilt by the allocate/deallocate traffic of the "
        "deserialized containers")
    Header *freeLists_[kNumClasses] = {};
    NORD_STATE_EXCLUDE(perf_counter, "footprint diagnostics and test hooks")
    Stats stats_;
};

/**
 * std-compatible allocator over a PoolArena. With arena == nullptr it is
 * a plain global-heap allocator: same type, same container layout, so a
 * component built outside a NocSystem behaves exactly as one inside it.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    static_assert(alignof(T) <= PoolArena::kAlign,
                  "arena alignment too small for T");

    ArenaAllocator() noexcept = default;
    explicit ArenaAllocator(PoolArena *arena) noexcept : arena_(arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : arena_(other.arena())
    {
    }

    T *allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_ != nullptr)
            return static_cast<T *>(arena_->allocate(bytes));
        return static_cast<T *>(::operator new(bytes));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        if (arena_ != nullptr) {
            arena_->deallocate(p, n * sizeof(T));
            return;
        }
        ::operator delete(p);
    }

    PoolArena *arena() const noexcept { return arena_; }

    friend bool operator==(const ArenaAllocator &a,
                           const ArenaAllocator &b) noexcept
    {
        return a.arena_ == b.arena_;
    }
    friend bool operator!=(const ArenaAllocator &a,
                           const ArenaAllocator &b) noexcept
    {
        return !(a == b);
    }

  private:
    PoolArena *arena_ = nullptr;
};

/**
 * Contiguous FIFO ring for every per-cycle queue (VC buffers, link delay
 * lines, NI injection/ejection queues, bypass latch and stage 3, the E2E
 * buffers). Indexed access and an insert or erase at any position, which
 * keep the order of the rest, let it also hold a small sorted table. The
 * owner reserves the queue's bound (or its usual depth) up front; a full
 * ring grows by doubling and never shrinks, so a queue that reached its
 * working size allocates nothing more. Popping the last element rewinds
 * the ring to slot 0, so a queue that drains between bursts keeps its
 * elements contiguous. Capacity is exactly what was reserved, not
 * rounded to a power of two: a 5-flit VC buffer takes 5 slots of 128
 * bytes, not 8. Storage comes from an ArenaAllocator (heap when
 * detached). Iteration runs in FIFO order, which is what
 * StateSerializer::ioSequence writes, so a ring serializes to the same
 * bytes as any sequence holding the same elements.
 */
template <typename T>
class ArenaRing
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ArenaRing moves elements with plain copies");

  public:
    using value_type = T;

    /** FIFO-order iterator (oldest first). */
    template <typename Ring, typename Ref>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = Ref;
        using pointer = std::remove_reference_t<Ref> *;

        Iter() = default;
        Iter(Ring *ring, std::size_t i) : ring_(ring), i_(i) {}
        Ref operator*() const { return ring_->at(i_); }
        pointer operator->() const { return &ring_->at(i_); }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        Iter operator++(int)
        {
            Iter old = *this;
            ++i_;
            return old;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        Ring *ring_ = nullptr;
        std::size_t i_ = 0;
    };
    using iterator = Iter<ArenaRing, T &>;
    using const_iterator = Iter<const ArenaRing, const T &>;

    explicit ArenaRing(const ArenaAllocator<T> &alloc = {}) noexcept
        : alloc_(alloc)
    {
    }

    /** Same allocator, same capacity, same elements (packed from 0). */
    ArenaRing(const ArenaRing &other) : alloc_(other.alloc_)
    {
        if (other.cap_ != 0) {
            buf_ = alloc_.allocate(other.cap_);
            cap_ = other.cap_;
        }
        for (const T &v : other)
            buf_[size_++] = v;
    }

    ArenaRing(ArenaRing &&other) noexcept
        : alloc_(other.alloc_), buf_(other.buf_), cap_(other.cap_),
          head_(other.head_), size_(other.size_)
    {
        other.buf_ = nullptr;
        other.cap_ = other.head_ = other.size_ = 0;
    }

    /** Keeps this ring's allocator and storage; copies the elements. */
    ArenaRing &operator=(const ArenaRing &other)
    {
        if (this != &other) {
            clear();
            reserve(other.size_);
            for (const T &v : other)
                push_back(v);
        }
        return *this;
    }

    ~ArenaRing()
    {
        if (buf_ != nullptr)
            alloc_.deallocate(buf_, cap_);
    }

    /** Grow the capacity to at least @p n. */
    void reserve(std::size_t n)
    {
        if (n > cap_)
            regrow(n);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    T &front()
    {
        NORD_DCHECK(size_ != 0, "front() of an empty ring");
        return buf_[head_];
    }
    const T &front() const
    {
        NORD_DCHECK(size_ != 0, "front() of an empty ring");
        return buf_[head_];
    }
    T &back()
    {
        NORD_DCHECK(size_ != 0, "back() of an empty ring");
        return at(size_ - 1);
    }
    const T &back() const
    {
        NORD_DCHECK(size_ != 0, "back() of an empty ring");
        return at(size_ - 1);
    }

    void push_back(const T &v)
    {
        if (size_ == cap_)
            regrow(cap_ == 0 ? 1 : cap_ * 2);
        buf_[wrap(head_ + size_)] = v;
        ++size_;
    }

    template <typename... Args>
    T &emplace_back(Args &&...args)
    {
        push_back(T{std::forward<Args>(args)...});
        return back();
    }

    void pop_front()
    {
        NORD_DCHECK(size_ != 0, "pop_front() of an empty ring");
        if (--size_ == 0)
            head_ = 0;
        else if (++head_ == cap_)
            head_ = 0;
    }

    /** Element @p i in FIFO order (0 = front). */
    T &operator[](std::size_t i)
    {
        NORD_DCHECK(i < size_, "ring index %zu past size %zu", i, size_);
        return at(i);
    }
    const T &operator[](std::size_t i) const
    {
        NORD_DCHECK(i < size_, "ring index %zu past size %zu", i, size_);
        return at(i);
    }

    /**
     * Insert @p v at position @p pos (0 = front, size() = back), keeping
     * the order of the rest. The shorter side moves over by one slot.
     */
    void insert(std::size_t pos, const T &v)
    {
        NORD_DCHECK(pos <= size_, "ring insert at %zu past size %zu", pos,
                    size_);
        const T copy = v;  // v may live in the ring
        if (size_ == cap_)
            regrow(cap_ == 0 ? 1 : cap_ * 2);
        if (pos < size_ / 2) {
            head_ = head_ == 0 ? cap_ - 1 : head_ - 1;
            ++size_;
            for (std::size_t i = 0; i < pos; ++i)
                at(i) = at(i + 1);
        } else {
            ++size_;
            for (std::size_t i = size_ - 1; i > pos; --i)
                at(i) = at(i - 1);
        }
        at(pos) = copy;
    }

    /**
     * Remove the element at position @p pos, keeping the order of the
     * rest. The shorter side moves over by one slot.
     */
    void erase(std::size_t pos)
    {
        NORD_DCHECK(pos < size_, "ring erase at %zu past size %zu", pos,
                    size_);
        if (pos < size_ / 2) {
            for (std::size_t i = pos; i > 0; --i)
                at(i) = at(i - 1);
            pop_front();
        } else {
            for (std::size_t i = pos; i + 1 < size_; ++i)
                at(i) = at(i + 1);
            if (--size_ == 0)
                head_ = 0;
        }
    }

    /** Drop every element; the storage stays. */
    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Slot of position @p i < 2 * cap_ (compare-and-subtract, no %). */
    std::size_t wrap(std::size_t i) const { return i < cap_ ? i : i - cap_; }

    /** Element @p i in FIFO order, unchecked. */
    T &at(std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &at(std::size_t i) const { return buf_[wrap(head_ + i)]; }

    /** Move the elements into fresh storage of @p cap slots. */
    void regrow(std::size_t cap)
    {
        T *fresh = alloc_.allocate(cap);
        for (std::size_t i = 0; i < size_; ++i)
            fresh[i] = at(i);
        if (buf_ != nullptr)
            alloc_.deallocate(buf_, cap_);
        buf_ = fresh;
        cap_ = cap;
        head_ = 0;
    }

    ArenaAllocator<T> alloc_;
    T *buf_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;  ///< slot of the front element
    std::size_t size_ = 0;
};

}  // namespace nord

#endif  // NORD_COMMON_ARENA_HH
