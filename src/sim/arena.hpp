/**
 * @file
 * Pooled storage for hot-path objects.
 *
 * Three building blocks keep the simulator's steady state off the
 * global heap:
 *
 *  - Arena<T>: a slab allocator with a free list.  Objects are
 *    constructed into fixed-size slabs (one malloc per kSlabObjects
 *    objects) and destroyed objects recycle their slot, so churning
 *    va_blocks through create/destroy cycles settles into zero heap
 *    traffic once the high-water mark is reached.
 *
 *  - SmallVec<T, N>: a vector with N elements of inline storage that
 *    only touches the heap past that capacity.  Used for bookkeeping
 *    whose size is almost always tiny and bounded by configuration
 *    (copy-engine timelines, observer fan-out lists, coalescing
 *    tails), where std::vector's first push_back would otherwise be
 *    a guaranteed allocation per constructed driver.
 *
 *  - Pool<T, kLog>: objects addressed by a 32-bit index, for records
 *    that other records name by index (the backing store's payloads
 *    and lines, the Auditor's count planes).  Storage grows a fixed
 *    chunk at a time and never moves, and freed indices are reused
 *    first.
 *
 * No container is thread-safe; all live strictly inside
 * single-threaded simulation state (the --jobs contract in
 * docs/performance.md: parallelism is process-wide sweeps over
 * independent simulations, never sharing within one).
 */

#ifndef UVMD_SIM_ARENA_HPP
#define UVMD_SIM_ARENA_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace uvmd::sim {

/**
 * Slab allocator for objects of one type.
 *
 * create() placement-constructs into a recycled slot when one is
 * free, else into the next slot of the current slab (allocating a
 * new slab only when all are full).  destroy() runs the destructor
 * and pushes the slot onto the free list.  Slab memory is released
 * only when the Arena itself dies, so pointer identity is stable for
 * the lifetime of the arena — the property VaSpace's dense block
 * index relies on.
 */
template <typename T>
class Arena
{
  public:
    /** Objects per slab: large enough to amortize the slab malloc,
     *  small enough that tiny simulations stay tiny. */
    static constexpr std::size_t kSlabObjects = 64;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        // Destroying a non-empty arena is legal only for trivially
        // destructible T (VaBlock-style plain state); arenas of
        // nontrivial T must destroy() every object first.  Free-list
        // membership is not tracked per slot, so destructors cannot
        // be replayed here.
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena<T> requires trivially destructible T "
                      "(slots cannot be re-destroyed at teardown)");
    }

    template <typename... Args>
    T *
    create(Args &&...args)
    {
        Slot *slot;
        if (free_) {
            slot = free_;
            free_ = slot->next;
        } else {
            if (next_in_slab_ == kSlabObjects) {
                slabs_.push_back(
                    std::make_unique<Slot[]>(kSlabObjects));
                next_in_slab_ = 0;
            }
            slot = &slabs_.back()[next_in_slab_++];
        }
        ++live_;
        return ::new (static_cast<void *>(slot->storage))
            T(std::forward<Args>(args)...);
    }

    void
    destroy(T *obj)
    {
        obj->~T();
        Slot *slot = reinterpret_cast<Slot *>(obj);
        slot->next = free_;
        free_ = slot;
        --live_;
    }

    /** Objects currently alive. */
    std::size_t liveCount() const { return live_; }

    /** Slabs allocated so far (monotonic: slabs are never freed). */
    std::size_t slabCount() const { return slabs_.size(); }

    /** Total slots ever carved out of slabs (the high-water mark of
     *  concurrently-live objects, rounded up to slab granularity). */
    std::size_t
    capacity() const
    {
        if (slabs_.empty())
            return 0;
        return (slabs_.size() - 1) * kSlabObjects + next_in_slab_;
    }

  private:
    union Slot {
        Slot *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    Slot *free_ = nullptr;
    std::size_t next_in_slab_ = kSlabObjects;
    std::size_t live_ = 0;
};

/**
 * A vector with inline storage for the first N elements.
 *
 * Implements the subset of std::vector the hot paths use; spills to
 * the heap (with geometric growth) only past N elements, so the
 * common configurations never allocate.
 */
template <typename T, std::size_t N>
class SmallVec
{
  public:
    SmallVec() = default;

    SmallVec(const SmallVec &other) { appendAll(other); }

    SmallVec &
    operator=(const SmallVec &other)
    {
        if (this != &other) {
            clear();
            appendAll(other);
        }
        return *this;
    }

    SmallVec(SmallVec &&other) noexcept(
        std::is_nothrow_move_constructible_v<T>)
    {
        moveFrom(std::move(other));
    }

    SmallVec &
    operator=(SmallVec &&other) noexcept(
        std::is_nothrow_move_constructible_v<T>)
    {
        if (this != &other) {
            clear();
            releaseHeap();
            moveFrom(std::move(other));
        }
        return *this;
    }

    ~SmallVec()
    {
        clear();
        releaseHeap();
    }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    /** True while the elements still sit in the inline buffer. */
    bool inlineStorage() const
    {
        return data_ == reinterpret_cast<const T *>(inline_);
    }

    void
    push_back(const T &v)
    {
        emplace_back(v);
    }

    void
    push_back(T &&v)
    {
        emplace_back(std::move(v));
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        T *slot = ::new (static_cast<void *>(data_ + size_))
            T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_back()
    {
        data_[--size_].~T();
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            data_[i].~T();
        size_ = 0;
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    /** Replace the contents with @p n copies of @p v. */
    void
    assign(std::size_t n, const T &v)
    {
        clear();
        reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            emplace_back(v);
    }

    void
    resize(std::size_t n, const T &v = T{})
    {
        if (n < size_) {
            while (size_ > n)
                pop_back();
            return;
        }
        reserve(n);
        while (size_ < n)
            emplace_back(v);
    }

  private:
    void
    grow(std::size_t new_cap)
    {
        if (new_cap < size_ + 1)
            new_cap = size_ + 1;
        T *fresh = static_cast<T *>(::operator new(
            new_cap * sizeof(T), std::align_val_t{alignof(T)}));
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(fresh + i))
                T(std::move(data_[i]));
            data_[i].~T();
        }
        releaseHeap();
        data_ = fresh;
        cap_ = new_cap;
    }

    void
    releaseHeap()
    {
        if (!inlineStorage()) {
            ::operator delete(static_cast<void *>(data_),
                              std::align_val_t{alignof(T)});
            data_ = reinterpret_cast<T *>(inline_);
            cap_ = N;
        }
    }

    void
    appendAll(const SmallVec &other)
    {
        reserve(other.size_);
        for (std::size_t i = 0; i < other.size_; ++i)
            emplace_back(other.data_[i]);
    }

    void
    moveFrom(SmallVec &&other)
    {
        if (!other.inlineStorage()) {
            // Steal the heap buffer outright.
            data_ = other.data_;
            cap_ = other.cap_;
            size_ = other.size_;
            other.data_ = reinterpret_cast<T *>(other.inline_);
            other.cap_ = N;
            other.size_ = 0;
            return;
        }
        reserve(other.size_);
        for (std::size_t i = 0; i < other.size_; ++i)
            emplace_back(std::move(other.data_[i]));
        other.clear();
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *data_ = reinterpret_cast<T *>(inline_);
    std::size_t size_ = 0;
    std::size_t cap_ = N;
};

/**
 * Objects addressed by 32-bit index and stored in chunks of 2^kLog,
 * so growth adds a chunk and never moves an object (a reference stays
 * valid across alloc); freed indices are reused before the pool grows.
 * A chunk is default-initialized, and release() does not destroy its
 * object: the caller initializes what alloc() returns.
 */
template <typename T, unsigned kLog>
class Pool
{
  public:
    T &operator[](std::uint32_t i)
    {
        return (*chunks_[i >> kLog])[i & kMask];
    }
    const T &operator[](std::uint32_t i) const
    {
        return (*chunks_[i >> kLog])[i & kMask];
    }

    /** An index whose object the caller must initialize. */
    std::uint32_t
    alloc()
    {
        if (!free_.empty()) {
            const std::uint32_t i = free_.back();
            free_.pop_back();
            return i;
        }
        if ((size_ & kMask) == 0)
            chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
        return size_++;
    }

    void release(std::uint32_t i) { free_.push_back(i); }

  private:
    static constexpr std::uint32_t kMask = (1u << kLog) - 1;
    using Chunk = std::array<T, std::size_t{1} << kLog>;

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_ARENA_HPP
