/**
 * @file
 * Fixed-capacity lock-free single-producer/single-consumer ring.
 *
 * The runtime's dispatch fabric: the producer (RSS dispatcher) feeds
 * each worker shard through one of these, so no queue ever has more
 * than one writer or one reader and the whole fast path needs no locks
 * and no atomic read-modify-write operations.
 *
 * Protocol (classic DPDK/folly shape):
 *  - `tail` is the producer's monotonically increasing write index,
 *    `head` the consumer's read index; slot = index & (capacity-1).
 *  - The producer publishes filled slots with a release store to
 *    `tail`; the consumer acquires `tail` to observe them. Freed slots
 *    travel the other way through `head`.
 *  - Each side keeps a cached copy of the opposite index and only
 *    re-reads the shared atomic when the cache says full/empty, so the
 *    steady state touches the peer's cache line once per batch, not
 *    once per item.
 *  - Indices and caches live on separate cache lines (alignas) to keep
 *    producer and consumer from false-sharing.
 *
 * Batch enqueue/dequeue amortize the atomic publish over many items;
 * partial acceptance (ring nearly full/empty) returns the count
 * actually transferred and never blocks.
 */

#ifndef HALO_RUNTIME_SPSC_RING_HH
#define HALO_RUNTIME_SPSC_RING_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace halo {

template <typename T>
class SpscRing
{
  public:
    /** @param capacity Desired slot count; rounded up to a power of
     *                  two (minimum 2). */
    explicit SpscRing(std::size_t capacity)
        : mask_(nextPowerOfTwo(std::max<std::size_t>(capacity, 2)) - 1),
          storage_(new std::byte[storageBytes()])
    {
        // The slots are aligned by hand inside a plain allocation. An
        // over-aligned operator new goes through glibc's memalign, which
        // asks for more than the block it hands out, so a freed ring's
        // own hole cannot take the next ring: a runtime rebuilt in a
        // loop then grew the heap by one ring per build, on fresh pages
        // each time. A plain request of the same size reuses its hole.
        void *p = storage_.get();
        std::size_t space = storageBytes();
        slots_ = static_cast<T *>(
            std::align(alignof(T), (mask_ + 1) * sizeof(T), p, space));
        HALO_ASSERT(slots_, "ring storage too small to align");
        std::uninitialized_value_construct_n(slots_, mask_ + 1);
    }

    ~SpscRing() { std::destroy_n(slots_, capacity()); }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Producer: move @p item in; false (item untouched) when full. */
    bool
    tryPush(T &&item)
    {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (freeSlots(tail, 1) == 0)
            return false;
        slots_[tail & mask_] = std::move(item);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    bool
    tryPush(const T &item)
    {
        T copy(item);
        return tryPush(std::move(copy));
    }

    /**
     * Producer: copy as many of @p items in as fit (a prefix).
     * @return number accepted; never blocks.
     */
    std::size_t
    pushBatch(std::span<const T> items)
    {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t n = std::min<std::size_t>(
            items.size(), freeSlots(tail, items.size()));
        for (std::size_t i = 0; i < n; ++i)
            slots_[(tail + i) & mask_] = items[i];
        if (n)
            tail_.store(tail + n, std::memory_order_release);
        return n;
    }

    /** Consumer: move one item out; false when empty. */
    bool
    tryPop(T &out)
    {
        return popBatch(&out, 1) == 1;
    }

    /**
     * Consumer: move up to @p max items into @p out.
     * @return number dequeued; never blocks.
     */
    std::size_t
    popBatch(T *out, std::size_t max)
    {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (tailCache_ - head < max)
            tailCache_ = tail_.load(std::memory_order_acquire);
        const std::size_t n =
            std::min<std::uint64_t>(max, tailCache_ - head);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::move(slots_[(head + i) & mask_]);
        if (n)
            head_.store(head + n, std::memory_order_release);
        return n;
    }

    /** Any thread: approximate occupancy. Exact once the other side
     *  has quiesced (which is how drain uses it). */
    std::size_t
    size() const
    {
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        return tail - head;
    }

    bool empty() const { return size() == 0; }

    /** Any thread: monotone count of items ever accepted (the
     *  producer's publish index). The elastic controller snapshots
     *  this as the drain fence when migrating a bucket away from this
     *  ring's consumer. */
    std::uint64_t pushedCount() const
    {
        return tail_.load(std::memory_order_acquire);
    }

  private:
    std::size_t
    storageBytes() const
    {
        return capacity() * sizeof(T) + alignof(T);
    }

    /** Producer-side free-slot count; refreshes the cached head only
     *  when the cache cannot satisfy @p want slots. */
    std::size_t
    freeSlots(std::uint64_t tail, std::size_t want)
    {
        if (capacity() - (tail - headCache_) < want)
            headCache_ = head_.load(std::memory_order_acquire);
        return capacity() - (tail - headCache_);
    }

    const std::size_t mask_;
    std::unique_ptr<std::byte[]> storage_;
    T *slots_ = nullptr;

    /// Producer-owned line: write index + cached view of head.
    alignas(cacheLineBytes) std::atomic<std::uint64_t> tail_{0};
    std::uint64_t headCache_ = 0;

    /// Consumer-owned line: read index + cached view of tail.
    alignas(cacheLineBytes) std::atomic<std::uint64_t> head_{0};
    std::uint64_t tailCache_ = 0;

    /// Keep the consumer line exclusive (nothing packed after it).
    alignas(cacheLineBytes) std::uint8_t pad_[1]{};
};

} // namespace halo

#endif // HALO_RUNTIME_SPSC_RING_HH
