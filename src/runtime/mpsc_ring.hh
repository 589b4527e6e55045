/**
 * @file
 * Fixed-capacity lock-free multi-producer/single-consumer ring.
 *
 * The upcall fabric of the decoupled slow path: every worker thread is
 * a producer enqueueing classify-miss requests, the single
 * revalidator thread is the consumer. Contrast with SpscRing (one
 * producer per ring): here all workers share one ring so the
 * revalidator drains a single queue in arrival order.
 *
 * Protocol (Vyukov bounded MPMC queue, used MPSC):
 *  - Every cell carries its own sequence number. A cell is writable
 *    when seq == tail, readable when seq == head + 1 (mod 2^64 with
 *    the lap offset folded in).
 *  - Producers claim a cell by CAS on `tail`; the winning producer
 *    fills the cell and publishes it with a release store of seq =
 *    tail + 1. Losers retry on the next tail. A producer that finds a
 *    cell still occupied by an unconsumed lap reports "full"
 *    immediately — enqueue never blocks and never spins unboundedly;
 *    the caller counts the drop.
 *  - The single consumer reads cells in head order, waiting for each
 *    cell's publish (seq check), then releases it for the next lap
 *    with seq = head + capacity.
 *
 * Dropped requests are the design's safety valve: a revalidator that
 * cannot keep up costs re-sent upcalls (the flow stays on the slow
 * path a little longer), never data-path stalls.
 */

#ifndef HALO_RUNTIME_MPSC_RING_HH
#define HALO_RUNTIME_MPSC_RING_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace halo {

template <typename T>
class MpscRing
{
  public:
    /** @param capacity Desired slot count; rounded up to a power of
     *                  two (minimum 2). */
    explicit MpscRing(std::size_t capacity)
        : mask_(nextPowerOfTwo(std::max<std::size_t>(capacity, 2)) - 1),
          cells_(std::make_unique<Cell[]>(mask_ + 1))
    {
        for (std::uint64_t i = 0; i <= mask_; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Any producer: enqueue a copy of @p item; false when full (the
     *  caller accounts the drop). Lock-free, never blocks. */
    bool
    tryPush(const T &item)
    {
        std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[tail & mask_];
            const std::uint64_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::int64_t diff =
                static_cast<std::int64_t>(seq) -
                static_cast<std::int64_t>(tail);
            if (diff == 0) {
                // Cell is free this lap; try to claim it.
                if (tail_.compare_exchange_weak(
                        tail, tail + 1, std::memory_order_relaxed))
                {
                    cell.item = item;
                    cell.seq.store(tail + 1,
                                   std::memory_order_release);
                    return true;
                }
                // CAS failed: `tail` was reloaded, retry there.
            } else if (diff < 0) {
                // Previous lap not consumed yet: ring is full.
                return false;
            } else {
                // Another producer advanced past us; chase the tail.
                tail = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /** The single consumer: move one item out; false when empty. */
    bool
    tryPop(T &out)
    {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        Cell &cell = cells_[head & mask_];
        const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
        if (static_cast<std::int64_t>(seq) -
                static_cast<std::int64_t>(head + 1) < 0)
            return false; // next cell not published yet
        out = std::move(cell.item);
        cell.seq.store(head + capacity(), std::memory_order_release);
        head_.store(head + 1, std::memory_order_relaxed);
        return true;
    }

    /** The single consumer: move up to @p max items into @p out.
     *  @return number dequeued; never blocks. */
    std::size_t
    popBatch(T *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && tryPop(out[n]))
            ++n;
        return n;
    }

    /** Any thread: approximate occupancy (exact once producers and
     *  consumer quiesce). */
    std::size_t
    size() const
    {
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        return tail > head ? static_cast<std::size_t>(tail - head) : 0;
    }

    bool empty() const { return size() == 0; }

  private:
    struct Cell
    {
        std::atomic<std::uint64_t> seq{0};
        T item{};
    };

    const std::uint64_t mask_;
    std::unique_ptr<Cell[]> cells_;

    /// Producer-shared line: the CAS-claimed write index.
    alignas(cacheLineBytes) std::atomic<std::uint64_t> tail_{0};
    /// Consumer-owned line: the read index.
    alignas(cacheLineBytes) std::atomic<std::uint64_t> head_{0};
    /// Keep the consumer line exclusive (nothing packed after it).
    alignas(cacheLineBytes) std::uint8_t pad_[1]{};
};

} // namespace halo

#endif // HALO_RUNTIME_MPSC_RING_HH
