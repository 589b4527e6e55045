/**
 * @file
 * Per-bucket seqlock array — the host-execution analog of HALO's
 * hardware lock bit (paper §3.4).
 *
 * The simulated model keeps the table-wide optimistic version-lock line
 * (readers sample it before/after, writers bump it) because that is the
 * software protocol the paper profiles. When a table actually has to
 * serve concurrent host threads — one slow-path writer mutating while
 * data-path readers run lock-free — the global counter would force every
 * reader to retry on every unrelated write. The per-bucket seqlocks
 * below give the same atomicity guarantee at bucket granularity, the
 * MemC3 / Cuckoo++ optimistic-read scheme: writers make a bucket's
 * counter odd around mutations, readers snapshot both candidate
 * counters, copy the data with relaxed atomic word accesses, and retry
 * when either counter changed or was odd.
 *
 * The counters are host-side state (not simulated memory): they change
 * nothing about table layout, reference streams, or any simulated
 * output, exactly as HALO's lock bit lives beside the line rather than
 * in it.
 */

#ifndef HALO_HASH_SEQLOCK_HH
#define HALO_HASH_SEQLOCK_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/logging.hh"

namespace halo {

/** Pause hint for reader retry loops (PAUSE on x86, no-op elsewhere). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * @name Relaxed atomic word accessors.
 *
 * The seqlock protocol needs the data bytes themselves accessed
 * atomically on both sides (a plain memcpy under a seqlock is a data
 * race in the C++ memory model, and a real one under TSan). Every table
 * region in this repository is 8-byte aligned — bucket lines are
 * cache-line aligned, kv slots are 8 + pad8(keyLen) bytes — so whole
 * structures copy as relaxed 64-bit words.
 * Ordering comes from the seqlock's fences, not from these accesses.
 */
/**@{*/
inline std::uint64_t
atomicLoadWord(const std::uint8_t *p)
{
    return __atomic_load_n(reinterpret_cast<const std::uint64_t *>(p),
                           __ATOMIC_RELAXED);
}

inline void
atomicStoreWord(std::uint8_t *p, std::uint64_t v)
{
    __atomic_store_n(reinterpret_cast<std::uint64_t *>(p), v,
                     __ATOMIC_RELAXED);
}

/** Word-wise atomic copy out of a (8-aligned) region; len % 8 == 0. */
inline void
atomicCopyFrom(void *dst, const std::uint8_t *src, std::size_t len)
{
    auto *d = static_cast<std::uint8_t *>(dst);
    for (std::size_t off = 0; off < len; off += 8) {
        const std::uint64_t w = atomicLoadWord(src + off);
        std::memcpy(d + off, &w, 8);
    }
}

/** Word-wise atomic copy into a (8-aligned) region; len % 8 == 0. */
inline void
atomicCopyTo(std::uint8_t *dst, const void *src, std::size_t len)
{
    const auto *s = static_cast<const std::uint8_t *>(src);
    for (std::size_t off = 0; off < len; off += 8) {
        std::uint64_t w;
        std::memcpy(&w, s + off, 8);
        atomicStoreWord(dst + off, w);
    }
}
/**@}*/

/**
 * One seqlock counter per bucket/slot. Single writer, any number of
 * optimistic readers. Empty (never reset()) arrays cost nothing — the
 * tables allocate them only when switched into concurrent mode.
 */
class SeqlockArray
{
  public:
    SeqlockArray() = default;

    /** Allocate @p n counters, all even (unlocked). */
    void
    reset(std::size_t n)
    {
        HALO_ASSERT(n > 0, "seqlock array must not be empty");
        seq_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
        for (std::size_t i = 0; i < n; ++i)
            seq_[i].store(0, std::memory_order_relaxed);
        size_ = n;
    }

    bool enabled() const { return size_ != 0; }
    std::size_t size() const { return size_; }

    /**
     * Sample counter @p i before reading its bucket. An odd return
     * means a write is in flight: the caller must retry (it may copy
     * the data anyway — the validating readRetry() will reject it).
     */
    std::uint32_t
    readBegin(std::size_t i) const
    {
        return seq_[i].load(std::memory_order_acquire);
    }

    /**
     * Validate a read section: true when the snapshot must be
     * discarded (counter moved, or was odd at readBegin). Call after
     * an acquire fence ordering the data loads before this re-check.
     */
    bool
    readRetry(std::size_t i, std::uint32_t begin) const
    {
        return (begin & 1u) != 0 ||
               seq_[i].load(std::memory_order_relaxed) != begin;
    }

    /** Bring counter @p i 's line toward the reader ahead of
     *  readBegin() (bulk probes prefetch every lane's counters before
     *  validating any lane). */
    void
    prefetch(std::size_t i) const
    {
        __builtin_prefetch(&seq_[i], 0, 3);
    }

    /** Make counter @p i odd before mutating its bucket. */
    void
    writeBegin(std::size_t i)
    {
        const std::uint32_t v = seq_[i].load(std::memory_order_relaxed);
        seq_[i].store(v + 1, std::memory_order_relaxed);
        // Order the odd store before the (relaxed) data stores that
        // follow: a reader that observes any of them also observes the
        // odd counter or the closing even one.
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Publish the mutation: counter @p i becomes even again. */
    void
    writeEnd(std::size_t i)
    {
        const std::uint32_t v = seq_[i].load(std::memory_order_relaxed);
        seq_[i].store(v + 1, std::memory_order_release);
    }

  private:
    std::unique_ptr<std::atomic<std::uint32_t>[]> seq_;
    std::size_t size_ = 0;
};

} // namespace halo

#endif // HALO_HASH_SEQLOCK_HH
