/**
 * @file
 * The runtime's one clock: it schedules every periodic job and is the
 * only place a runtime thread sleeps.
 *
 * The revalidator's sweeps (and through them flow aging), the
 * elastic controller's epochs and its
 * migration waits, and a parked worker all read time from here and
 * block in waitUntil(). A thread that changes what a sleeper waits for
 * (an upcall pushed, a stop or unpark request) calls notify().
 *
 * Production clocks follow std::chrono::steady_clock. A manual clock
 * (tests) starts at 0 µs and moves only when advance() is called,
 * which wakes every waiter, so sweep and epoch boundaries fall
 * exactly where the test puts them, independent of host speed.
 *
 * One mutex and condvar serve all sleepers; notify() wakes them all
 * and each re-checks its own predicate. The clock starts no thread.
 */

#ifndef HALO_RUNTIME_EPOCH_CLOCK_HH
#define HALO_RUNTIME_EPOCH_CLOCK_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>

#include "sim/logging.hh"

namespace halo {

class EpochClock
{
  public:
    enum class Kind { Steady, Manual };

    /// A deadline that never passes: waitUntil() returns on its
    /// predicate alone.
    static constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();

    explicit EpochClock(Kind kind = Kind::Steady)
        : manual_(kind == Kind::Manual),
          origin_(std::chrono::steady_clock::now())
    {
    }

    EpochClock(const EpochClock &) = delete;
    EpochClock &operator=(const EpochClock &) = delete;

    /** Microseconds since construction (manual: since 0). Any
     *  thread. */
    std::uint64_t
    nowMicros() const
    {
        if (manual_)
            return manualNow_.load(std::memory_order_acquire);
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - origin_)
                .count());
    }

    /**
     * Sleep until @p pred holds or the clock reaches @p deadline µs.
     * @p pred runs under the clock's lock and must only read state
     * (atomics); whoever makes it true calls notify() afterwards.
     * @return pred() at wake-up.
     */
    template <typename Pred>
    bool
    waitUntil(std::uint64_t deadline, Pred pred)
    {
        std::unique_lock<std::mutex> lk(mtx_);
        if (manual_ || deadline == never) {
            cv_.wait(lk, [&] { return pred() || nowMicros() >= deadline; });
        } else {
            cv_.wait_until(lk,
                           origin_ + std::chrono::microseconds(deadline),
                           pred);
        }
        return pred();
    }

    /**
     * waitUntil() with @p parked raised meanwhile, so producers can skip
     * notify() while the sleeper is awake (wakeIfParked()). The fence
     * after raising the flag pairs with the producer's: either @p pred
     * sees the producer's change or the producer sees the flag.
     */
    template <typename Pred>
    void
    park(std::atomic<bool> &parked, std::uint64_t deadline, Pred pred)
    {
        parked.store(true, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        waitUntil(deadline, pred);
        parked.store(false, std::memory_order_release);
    }

    /** Producer side of park(), after changing what the sleeper's
     *  predicate reads: one fence and one load; notify() only if the
     *  sleeper is parked. */
    void
    wakeIfParked(const std::atomic<bool> &parked)
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (parked.load(std::memory_order_relaxed))
            notify();
    }

    /** Wake every sleeper to re-check its predicate. Taking the lock
     *  first orders the caller's state change before any sleeper's
     *  predicate check, so no wakeup is lost. */
    void
    notify()
    {
        {
            std::lock_guard<std::mutex> lk(mtx_);
        }
        cv_.notify_all();
    }

    /** Manual clock only: move time forward and wake every sleeper. */
    void
    advance(std::uint64_t micros)
    {
        HALO_ASSERT(manual_, "only a manual clock can be advanced");
        {
            std::lock_guard<std::mutex> lk(mtx_);
            manualNow_.fetch_add(micros, std::memory_order_acq_rel);
        }
        cv_.notify_all();
    }

  private:
    const bool manual_;
    const std::chrono::steady_clock::time_point origin_;
    std::atomic<std::uint64_t> manualNow_{0};
    std::mutex mtx_;
    std::condition_variable cv_;
};

} // namespace halo

#endif // HALO_RUNTIME_EPOCH_CLOCK_HH
