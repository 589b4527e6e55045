/**
 * @file
 * Helpers for runtime tests that drive a manual EpochClock: sweeps,
 * EMC-policy epochs and elastic epochs happen exactly when a test
 * advances the clock, never on a wall-clock deadline.
 */

#ifndef HALO_TESTS_RUNTIME_MANUAL_CLOCK_HH
#define HALO_TESTS_RUNTIME_MANUAL_CLOCK_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "runtime/epoch_clock.hh"

namespace halo::test {

/** Wait for another thread's progress. The bound is hang protection
 *  only; no assertion depends on how long the wait takes. */
inline bool
waitFor(const std::function<bool()> &pred, int seconds = 120)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(seconds);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Advance @p clock by @p micros, then wait until @p count (a
 *  published sweep or epoch counter) has grown by one. */
inline bool
tick(EpochClock &clock, std::uint64_t micros,
     const std::function<std::uint64_t()> &count)
{
    const std::uint64_t before = count();
    clock.advance(micros);
    return waitFor([&] { return count() > before; });
}

} // namespace halo::test

#endif // HALO_TESTS_RUNTIME_MANUAL_CLOCK_HH
