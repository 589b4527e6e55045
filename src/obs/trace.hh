/**
 * @file
 * Per-thread fixed-capacity trace rings and the Chrome trace drain.
 *
 * HALO_STAGE scopes (obs/stage.hh) append one 16-byte TraceEvent
 * (start nanos, duration, stage id) per closed span to the
 * TraceRecorder installed on the current thread. The ring is
 * preallocated and wraps — recording never allocates, never blocks, and
 * keeps the newest events — so tracing a billion-packet run costs the
 * same memory as tracing one batch. After the run (post-join) the rings
 * from all threads are drained into one Chrome trace_event JSON
 * (writeChromeTrace) that chrome://tracing or https://ui.perfetto.dev
 * renders as a per-worker timeline.
 *
 * Threading contract: a TraceRecorder is single-writer. Install it on
 * exactly one thread (installStageRecorders); drain it only after that
 * thread has quiesced (joined).
 */

#ifndef HALO_OBS_TRACE_HH
#define HALO_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace halo::obs {

/** One closed span; 16 bytes so a 64 Ki-event ring is 1 MiB. */
struct TraceEvent
{
    std::uint64_t startNanos; ///< steady_clock, process-wide epoch
    std::uint32_t durNanos;   ///< saturated at ~4.29 s
    std::uint16_t nameId;     ///< stage id (obs/stage.hh)
    std::uint16_t reserved = 0;
};

static_assert(sizeof(TraceEvent) == 16, "events must stay 16 bytes");

class TraceRecorder
{
  public:
    /** @param capacity Event slots; rounded up to a power of two.
     *         The ring keeps the newest @p capacity events. */
    explicit TraceRecorder(std::size_t capacity = 1 << 16);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Owner thread only. */
    void
    record(std::uint16_t name_id, std::uint64_t start_nanos,
           std::uint64_t end_nanos)
    {
        const std::uint64_t dur =
            end_nanos > start_nanos ? end_nanos - start_nanos : 0;
        TraceEvent &e = ring_[written_ & mask_];
        e.startNanos = start_nanos;
        e.durNanos = dur > 0xffffffffull
                         ? 0xffffffffu
                         : static_cast<std::uint32_t>(dur);
        e.nameId = name_id;
        ++written_;
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Events currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return written_ < capacity() ? static_cast<std::size_t>(written_)
                                     : capacity();
    }

    /** Total events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return written_; }

    /** Events lost to ring wraparound (oldest-first). */
    std::uint64_t
    dropped() const
    {
        return written_ > capacity() ? written_ - capacity() : 0;
    }

    /** @p i-th retained event, oldest first. */
    const TraceEvent &
    event(std::size_t i) const
    {
        const std::uint64_t base = dropped();
        return ring_[(base + i) & mask_];
    }

    void
    clear()
    {
        written_ = 0;
    }

    /** Monotonic nanoseconds on the process-wide steady epoch. */
    static std::uint64_t nowNanos();

  private:
    std::vector<TraceEvent> ring_;
    std::uint64_t mask_;
    std::uint64_t written_ = 0;
};

/** One thread's drained ring plus how to label it in the trace UI. */
struct TraceThread
{
    const TraceRecorder *recorder = nullptr;
    std::string label;  ///< e.g. "worker0"
    unsigned tid = 0;   ///< trace-viewer thread id
};

/**
 * Render the rings as Chrome trace_event JSON ("X" complete events,
 * microsecond timestamps, one named thread row per TraceThread).
 * Call after every recording thread has quiesced.
 */
void writeChromeTrace(std::ostream &os,
                      std::span<const TraceThread> threads);

} // namespace halo::obs

#endif // HALO_OBS_TRACE_HH
