#include "obs/trace.hh"

#include <algorithm>
#include <chrono>

#include "obs/json.hh"
#include "obs/stage.hh"
#include "sim/logging.hh"

namespace halo::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(nextPowerOfTwo(std::max<std::size_t>(capacity, 2))),
      mask_(ring_.size() - 1)
{
}

std::uint64_t
TraceRecorder::nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
writeChromeTrace(std::ostream &os, std::span<const TraceThread> threads)
{
    // Rebase timestamps to the earliest event so the viewer opens at
    // t=0 rather than at hours of steady-clock uptime.
    std::uint64_t epoch = ~0ull;
    for (const TraceThread &t : threads) {
        if (t.recorder && t.recorder->size())
            epoch = std::min(epoch, t.recorder->event(0).startNanos);
    }
    if (epoch == ~0ull)
        epoch = 0;

    JsonWriter j(os);
    j.beginObject();
    j.key("displayTimeUnit").value("ms");
    j.key("traceEvents").beginArray();
    for (const TraceThread &t : threads) {
        j.beginObject();
        j.kv("name", "thread_name");
        j.kv("ph", "M");
        j.kv("pid", 0);
        j.kv("tid", t.tid);
        j.key("args").beginObject().kv("name", t.label).endObject();
        j.endObject();
        if (!t.recorder)
            continue;
        for (std::size_t i = 0; i < t.recorder->size(); ++i) {
            const TraceEvent &e = t.recorder->event(i);
            j.beginObject();
            j.kv("name", stageName(e.nameId));
            j.kv("ph", "X");
            j.kv("pid", 0);
            j.kv("tid", t.tid);
            // trace_event timestamps are microseconds; keep nanosecond
            // resolution with three decimals.
            j.kv("ts",
                 static_cast<double>(e.startNanos - epoch) / 1e3, 3);
            j.kv("dur", static_cast<double>(e.durNanos) / 1e3, 3);
            j.endObject();
        }
    }
    j.endArray();
    j.endObject();
}

} // namespace halo::obs
