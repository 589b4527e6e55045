#include "obs/perf.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/stage.hh"
#include "sim/logging.hh"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace halo::obs {

namespace {

/** (type, config) per PerfEvent, in opening order. Values mirror
 *  linux/perf_event.h so the table also exists on non-Linux builds
 *  (where the default OpenFn fails with ENOSYS anyway). */
struct EventSpec
{
    const char *name;
    std::uint32_t type;
    std::uint64_t config;
};

constexpr std::uint32_t kTypeHardware = 0;  // PERF_TYPE_HARDWARE
constexpr std::uint32_t kTypeHwCache = 3;   // PERF_TYPE_HW_CACHE

constexpr std::uint64_t
hwCacheConfig(std::uint64_t cache, std::uint64_t op,
              std::uint64_t result)
{
    return cache | (op << 8) | (result << 16);
}

constexpr EventSpec kEvents[numPerfEvents] = {
    {"cycles", kTypeHardware, 0},       // PERF_COUNT_HW_CPU_CYCLES
    {"instructions", kTypeHardware, 1}, // PERF_COUNT_HW_INSTRUCTIONS
    // PERF_COUNT_HW_CACHE_LL / READ / MISS
    {"llc_load_misses", kTypeHwCache, hwCacheConfig(2, 0, 1)},
    // PERF_COUNT_HW_CACHE_DTLB / READ / MISS
    {"dtlb_load_misses", kTypeHwCache, hwCacheConfig(3, 0, 1)},
    {"branch_misses", kTypeHardware, 5}, // PERF_COUNT_HW_BRANCH_MISSES
};

int
defaultOpen(std::uint32_t type, std::uint64_t config, int group_fd)
{
#if defined(__linux__)
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = group_fd < 0 ? 1 : 0; // leader starts the group
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = ::syscall(__NR_perf_event_open, &attr, 0, -1,
                              group_fd, 0ul);
    if (fd < 0)
        return -errno;
    return static_cast<int>(fd);
#else
    (void)type;
    (void)config;
    (void)group_fd;
    return -ENOSYS;
#endif
}

} // namespace

const char *
perfEventName(unsigned event)
{
    HALO_ASSERT(event < numPerfEvents, "perf event index out of range");
    return kEvents[event].name;
}

std::uint64_t
perfTscNow()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

std::array<std::uint64_t, numPerfEvents>
perfScaledDelta(const PerfGroupReading &before,
                const PerfGroupReading &after)
{
    std::array<std::uint64_t, numPerfEvents> out{};
    if (!before.hwValid || !after.hwValid)
        return out;
    const std::uint64_t enabled =
        after.timeEnabled - before.timeEnabled;
    const std::uint64_t running =
        after.timeRunning - before.timeRunning;
    if (running == 0)
        return out;
    const double scale =
        static_cast<double>(enabled) / static_cast<double>(running);
    for (unsigned e = 0; e < numPerfEvents; ++e) {
        const std::uint64_t delta = after.raw[e] - before.raw[e];
        out[e] = static_cast<std::uint64_t>(
            static_cast<double>(delta) * scale + 0.5);
    }
    return out;
}

PerfCounterGroup::PerfCounterGroup(OpenFn open_fn)
{
    fds_.fill(-1);
    if (!open_fn)
        open_fn = defaultOpen;
    for (unsigned e = 0; e < numPerfEvents; ++e) {
        const int group_fd = e == 0 ? -1 : fds_[0];
        const int fd =
            open_fn(kEvents[e].type, kEvents[e].config, group_fd);
        if (fd < 0) {
            // All-or-nothing: a partial group would silently skew
            // cross-event ratios, so one refusal degrades the lot.
            degradedErrno_ = -fd;
            for (unsigned c = 0; c < e; ++c) {
#if defined(__linux__)
                ::close(fds_[c]);
#endif
                fds_[c] = -1;
            }
            return;
        }
        fds_[e] = fd;
    }
#if defined(__linux__)
    // Reset-and-start the whole group in one ioctl pair on the leader.
    ::ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ::ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#endif
    degraded_ = false;
}

PerfCounterGroup::~PerfCounterGroup()
{
#if defined(__linux__)
    for (int fd : fds_)
        if (fd >= 0)
            ::close(fd);
#endif
}

PerfGroupReading
PerfCounterGroup::read() const
{
    PerfGroupReading r;
    if (degraded_)
        return r;
#if defined(__linux__)
    // PERF_FORMAT_GROUP layout:
    //   u64 nr; u64 time_enabled; u64 time_running; u64 values[nr];
    std::uint64_t buf[3 + numPerfEvents];
    const ssize_t n = ::read(fds_[0], buf, sizeof(buf));
    if (n < static_cast<ssize_t>(sizeof(buf)))
        return r;
    HALO_ASSERT(buf[0] == numPerfEvents, "perf group size mismatch");
    r.timeEnabled = buf[1];
    r.timeRunning = buf[2];
    for (unsigned e = 0; e < numPerfEvents; ++e)
        r.raw[e] = buf[3 + e];
    r.hwValid = true;
#endif
    return r;
}

double
PerfStageTotals::estimatedEvents(unsigned event) const
{
    HALO_ASSERT(event < numPerfEvents, "perf event index out of range");
    if (sampledEntries == 0)
        return 0.0;
    return static_cast<double>(events[event]) *
           static_cast<double>(entries) /
           static_cast<double>(sampledEntries);
}

PerfRecorder::PerfRecorder(unsigned sample_shift,
                           PerfCounterGroup::OpenFn open_fn)
    : openFn_(std::move(open_fn)),
      sampleShift_(sample_shift),
      sampleMask_((std::uint64_t(1) << sample_shift) - 1)
{
}

void
PerfRecorder::openThisThread()
{
    if (group_)
        return;
    group_ = std::make_unique<PerfCounterGroup>(openFn_);
    degradedErrno_.store(group_->degradedErrno(),
                         std::memory_order_relaxed);
    degraded_.store(group_->degraded(), std::memory_order_relaxed);
}

bool
PerfRecorder::shouldSample(std::uint16_t stage) const
{
    if (degraded_.load(std::memory_order_relaxed))
        return false;
    HALO_ASSERT(stage < numStages, "perf stage id out of range");
    // Entry 0 samples, so even a short run gets one group read.
    return (stages_[stage].entries.load(std::memory_order_relaxed) &
            sampleMask_) == 0;
}

PerfGroupReading
PerfRecorder::readGroup() const
{
    return group_ ? group_->read() : PerfGroupReading{};
}

void
PerfRecorder::accumulate(std::uint16_t stage, std::uint64_t tsc_delta,
                         bool sampled, const PerfGroupReading &before)
{
    HALO_ASSERT(stage < numStages, "perf stage id out of range");
    StageTotals &t = stages_[stage];
    t.entries.fetch_add(1, std::memory_order_relaxed);
    t.tscCycles.fetch_add(tsc_delta, std::memory_order_relaxed);
    if (!sampled)
        return;
    const PerfGroupReading after = readGroup();
    const auto delta = perfScaledDelta(before, after);
    t.sampledEntries.fetch_add(1, std::memory_order_relaxed);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        t.events[e].fetch_add(delta[e], std::memory_order_relaxed);
}

void
PerfRecorder::addSample(
    std::uint16_t stage, std::uint64_t tsc_delta,
    const std::array<std::uint64_t, numPerfEvents> *events)
{
    HALO_ASSERT(stage < numStages, "perf stage id out of range");
    StageTotals &t = stages_[stage];
    t.entries.fetch_add(1, std::memory_order_relaxed);
    t.tscCycles.fetch_add(tsc_delta, std::memory_order_relaxed);
    if (!events)
        return;
    t.sampledEntries.fetch_add(1, std::memory_order_relaxed);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        t.events[e].fetch_add((*events)[e],
                              std::memory_order_relaxed);
}

PerfStageTotals
PerfRecorder::stage(std::uint16_t id) const
{
    HALO_ASSERT(id < numStages, "perf stage id out of range");
    const StageTotals &t = stages_[id];
    PerfStageTotals out;
    out.stage = stageName(id);
    out.entries = t.entries.load(std::memory_order_relaxed);
    out.tscCycles = t.tscCycles.load(std::memory_order_relaxed);
    out.sampledEntries =
        t.sampledEntries.load(std::memory_order_relaxed);
    for (unsigned e = 0; e < numPerfEvents; ++e)
        out.events[e] = t.events[e].load(std::memory_order_relaxed);
    return out;
}

std::vector<PerfStageTotals>
perfSnapshotStages(const PerfRecorder &rec)
{
    std::vector<PerfStageTotals> out;
    for (std::size_t id = 0; id < numStages; ++id) {
        PerfStageTotals t = rec.stage(static_cast<std::uint16_t>(id));
        if (t.entries > 0)
            out.push_back(std::move(t));
    }
    std::sort(out.begin(), out.end(),
              [](const PerfStageTotals &a, const PerfStageTotals &b) {
                  return a.stage < b.stage;
              });
    return out;
}

void
perfMergeStages(std::vector<PerfStageTotals> &into,
                const std::vector<PerfStageTotals> &from)
{
    for (const PerfStageTotals &f : from) {
        auto it = std::find_if(into.begin(), into.end(),
                               [&](const PerfStageTotals &t) {
                                   return t.stage == f.stage;
                               });
        if (it == into.end()) {
            into.push_back(f);
            continue;
        }
        it->entries += f.entries;
        it->tscCycles += f.tscCycles;
        it->sampledEntries += f.sampledEntries;
        for (unsigned e = 0; e < numPerfEvents; ++e)
            it->events[e] += f.events[e];
    }
    std::sort(into.begin(), into.end(),
              [](const PerfStageTotals &a, const PerfStageTotals &b) {
                  return a.stage < b.stage;
              });
}

} // namespace halo::obs
