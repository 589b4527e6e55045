/**
 * @file
 * Process-wide heap-allocation counter for the benchmark binaries:
 * replaces the global operator new/delete family with malloc-backed
 * versions that count every allocation, except those a thread makes
 * inside an UncountedAllocs scope.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "support.hh"

namespace {

std::atomic<std::uint64_t> allocCount{0};
thread_local unsigned uncountedDepth = 0;

void
countOne()
{
    if (uncountedDepth == 0)
        allocCount.fetch_add(1, std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n)
{
    countOne();
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t align)
{
    countOne();
    const std::size_t a = std::max(static_cast<std::size_t>(align),
                                   sizeof(void *));
    void *p = nullptr;
    if (posix_memalign(&p, a, n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

std::uint64_t
heapAllocs()
{
    return allocCount.load(std::memory_order_relaxed);
}

UncountedAllocs::UncountedAllocs() { ++uncountedDepth; }

UncountedAllocs::~UncountedAllocs() { --uncountedDepth; }

} // namespace perfbench

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAlignedAlloc(n, a);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    try {
        return countedAlignedAlloc(n, a);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
