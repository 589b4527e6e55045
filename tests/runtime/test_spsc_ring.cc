#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/packet.hh"
#include "runtime/spsc_ring.hh"
#include "sim/random.hh"

using namespace halo;

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);
    EXPECT_EQ(SpscRing<int>(128).capacity(), 128u);
    EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
}

TEST(SpscRing, FifoSingleThread)
{
    SpscRing<int> ring(8);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.tryPush(int(i)));
    EXPECT_FALSE(ring.tryPush(99)); // full
    EXPECT_EQ(ring.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        int v = -1;
        EXPECT_TRUE(ring.tryPop(v));
        EXPECT_EQ(v, i);
    }
    int v;
    EXPECT_FALSE(ring.tryPop(v)); // empty
}

TEST(SpscRing, BatchPartialAcceptance)
{
    SpscRing<int> ring(8);
    std::vector<int> items(12);
    for (int i = 0; i < 12; ++i)
        items[i] = i;
    // Only 8 slots: a 12-item batch accepts the 8-item prefix.
    EXPECT_EQ(ring.pushBatch(items), 8u);
    int out[16];
    EXPECT_EQ(ring.popBatch(out, 16), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(SpscRing, WrapAroundPreservesOrder)
{
    SpscRing<std::uint64_t> ring(16);
    std::uint64_t next_in = 0, next_out = 0;
    Xoshiro256 rng(0xabcdef);
    std::uint64_t staged[16];
    std::uint64_t drained[16];
    while (next_out < 100000) {
        const std::size_t want_in = rng.next() % 8 + 1;
        for (std::size_t i = 0; i < want_in; ++i)
            staged[i] = next_in + i;
        next_in += ring.pushBatch(
            std::span<const std::uint64_t>(staged, want_in));
        const std::size_t got =
            ring.popBatch(drained, rng.next() % 8 + 1);
        for (std::size_t i = 0; i < got; ++i)
            ASSERT_EQ(drained[i], next_out + i);
        next_out += got;
    }
}

TEST(SpscRing, PacketFramesWrapAroundByteIdentical)
{
    // Ring slots hold the frames themselves: every packet, of varying
    // length and protocol, must come out exactly as it went in.
    auto packet = [](std::uint64_t i) {
        FiveTuple t;
        t.srcIp = static_cast<std::uint32_t>(i * 2654435761u);
        t.dstIp = static_cast<std::uint32_t>(i);
        t.srcPort = static_cast<std::uint16_t>(i);
        t.dstPort = 443;
        t.proto = (i & 1) ? 6 : 17;
        Packet p = Packet::fromTuple(t, 8 + i % 64);
        p.stampOrderTag(i);
        return p;
    };
    SpscRing<Packet> ring(16);
    Xoshiro256 rng(0x9acc);
    std::uint64_t next_in = 0, next_out = 0;
    Packet drained[8];
    while (next_out < 20000) {
        for (std::size_t i = rng.next() % 8 + 1; i > 0; --i) {
            if (!ring.tryPush(packet(next_in)))
                break;
            ++next_in;
        }
        const std::size_t got = ring.popBatch(drained, rng.next() % 8 + 1);
        for (std::size_t i = 0; i < got; ++i, ++next_out) {
            const Packet want = packet(next_out);
            ASSERT_EQ(drained[i].size(), want.size());
            ASSERT_TRUE(std::ranges::equal(drained[i].bytes(),
                                           want.bytes()))
                << "packet " << next_out;
        }
    }
}

TEST(SpscRing, MoveOnlyPayload)
{
    SpscRing<std::unique_ptr<int>> ring(4);
    EXPECT_TRUE(ring.tryPush(std::make_unique<int>(42)));
    std::unique_ptr<int> out;
    EXPECT_TRUE(ring.tryPop(out));
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, 42);
}

TEST(SpscRing, FailedPushLeavesItemIntact)
{
    SpscRing<std::unique_ptr<int>> ring(2);
    ASSERT_TRUE(ring.tryPush(std::make_unique<int>(0)));
    ASSERT_TRUE(ring.tryPush(std::make_unique<int>(1)));
    auto item = std::make_unique<int>(2);
    EXPECT_FALSE(ring.tryPush(std::move(item)));
    ASSERT_TRUE(item); // not consumed by the failed push
    EXPECT_EQ(*item, 2);
}

/**
 * The satellite stress test: 1M items through a small ring with
 * randomized batch sizes on both sides, real threads. The consumer
 * asserts the exact sequence 0..N-1 — any loss, duplication or
 * reordering breaks the equality. Run under ASan/UBSan and TSan in CI.
 */
TEST(SpscRing, ThreadedStressExactSequence)
{
    constexpr std::uint64_t total = 1000000;
    SpscRing<std::uint64_t> ring(1024);

    std::thread producer([&] {
        Xoshiro256 rng(0x9a75);
        std::uint64_t staged[64];
        std::uint64_t next = 0;
        while (next < total) {
            const std::size_t want = std::min<std::uint64_t>(
                rng.next() % 64 + 1, total - next);
            for (std::size_t i = 0; i < want; ++i)
                staged[i] = next + i;
            const std::size_t accepted = ring.pushBatch(
                std::span<const std::uint64_t>(staged, want));
            next += accepted;
            if (accepted == 0)
                std::this_thread::yield();
        }
    });

    Xoshiro256 rng(0x51ab);
    std::uint64_t out[64];
    std::uint64_t expected = 0;
    while (expected < total) {
        const std::size_t got = ring.popBatch(out, rng.next() % 64 + 1);
        if (got == 0) {
            std::this_thread::yield();
            continue;
        }
        for (std::size_t i = 0; i < got; ++i)
            ASSERT_EQ(out[i], expected + i);
        expected += got;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}
