/**
 * @file
 * Unit tests for hash functions and signature/bucket derivation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "hash/hash_fn.hh"

namespace halo {
namespace {

std::vector<std::uint8_t>
bytesOf(const char *s)
{
    std::vector<std::uint8_t> v;
    while (*s)
        v.push_back(static_cast<std::uint8_t>(*s++));
    return v;
}

TEST(Crc32c, KnownVector)
{
    // CRC32c("123456789") = 0xE3069283 (well-known check value).
    const auto data = bytesOf("123456789");
    EXPECT_EQ(crc32c(std::span<const std::uint8_t>(data), 0),
              0xe3069283u);
}

TEST(Crc32c, SeedChangesDigest)
{
    const auto data = bytesOf("hello");
    EXPECT_NE(crc32c(std::span<const std::uint8_t>(data), 0),
              crc32c(std::span<const std::uint8_t>(data), 1));
}

TEST(HashFns, DeterministicAndKindSensitive)
{
    const auto data = bytesOf("flow-key-0123456");
    const std::span<const std::uint8_t> s(data);
    for (unsigned k = 0; k < numHashKinds; ++k) {
        const auto kind = static_cast<HashKind>(k);
        EXPECT_EQ(hashBytes(kind, 7, s), hashBytes(kind, 7, s));
    }
    EXPECT_NE(hashBytes(HashKind::Crc32c, 7, s),
              hashBytes(HashKind::XxMix, 7, s));
    EXPECT_NE(hashBytes(HashKind::Jenkins, 7, s),
              hashBytes(HashKind::XxMix, 7, s));
}

TEST(HashFns, AvalancheOnSingleByteChange)
{
    auto data = bytesOf("0123456789abcdef");
    const std::uint64_t h1 =
        hashBytes(HashKind::XxMix, 0, std::span<const std::uint8_t>(data));
    data[7] ^= 1;
    const std::uint64_t h2 =
        hashBytes(HashKind::XxMix, 0, std::span<const std::uint8_t>(data));
    // At least a quarter of the bits should flip.
    EXPECT_GT(__builtin_popcountll(h1 ^ h2), 16);
}

TEST(HashFns, DistributionAcrossBuckets)
{
    constexpr std::uint64_t buckets = 64;
    std::vector<unsigned> counts(buckets, 0);
    for (std::uint32_t i = 0; i < 64000; ++i) {
        std::uint8_t key[4];
        std::memcpy(key, &i, 4);
        const std::uint64_t h = hashBytes(
            HashKind::XxMix, 0, std::span<const std::uint8_t>(key, 4));
        ++counts[h % buckets];
    }
    for (unsigned c : counts) {
        EXPECT_GT(c, 500u);
        EXPECT_LT(c, 2000u);
    }
}

TEST(Signature, NeverZero)
{
    for (std::uint64_t h : {0ull, 0xffffull, 0x10000ull,
                            0xffffffffffffffffull, 0x0000ffff0000ull}) {
        EXPECT_NE(shortSignature(h), 0u);
    }
}

TEST(AlternativeBucket, IsInvolution)
{
    const std::uint64_t mask = 1023;
    for (std::uint64_t b = 0; b < 1024; b += 37) {
        for (std::uint32_t sig : {1u, 77u, 0xdeadu, 0xffffffffu}) {
            const std::uint64_t alt = alternativeBucket(b, sig, mask);
            EXPECT_LE(alt, mask);
            EXPECT_EQ(alternativeBucket(alt, sig, mask), b);
        }
    }
}

TEST(FlowHash, SensitiveToEveryWordAndTheSeed)
{
    const std::uint64_t a = 0x0a0000010050ull, b = 0xac1000020bb8ull;
    const std::uint64_t base = flowHash(a, b, 7);
    EXPECT_EQ(base, flowHash(a, b, 7));
    EXPECT_NE(base, flowHash(a, b, 8));
    EXPECT_NE(base, flowHash(b, a, 7)); // the words are ordered
    EXPECT_NE(base, flowHash(a ^ 1ull << 48, b, 7));
    EXPECT_NE(flowHash(0, 0, 0), flowHash(0, 1, 0));
    EXPECT_NE(flowHash(0, 0, 0), flowHash(1, 0, 0));
    // A first word equal to a mixing constant (0xe7037ed1a0b428db is
    // the key bytes db 28 b4 a0 | d1 7e 03 e7, the address pair
    // 219.40.180.160 -> 209.126.3.231) zeroes the first product; the
    // second word must still reach the hash.
    for (const std::uint64_t w :
         {0xe7037ed1a0b428dbull, 0xa0761d6478bd642full, 0ull}) {
        for (const std::uint64_t seed : {0ull, 7ull, 0xf10afedull}) {
            EXPECT_NE(flowHash(w, b, seed), flowHash(w, b ^ 1, seed));
            EXPECT_NE(flowHash(w, b, seed), flowHash(w, b ^ 1ull << 40, seed));
            EXPECT_NE(flowHash(a, w, seed), flowHash(a ^ 1, w, seed));
        }
    }
}

TEST(FlowHash, EveryInputBitAvalanches)
{
    // Flipping any one of the 128 input bits flips each output bit
    // about half the time: a weak fold (say a single multiply's low
    // half) leaves output bits that no high input bit reaches.
    constexpr unsigned trials = 400;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (unsigned bit = 0; bit < 128; ++bit) {
        unsigned flips[64] = {};
        for (unsigned t = 0; t < trials; ++t) {
            const std::uint64_t a = next(), b = next();
            const std::uint64_t a2 = bit < 64 ? a ^ 1ull << bit : a;
            const std::uint64_t b2 = bit < 64 ? b : b ^ 1ull << (bit - 64);
            const std::uint64_t d = flowHash(a, b, 5) ^ flowHash(a2, b2, 5);
            for (unsigned o = 0; o < 64; ++o)
                flips[o] += d >> o & 1;
        }
        for (unsigned o = 0; o < 64; ++o) {
            ASSERT_GT(flips[o], trials / 4) << "in " << bit << " out " << o;
            ASSERT_LT(flips[o], 3 * trials / 4)
                << "in " << bit << " out " << o;
        }
    }
}

TEST(AlternativeBucket, UsuallyDiffersFromPrimary)
{
    const std::uint64_t mask = 255;
    unsigned same = 0;
    for (std::uint32_t sig = 1; sig < 1000; ++sig)
        same += alternativeBucket(5, sig, mask) == 5 ? 1 : 0;
    EXPECT_LT(same, 20u);
}

} // namespace
} // namespace halo
