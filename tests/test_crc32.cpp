// SPDX-License-Identifier: MIT
//
// Slice-by-8 CRC-32 against the standard check value and a bit-at-a-time
// reference: every length and alignment around the 8-byte stride, and
// chaining through the seed argument (how journal and wire frames extend a
// checksum across header and body).

#include "recovery/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace scec::recovery {
namespace {

uint32_t BitwiseCrc32(const unsigned char* bytes, size_t len,
                      uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = RandomBytes(600 + 8, 0xC3C32);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 600; ++len) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, len), BitwiseCrc32(start, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, ChainsThroughSeed) {
  const std::vector<unsigned char> buffer = RandomBytes(300, 0x5EED);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split=" << split;
    ASSERT_EQ(BitwiseCrc32(buffer.data() + split, buffer.size() - split, head),
              whole);
  }
}

}  // namespace
}  // namespace scec::recovery
