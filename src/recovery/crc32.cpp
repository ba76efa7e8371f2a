// SPDX-License-Identifier: MIT
//
// CRC-32 tiers; contract in crc32.h.

#include "recovery/crc32.h"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SCEC_X86_CRC 1
#else
#define SCEC_X86_CRC 0
#endif

namespace scec::recovery::internal {
namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t slice = 1; slice < 8; ++slice) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[slice - 1][i];
      tables[slice][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian load of 4 bytes, independent of host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Slice-by-8 over the raw register state `c` (not pre- or post-inverted).
uint32_t Slice8Update(uint32_t c, const unsigned char* bytes, size_t len) {
  const auto& t = kCrc32Tables;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ c;
    const uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

uint32_t Crc32Slice8(const void* data, size_t len, uint32_t seed) {
  return Slice8Update(seed ^ 0xFFFFFFFFu,
                      static_cast<const unsigned char*>(data), len) ^
         0xFFFFFFFFu;
}

#if SCEC_X86_CRC

__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i
Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves the 128-bit lane `x` forward by the distance `k` encodes and adds
// the message bytes found there.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i
Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds the register state over `len` bytes, len >= 64 and a multiple of
// 16. In the bit-reflected domain a 128-bit lane x is moved 512 bits
// further along the message as x.lo·k1 ^ x.hi·k2 (k1 = x^(512+32) mod P,
// k2 = x^(512-32) mod P, both bit-reflected and shifted left one); the
// 128-bit fold uses k3/k4 likewise, k5 folds the last 64 bits to 32, and
// the final step is a Barrett reduction by P' = 0x1DB710641 with
// mu = 0x1F7011641.
__attribute__((target("pclmul,sse4.1")))
uint32_t PclmulFold(uint32_t crc, const unsigned char* buf, size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 = _mm_xor_si128(Load128(buf),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(buf + 16);
  __m128i x3 = Load128(buf + 32);
  __m128i x4 = Load128(buf + 48);
  buf += 64;
  len -= 64;
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(buf));
    x2 = Fold(x2, k1k2, Load128(buf + 16));
    x3 = Fold(x3, k1k2, Load128(buf + 32));
    x4 = Fold(x4, k1k2, Load128(buf + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; buf += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(buf));

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 with k5.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2r);

  // Barrett reduction to 32 bits.
  x2r = _mm_and_si128(x1, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
  x2r = _mm_and_si128(x2r, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

uint32_t Crc32Pclmul(const void* data, size_t len, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    c = PclmulFold(c, bytes, folded);
    bytes += folded;
    len -= folded;
  }
  return Slice8Update(c, bytes, len) ^ 0xFFFFFFFFu;
}

#endif  // SCEC_X86_CRC

}  // namespace

std::span<const Crc32Tier> Crc32Tiers() {
  static const Crc32Tier tiers[] = {
#if SCEC_X86_CRC
      {"pclmul", Crc32Pclmul,
       __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")},
#endif
      {"slice8", Crc32Slice8, true},
  };
  return tiers;
}

const Crc32Tier& SelectedCrc32Tier() {
  static const Crc32Tier& selected = []() -> const Crc32Tier& {
    const std::span<const Crc32Tier> tiers = Crc32Tiers();
    for (const Crc32Tier& tier : tiers) {
      if (tier.supported) return tier;
    }
    return tiers.back();
  }();
  return selected;
}

}  // namespace scec::recovery::internal

namespace scec::recovery {

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  return internal::SelectedCrc32Tier().fn(data, len, seed);
}

}  // namespace scec::recovery
