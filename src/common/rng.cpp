// SPDX-License-Identifier: MIT

#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SCEC_X86_CHACHA 1
#else
#define SCEC_X86_CHACHA 0
#endif

namespace scec {
namespace chacha_internal {
namespace {

constexpr std::array<uint32_t, 4> kChaChaConstants = {
    0x61707865u, 0x3320646Eu, 0x79622D32u, 0x6B206574u};  // "expand 32-byte k"

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline void QuarterRound(std::array<uint32_t, 16>& s, int a, int b, int c,
                         int d) {
  s[a] += s[b]; s[d] ^= s[a]; s[d] = Rotl32(s[d], 16);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = Rotl32(s[b], 12);
  s[a] += s[b]; s[d] ^= s[a]; s[d] = Rotl32(s[d], 8);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = Rotl32(s[b], 7);
}

void ChaCha20BlockScalar(const uint32_t* input, void* out) {
  std::array<uint32_t, 16> working;
  std::copy(input, input + 16, working.begin());
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    QuarterRound(working, 0, 4, 8, 12);
    QuarterRound(working, 1, 5, 9, 13);
    QuarterRound(working, 2, 6, 10, 14);
    QuarterRound(working, 3, 7, 11, 15);
    QuarterRound(working, 0, 5, 10, 15);
    QuarterRound(working, 1, 6, 11, 12);
    QuarterRound(working, 2, 7, 8, 13);
    QuarterRound(working, 3, 4, 9, 14);
  }
  for (size_t i = 0; i < 16; ++i) working[i] += input[i];
  std::memcpy(out, working.data(), sizeof(working));
}

#if SCEC_X86_CHACHA

// GCC's AVX-512 rotate intrinsic passes an _mm512_undefined_epi32() merge
// source, which -Wuninitialized reports inside every inlined caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// The vector tiers keep the state one word per register, one block per
// lane (lane b runs counter input[12] + b), run the 20 rounds lane-wise,
// add the input back and transpose so each block's 16 words are stored
// contiguously.

#define SCEC_CHACHA_DOUBLE_ROUND(QR) \
  QR(x[0], x[4], x[8], x[12]);       \
  QR(x[1], x[5], x[9], x[13]);       \
  QR(x[2], x[6], x[10], x[14]);      \
  QR(x[3], x[7], x[11], x[15]);      \
  QR(x[0], x[5], x[10], x[15]);      \
  QR(x[1], x[6], x[11], x[12]);      \
  QR(x[2], x[7], x[8], x[13]);       \
  QR(x[3], x[4], x[9], x[14])

__attribute__((target("avx512f"), always_inline)) inline void QuarterRound16(
    __m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

// State word i in every lane; the counter word counts up across lanes.
__attribute__((target("avx512f"), always_inline)) inline __m512i Initial16(
    const uint32_t* input, size_t i) {
  const __m512i word = _mm512_set1_epi32(static_cast<int>(input[i]));
  if (i != 12) return word;
  return _mm512_add_epi32(word, _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                                  9, 10, 11, 12, 13, 14, 15));
}

__attribute__((target("avx512f")))
void ChaCha20Blocks16(const uint32_t* input, void* out) {
  __m512i x[16];
  for (size_t i = 0; i < 16; ++i) x[i] = Initial16(input, i);
  for (int round = 0; round < 10; ++round) {
    SCEC_CHACHA_DOUBLE_ROUND(QuarterRound16);
  }
  for (size_t i = 0; i < 16; ++i) {
    x[i] = _mm512_add_epi32(x[i], Initial16(input, i));
  }

  // Within each 128-bit lane k, s[4g + j] gathers words 4g..4g+3 of block
  // 4k + j; the lane shuffles then collect block 4k + j's four groups.
  __m512i s[16];
  for (size_t g = 0; g < 4; ++g) {
    const __m512i t0 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t1 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t2 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i t3 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    s[4 * g] = _mm512_unpacklo_epi64(t0, t2);
    s[4 * g + 1] = _mm512_unpackhi_epi64(t0, t2);
    s[4 * g + 2] = _mm512_unpacklo_epi64(t1, t3);
    s[4 * g + 3] = _mm512_unpackhi_epi64(t1, t3);
  }
  auto* bytes = static_cast<char*>(out);
  for (size_t j = 0; j < 4; ++j) {
    const __m512i u0 = _mm512_shuffle_i32x4(s[j], s[4 + j], 0x44);
    const __m512i u1 = _mm512_shuffle_i32x4(s[j], s[4 + j], 0xEE);
    const __m512i u2 = _mm512_shuffle_i32x4(s[8 + j], s[12 + j], 0x44);
    const __m512i u3 = _mm512_shuffle_i32x4(s[8 + j], s[12 + j], 0xEE);
    _mm512_storeu_si512(bytes + 64 * j, _mm512_shuffle_i32x4(u0, u2, 0x88));
    _mm512_storeu_si512(bytes + 64 * (4 + j),
                        _mm512_shuffle_i32x4(u0, u2, 0xDD));
    _mm512_storeu_si512(bytes + 64 * (8 + j),
                        _mm512_shuffle_i32x4(u1, u3, 0x88));
    _mm512_storeu_si512(bytes + 64 * (12 + j),
                        _mm512_shuffle_i32x4(u1, u3, 0xDD));
  }
}

__attribute__((target("avx2"), always_inline)) inline __m256i Rotl256(
    __m256i v, int k) {
  return _mm256_or_si256(_mm256_slli_epi32(v, k),
                         _mm256_srli_epi32(v, 32 - k));
}

__attribute__((target("avx2"), always_inline)) inline void QuarterRound8(
    __m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  // Rotations by 16 and 8 move whole bytes: one byte shuffle each.
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d); b = Rotl256(_mm256_xor_si256(b, c), 12);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d); b = Rotl256(_mm256_xor_si256(b, c), 7);
}

__attribute__((target("avx2"), always_inline)) inline __m256i Initial8(
    const uint32_t* input, size_t i) {
  const __m256i word = _mm256_set1_epi32(static_cast<int>(input[i]));
  if (i != 12) return word;
  return _mm256_add_epi32(word, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

__attribute__((target("avx2")))
void ChaCha20Blocks8(const uint32_t* input, void* out) {
  __m256i x[16];
  for (size_t i = 0; i < 16; ++i) x[i] = Initial8(input, i);
  for (int round = 0; round < 10; ++round) {
    SCEC_CHACHA_DOUBLE_ROUND(QuarterRound8);
  }
  for (size_t i = 0; i < 16; ++i) {
    x[i] = _mm256_add_epi32(x[i], Initial8(input, i));
  }

  // As in the 16-block tier, per 128-bit lane k (blocks 4k..4k+3); a
  // 128-bit permute then joins groups 2h and 2h+1 into words 8h..8h+7.
  __m256i s[16];
  for (size_t g = 0; g < 4; ++g) {
    const __m256i t0 = _mm256_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m256i t1 = _mm256_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m256i t2 = _mm256_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m256i t3 = _mm256_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    s[4 * g] = _mm256_unpacklo_epi64(t0, t2);
    s[4 * g + 1] = _mm256_unpackhi_epi64(t0, t2);
    s[4 * g + 2] = _mm256_unpacklo_epi64(t1, t3);
    s[4 * g + 3] = _mm256_unpackhi_epi64(t1, t3);
  }
  auto* bytes = static_cast<char*>(out);
  for (size_t h = 0; h < 2; ++h) {
    for (size_t j = 0; j < 4; ++j) {
      const __m256i lo = s[8 * h + j];
      const __m256i hi = s[8 * h + 4 + j];
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(bytes + 64 * j + 32 * h),
          _mm256_permute2x128_si256(lo, hi, 0x20));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(bytes + 64 * (4 + j) + 32 * h),
          _mm256_permute2x128_si256(lo, hi, 0x31));
    }
  }
}

#undef SCEC_CHACHA_DOUBLE_ROUND

#pragma GCC diagnostic pop

#endif  // SCEC_X86_CHACHA

}  // namespace

std::span<const ChaCha20Tier> ChaCha20Tiers() {
  static const ChaCha20Tier tiers[] = {
#if SCEC_X86_CHACHA
      {"avx512", 16, ChaCha20Blocks16,
       __builtin_cpu_supports("avx512f") != 0},
      {"avx2", 8, ChaCha20Blocks8, __builtin_cpu_supports("avx2") != 0},
#endif
      {"scalar", 1, ChaCha20BlockScalar, true},
  };
  return tiers;
}

const ChaCha20Tier& SelectedChaCha20Tier() {
  static const ChaCha20Tier& selected = []() -> const ChaCha20Tier& {
    const std::span<const ChaCha20Tier> tiers = ChaCha20Tiers();
    for (const ChaCha20Tier& tier : tiers) {
      if (tier.supported) return tier;
    }
    return tiers.back();
  }();
  return selected;
}

}  // namespace chacha_internal

ChaCha20Rng::ChaCha20Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  std::array<uint32_t, 8> key;
  for (auto& word : key) word = static_cast<uint32_t>(sm.Next());
  std::array<uint32_t, 3> nonce;
  for (auto& word : nonce) word = static_cast<uint32_t>(sm.Next());
  *this = ChaCha20Rng(key, nonce);
}

ChaCha20Rng::ChaCha20Rng(const std::array<uint32_t, 8>& key,
                         const std::array<uint32_t, 3>& nonce,
                         uint32_t initial_counter)
    : ChaCha20Rng(key, nonce, initial_counter,
                  chacha_internal::SelectedChaCha20Tier()) {}

ChaCha20Rng::ChaCha20Rng(const std::array<uint32_t, 8>& key,
                         const std::array<uint32_t, 3>& nonce,
                         uint32_t initial_counter,
                         const chacha_internal::ChaCha20Tier& tier)
    : tier_(&tier), next_block_(initial_counter) {
  SCEC_CHECK(tier.supported) << "ChaCha20 tier " << tier.name;
  SCEC_CHECK_LE(tier.blocks, kMaxRefillBlocks);
  for (size_t i = 0; i < 4; ++i) input_[i] = chacha_internal::kChaChaConstants[i];
  for (size_t i = 0; i < 8; ++i) input_[4 + i] = key[i];
  input_[12] = 0;  // block counter, set per refill
  for (size_t i = 0; i < 3; ++i) input_[13 + i] = nonce[i];
  buffer_.fill(0);
}

void ChaCha20Rng::Refill() {
  SCEC_CHECK_LT(next_block_, kBlockLimit)
      << "ChaCha20 block counter exhausted: block 2^32 would repeat the "
         "keystream";
  size_t blocks = tier_->blocks;
  if (kBlockLimit - next_block_ >= blocks) {
    input_[12] = static_cast<uint32_t>(next_block_);
    tier_->fn(input_.data(), buffer_.data());
  } else {
    // The last blocks before the limit, one at a time: a full refill would
    // run lanes past counter 2^32 - 1.
    blocks = static_cast<size_t>(kBlockLimit - next_block_);
    for (size_t b = 0; b < blocks; ++b) {
      input_[12] = static_cast<uint32_t>(next_block_ + b);
      chacha_internal::ChaCha20BlockScalar(input_.data(),
                                           buffer_.data() + 16 * b);
    }
  }
  next_block_ += blocks;
  pos_ = 0;
  end_ = 16 * blocks;
}

void ChaCha20Rng::FillWords(void* out, size_t words) {
  auto* bytes = static_cast<char*>(out);
  const auto drain = [&] {
    const size_t take = std::min(words, end_ - pos_);
    if (take == 0) return;  // `out` may be null when empty
    std::memcpy(bytes, buffer_.data() + pos_, 4 * take);
    pos_ += take;
    bytes += 4 * take;
    words -= take;
  };
  drain();
  // Whole refills go straight to `out`; the buffer stays drained.
  const size_t width = tier_->blocks;
  while (words >= 16 * width && kBlockLimit - next_block_ >= width) {
    input_[12] = static_cast<uint32_t>(next_block_);
    tier_->fn(input_.data(), bytes);
    next_block_ += width;
    bytes += 64 * width;
    words -= 16 * width;
  }
  while (words > 0) {
    Refill();
    drain();
  }
}

void ChaCha20Rng::FillUint64(std::span<uint64_t> out) {
  FillWords(out.data(), 2 * out.size());
  if constexpr (std::endian::native == std::endian::big) {
    // Each draw is its two words, low word first.
    for (uint64_t& v : out) v = (v << 32) | (v >> 32);
  }
}

void ChaCha20Rng::XorKeystream(std::span<char> bytes) {
  constexpr size_t kChunkWords = 256;
  uint32_t chunk[kChunkWords];
  for (size_t done = 0; done < bytes.size();) {
    const size_t len = std::min(bytes.size() - done, 4 * kChunkWords);
    const size_t words = (len + 3) / 4;
    FillWords(chunk, words);
    char* p = bytes.data() + done;
    size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      uint32_t word;
      std::memcpy(&word, p + i, 4);
      uint32_t key = chunk[i / 4];
      if constexpr (std::endian::native == std::endian::big) {
        key = __builtin_bswap32(key);  // byte k of the word is key >> 8k
      }
      word ^= key;
      std::memcpy(p + i, &word, 4);
    }
    if (i < len) {
      for (uint32_t key = chunk[i / 4]; i < len; ++i, key >>= 8) {
        p[i] ^= static_cast<char>(key & 0xFFu);
      }
    }
    done += len;
  }
}

}  // namespace scec
