// SPDX-License-Identifier: MIT
//
// Random number generation for SCEC.
//
// Three generators, chosen per use:
//   * SplitMix64  — seeding / hashing only.
//   * Xoshiro256StarStar — fast general-purpose PRNG for workload generation
//     and simulation (satisfies std::uniform_random_bit_generator).
//   * ChaCha20Rng — cryptographically strong stream for the random vectors
//     R_1..R_r that carry the information-theoretic security of the coding
//     scheme. ITS only holds if the pads are uniform and unpredictable; a
//     statistical PRNG is not acceptable there.
//
// All generators are deterministic given a seed so experiments reproduce.

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"

namespace scec {

// The largest 64-bit draw ChaCha20Rng::NextBelow(bound) accepts: the last
// value of the top whole multiple of `bound`, so an accepted draw mod bound
// is uniform. Precondition: bound > 0.
constexpr uint64_t UnbiasedDrawLimit(uint64_t bound) {
  return std::numeric_limits<uint64_t>::max() -
         (std::numeric_limits<uint64_t>::max() % bound + 1) % bound;
}

// SplitMix64 (Steele, Lea, Flood 2014). Used to expand one 64-bit seed into
// independent state words for the other generators.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256** 1.0 (Blackman, Vigna). Public-domain reference algorithm.
class Xoshiro256StarStar {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256StarStar(uint64_t seed = 0x5CEC5CEC5CEC5CECULL) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Jump: equivalent to 2^128 calls of Next(); use to derive non-overlapping
  // parallel streams from one seed.
  void Jump() {
    static constexpr std::array<uint64_t, 4> kJump = {
        0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
        0x39ABDC4529B1661CULL};
    std::array<uint64_t, 4> s = {0, 0, 0, 0};
    for (uint64_t jump : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (jump & (uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) s[i] ^= state_[i];
        }
        Next();
      }
    }
    state_ = s;
  }

  // Uniform double in [0, 1) with 53 bits of entropy.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  uint64_t NextUint64() { return Next(); }

  // Uniform value in [0, bound), unbiased. Precondition: bound > 0.
  uint64_t NextBelow(uint64_t bound) {
    SCEC_CHECK_GT(bound, 0u);
    return NextUint64(0, bound - 1);
  }

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Uniform integer in [lo, hi] inclusive, unbiased (rejection sampling).
  uint64_t NextUint64(uint64_t lo, uint64_t hi) {
    SCEC_CHECK_LE(lo, hi);
    const uint64_t span = hi - lo;
    if (span == std::numeric_limits<uint64_t>::max()) return Next();
    const uint64_t bound = span + 1;
    const uint64_t limit =
        std::numeric_limits<uint64_t>::max() -
        (std::numeric_limits<uint64_t>::max() % bound + 1) % bound;
    uint64_t draw;
    do {
      draw = Next();
    } while (draw > limit);
    return lo + draw % bound;
  }

  // Standard normal via Marsaglia polar method.
  double NextGaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = NextDouble(-1.0, 1.0);
      v = NextDouble(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * factor;
    has_cached_ = true;
    return u * factor;
  }

  // Exponential with the given rate (lambda > 0).
  double NextExponential(double rate) {
    SCEC_CHECK_GT(rate, 0.0);
    double u;
    do {
      u = NextDouble();
    } while (u == 0.0);
    return -std::log(u) / rate;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<uint64_t, 4> state_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

namespace chacha_internal {

// Writes `blocks` consecutive ChaCha20 keystream blocks, 16 native-order
// words each, block-major, to `out` (unaligned is fine). `input` is the
// 16-word state; word 12 is the first block's counter and block b uses
// counter input[12] + b (mod 2^32 — ChaCha20Rng never reads a block whose
// counter wrapped).
using ChaCha20BlocksFn = void (*)(const uint32_t* input, void* out);
struct ChaCha20Tier {
  const char* name;  // "avx512" | "avx2" | "scalar"
  size_t blocks;     // blocks per call: 16 | 8 | 1
  ChaCha20BlocksFn fn;
  bool supported;    // this host can run it
};

// Every tier compiled into this build, widest first; "scalar" is last and
// always supported. Each produces the RFC 8439 block function's words.
std::span<const ChaCha20Tier> ChaCha20Tiers();

// The widest supported tier; ChaCha20Rng uses it unless told otherwise.
const ChaCha20Tier& SelectedChaCha20Tier();

}  // namespace chacha_internal

// ChaCha20 keystream generator (RFC 8439 block function), exposed as a PRNG.
// Deterministic given (key, nonce); used for the secrecy-carrying random
// vectors so that the pads are cryptographically strong yet reproducible in
// tests.
//
// The stream is block 0 (or `initial_counter`), then the following blocks,
// each block's 16 words in order; NextUint64 is two words, low first. The
// words are generated a refill at a time — 16 blocks per call on AVX-512, 8
// on AVX2, 1 otherwise — into an internal buffer, and bulk draws
// (FillUint64, XorKeystream) generate whole refills straight into the
// caller's memory. The refill width never changes the stream.
//
// The block counter is 32 bits, as in RFC 8439: after block 2^32 - 1 the
// keystream, and every pad drawn from it, would repeat. A draw that needs
// block 2^32 fails with SCEC_CHECK instead. A refill never generates past
// block 2^32 - 1, so the check trips on the first word that would come from
// block 2^32, not on blocks generated ahead of need.
class ChaCha20Rng {
 public:
  using result_type = uint64_t;

  // Derives the 256-bit key and 96-bit nonce from a 64-bit seed via
  // SplitMix64. For production deployments a caller can supply raw key/nonce.
  explicit ChaCha20Rng(uint64_t seed);
  ChaCha20Rng(const std::array<uint32_t, 8>& key,
              const std::array<uint32_t, 3>& nonce,
              uint32_t initial_counter = 0);
  // The same stream, generated by `tier` (tests and benchmarks; the tier
  // must be supported on this host).
  ChaCha20Rng(const std::array<uint32_t, 8>& key,
              const std::array<uint32_t, 3>& nonce, uint32_t initial_counter,
              const chacha_internal::ChaCha20Tier& tier);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return NextUint64(); }

  uint32_t NextUint32() {
    if (pos_ == end_) Refill();
    return buffer_[pos_++];
  }
  uint64_t NextUint64() {
    if (end_ - pos_ >= 2) {
      const uint64_t lo = buffer_[pos_];
      const uint64_t hi = buffer_[pos_ + 1];
      pos_ += 2;
      return (hi << 32) | lo;
    }
    const uint64_t lo = NextUint32();
    const uint64_t hi = NextUint32();
    return (hi << 32) | lo;
  }

  // Uniform value in [0, bound) via rejection sampling (unbiased): draws
  // above UnbiasedDrawLimit(bound) are skipped. Inline, so a constant bound
  // folds the limit and the reduction.
  uint64_t NextBelow(uint64_t bound) {
    SCEC_CHECK_GT(bound, 0u);
    if (bound == 1) return 0;
    const uint64_t limit = UnbiasedDrawLimit(bound);
    uint64_t draw;
    do {
      draw = NextUint64();
    } while (draw > limit);
    return draw % bound;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  // out[i] = the i-th of the next out.size() NextUint64 draws.
  void FillUint64(std::span<uint64_t> out);

  // XORs `bytes` with the next keystream bytes: RFC 8439's byte order, each
  // word least significant byte first. Advances the stream by
  // ceil(bytes.size() / 4) words.
  void XorKeystream(std::span<char> bytes);

 private:
  static constexpr size_t kMaxRefillBlocks = 16;
  static constexpr uint64_t kBlockLimit = uint64_t{1} << 32;

  // Generates the next refill into buffer_ (SCEC_CHECK: block 2^32 would
  // be needed).
  void Refill();
  // Copies the next `words` stream words to `out` (native order).
  void FillWords(void* out, size_t words);

  std::array<uint32_t, 16> input_;  // ChaCha state template
  const chacha_internal::ChaCha20Tier* tier_;
  uint64_t next_block_;  // counter of the next block to generate, <= 2^32
  size_t pos_ = 0;       // next word of buffer_ to hand out
  size_t end_ = 0;       // words of buffer_ generated
  alignas(64) std::array<uint32_t, 16 * kMaxRefillBlocks> buffer_;
};

// Fills `out` with `count` uniform draws below `bound` using `rng`.
template <typename Rng>
std::vector<uint64_t> DrawBelow(Rng& rng, uint64_t bound, size_t count) {
  std::vector<uint64_t> out;
  out.reserve(count);
  for (size_t idx = 0; idx < count; ++idx) out.push_back(rng.NextBelow(bound));
  return out;
}

}  // namespace scec
