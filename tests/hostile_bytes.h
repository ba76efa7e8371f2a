// SPDX-License-Identifier: MIT
//
// Seeded hostile variants of a well-formed encoded body, for tests that
// push bytes past a CRC and into a body decoder: every u32 count field set
// to boundary values, every truncation, trailing bytes, and random byte
// overwrites. The caller re-frames each variant with a fresh CRC.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace scec::testutil {

enum class Mutation {
  kCount,       // one u32 count prefix set to another value
  kTruncation,  // a strict prefix of the body
  kTrailing,    // the body plus extra bytes
  kRandom,      // one to four seeded random byte overwrites
};

struct HostileVariant {
  std::string bytes;
  Mutation mutation;
};

inline std::vector<HostileVariant> HostileVariants(
    const std::string& body, const std::vector<size_t>& count_offsets,
    uint64_t seed) {
  std::vector<HostileVariant> out;
  for (const size_t offset : count_offsets) {
    uint32_t original = 0;
    std::memcpy(&original, body.data() + offset, sizeof(original));
    for (const uint32_t count :
         {0u, original - 1, original + 1, 2 * original + 1, 1u << 20,
          (1u << 20) + 1, (1u << 26) - 1, 1u << 26, 0x7FFFFFFFu,
          0xFFFFFFFFu}) {
      if (count == original) continue;
      std::string bytes = body;
      std::memcpy(bytes.data() + offset, &count, sizeof(count));
      out.push_back({std::move(bytes), Mutation::kCount});
    }
  }
  for (size_t cut = 0; cut < body.size(); ++cut) {
    out.push_back({body.substr(0, cut), Mutation::kTruncation});
  }
  out.push_back({body + std::string(1, '\0'), Mutation::kTrailing});
  out.push_back({body + "\x01\x02\x03", Mutation::kTrailing});
  SplitMix64 rng(seed);
  for (int i = 0; i < 64 && !body.empty(); ++i) {
    std::string bytes = body;
    const uint64_t flips = 1 + rng.Next() % 4;
    for (uint64_t f = 0; f < flips; ++f) {
      bytes[rng.Next() % bytes.size()] = static_cast<char>(rng.Next());
    }
    out.push_back({std::move(bytes), Mutation::kRandom});
  }
  return out;
}

}  // namespace scec::testutil
