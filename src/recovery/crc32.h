// SPDX-License-Identifier: MIT
//
// Slice-by-8 CRC-32 (IEEE 802.3 polynomial, reflected). Used by the
// durability layer to frame write-ahead journal records and to seal
// deployment snapshots, and by net/wire to frame every message: every byte
// persisted by src/recovery is covered by a checksum, so a flipped or torn
// byte is detected at load time instead of surfacing as silent state
// corruption after a restart.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry
// tables (table k maps a byte to its CRC contribution k positions further
// from the end of the block). The output is identical to the bytewise
// table-driven loop, so on-disk and on-wire checksums do not depend on it.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace scec::recovery {
namespace internal {

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

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian load of 4 bytes, independent of host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace internal

inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = internal::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = internal::LoadLe32(bytes) ^ c;
    const uint32_t hi = internal::LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace scec::recovery
