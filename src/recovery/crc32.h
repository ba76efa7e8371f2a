// SPDX-License-Identifier: MIT
//
// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320). Used by the
// durability layer to frame write-ahead journal records and to seal
// deployment snapshots, and by net/wire to frame every message: every byte
// persisted by src/recovery is covered by a checksum, so a flipped or torn
// byte is detected at load time instead of surfacing as silent state
// corruption after a restart.
//
// Two tiers behind one runtime dispatch (the __builtin_cpu_supports idiom
// of linalg/batch_kernels), both returning the value of the bytewise
// table-driven loop, so on-disk and on-wire checksums never depend on the
// host:
//
//   * "pclmul" (x86-64 with PCLMULQDQ + SSE4.1): folds 64 bytes per step
//     in four 128-bit lanes with carry-less multiplies by x^(512±32) mod P,
//     folds the lanes into one, then 16 bytes per step, and ends in a
//     Barrett reduction to 32 bits (Gopal et al., "Fast CRC Computation for
//     Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Inputs
//     under 64 bytes and the last len % 16 bytes go through slice-by-8;
//   * "slice8": slice-by-8 everywhere. It folds eight input bytes per step
//     through eight 256-entry tables (table k maps a byte to its CRC
//     contribution k positions further from the end of the block).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace scec::recovery {

// CRC-32 of `len` bytes, continuing from `seed` (the CRC of the bytes
// before them; 0 to start), so Crc32(b, n, Crc32(a, m)) is the CRC of a
// followed by b.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

namespace internal {

using Crc32Fn = uint32_t (*)(const void* data, size_t len, uint32_t seed);
struct Crc32Tier {
  const char* name;  // "pclmul" | "slice8"
  Crc32Fn fn;
  bool supported;  // this host can run it
};

// Every tier compiled into this build, fastest first; "slice8" is last and
// always supported.
std::span<const Crc32Tier> Crc32Tiers();

// The fastest supported tier; Crc32 runs it.
const Crc32Tier& SelectedCrc32Tier();

}  // namespace internal
}  // namespace scec::recovery
