// SPDX-License-Identifier: MIT
//
// Sealed deployment snapshots: the durable form of a deployment whose coded
// shares (data + ChaCha20 pads) must never touch the disk in plaintext. The
// plain deployment_io bytes are XOR-sealed against a ChaCha20 keystream
// derived from a sealing key that is NOT stored in the snapshot — the
// operator supplies it again at restart, like a KMS-held disk-encryption
// key. A per-snapshot salt (stored in the clear) nonces the keystream so
// two snapshots sealed under one key never share pad bytes.
//
// Format (little-endian):
//   magic "SCSS" | u32 version | u64 salt
//   u32 crc32(sealed payload) | u64 payload length | sealed payload
// sealed payload = keystream XOR (deployment_io bytes | u32 crc32(bytes))
//
// Failure containment: every single-byte flip or truncation anywhere in the
// file fails the load with a Status (outer CRC over the sealed payload;
// header damage fails parsing; salt damage changes the keystream and trips
// the inner CRC). A wrong sealing key also trips the inner CRC, so garbage
// is never handed to the decoder as a deployment.

#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/error.h"
#include "core/pipeline.h"

namespace scec::recovery {

inline constexpr uint32_t kSealedSnapshotVersion = 1;
inline constexpr char kSealedSnapshotMagic[4] = {'S', 'C', 'S', 'S'};
// Upper bound on the sealed payload; anything larger is corruption.
inline constexpr uint64_t kMaxSealedPayloadBytes = 1ull << 28;

Status SaveSealedDeployment(const Deployment<double>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os);
Status SaveSealedDeployment(const Deployment<Gf61>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os);

// The loaders read `is` to its end and unseal the bytes in memory.
Result<Deployment<double>> LoadSealedDeploymentDouble(std::istream& is,
                                                      uint64_t sealing_key);
Result<Deployment<Gf61>> LoadSealedDeploymentGf61(std::istream& is,
                                                  uint64_t sealing_key);

// In-memory forms, which the stream functions above wrap. Sealing encodes
// the deployment straight into the returned snapshot and seals it there;
// unsealing makes one writable copy of the payload and parses the
// plaintext from it.
std::string SealDeployment(const Deployment<double>& deployment,
                           uint64_t sealing_key, uint64_t salt);
std::string SealDeployment(const Deployment<Gf61>& deployment,
                           uint64_t sealing_key, uint64_t salt);
Result<Deployment<double>> UnsealDeploymentDouble(std::string_view sealed,
                                                  uint64_t sealing_key);
Result<Deployment<Gf61>> UnsealDeploymentGf61(std::string_view sealed,
                                              uint64_t sealing_key);

// File-path conveniences.
Status SaveSealedDeploymentToFile(const Deployment<double>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path);
Status SaveSealedDeploymentToFile(const Deployment<Gf61>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path);
Result<Deployment<double>> LoadSealedDeploymentDoubleFromFile(
    const std::string& path, uint64_t sealing_key);
Result<Deployment<Gf61>> LoadSealedDeploymentGf61FromFile(
    const std::string& path, uint64_t sealing_key);

}  // namespace scec::recovery
