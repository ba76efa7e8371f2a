// SPDX-License-Identifier: MIT

#include "recovery/sealed_snapshot.h"

#include <array>
#include <cstring>
#include <fstream>
#include <span>

#include "common/rng.h"
#include "common/serde.h"
#include "core/deployment_io.h"
#include "recovery/crc32.h"

namespace scec::recovery {
namespace {

// Keystream generator: 256-bit ChaCha20 key expanded from the sealing key,
// nonced by the snapshot salt. SplitMix64 is only a key-derivation
// convenience here; the stream itself is ChaCha20.
ChaCha20Rng SealKeystream(uint64_t sealing_key, uint64_t salt) {
  SplitMix64 key_mix(sealing_key);
  std::array<uint32_t, 8> key{};
  for (size_t i = 0; i < key.size(); i += 2) {
    const uint64_t word = key_mix.Next();
    key[i] = static_cast<uint32_t>(word);
    key[i + 1] = static_cast<uint32_t>(word >> 32);
  }
  SplitMix64 nonce_mix(salt);
  const uint64_t nonce_lo = nonce_mix.Next();
  const std::array<uint32_t, 3> nonce = {
      static_cast<uint32_t>(nonce_lo), static_cast<uint32_t>(nonce_lo >> 32),
      static_cast<uint32_t>(nonce_mix.Next())};
  return ChaCha20Rng(key, nonce);
}

// XORs `len` bytes in place with the keystream: byte i with keystream
// byte i, each keystream word lowest byte first.
void XorSeal(char* bytes, size_t len, uint64_t sealing_key, uint64_t salt) {
  SealKeystream(sealing_key, salt).XorKeystream(std::span<char>(bytes, len));
}

// magic | u32 version | u64 salt | u32 outer CRC | u64 payload length
constexpr size_t kCrcOffset = 4 + 4 + 8;
constexpr size_t kLenOffset = kCrcOffset + 4;
constexpr size_t kHeaderLen = kLenOffset + 8;

template <typename T>
std::string SealImpl(const Deployment<T>& deployment, uint64_t sealing_key,
                     uint64_t salt) {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteBytes({kSealedSnapshotMagic, sizeof(kSealedSnapshotMagic)});
  writer.WriteU32(kSealedSnapshotVersion);
  writer.WriteU64(salt);
  writer.WriteU32(0);  // outer CRC, patched once the payload is sealed
  writer.WriteU64(0);  // payload length, likewise
  AppendDeployment(deployment, &out);
  // Inner CRC over the plaintext: after unsealing, this is the proof the
  // sealing key was right (a wrong key yields uniformly garbled bytes).
  writer.WriteU32(Crc32(out.data() + kHeaderLen, out.size() - kHeaderLen));
  const size_t payload_len = out.size() - kHeaderLen;
  XorSeal(out.data() + kHeaderLen, payload_len, sealing_key, salt);
  writer.PatchU32(kCrcOffset, Crc32(out.data() + kHeaderLen, payload_len));
  writer.PatchU64(kLenOffset, payload_len);
  return out;
}

template <typename T>
Status SaveSealedImpl(const Deployment<T>& deployment, uint64_t sealing_key,
                      uint64_t salt, std::ostream& os) {
  const std::string sealed = SealImpl(deployment, sealing_key, salt);
  os.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
  os.flush();
  if (!os.good()) return Internal("sealed snapshot stream write failed");
  return Status::Ok();
}

template <typename T, typename ParseFn>
Result<Deployment<T>> UnsealImpl(std::string_view sealed, uint64_t sealing_key,
                                 ParseFn parse_plain) {
  BinaryReader reader(sealed);
  std::string_view magic;
  if (!reader.ReadView(sizeof(kSealedSnapshotMagic), &magic).ok() ||
      std::memcmp(magic.data(), kSealedSnapshotMagic, magic.size()) != 0) {
    return DecodeFailure("bad magic: not a sealed SCEC snapshot");
  }
  uint32_t version = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSealedSnapshotVersion) {
    return DecodeFailure("unsupported sealed snapshot version " +
                         std::to_string(version));
  }
  uint64_t salt = 0;
  uint32_t stored_crc = 0;
  uint64_t payload_len = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&salt));
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&payload_len));
  if (payload_len < 4 || payload_len > kMaxSealedPayloadBytes) {
    return DecodeFailure("sealed snapshot payload length out of range");
  }
  std::string_view sealed_payload;
  if (!reader.ReadView(payload_len, &sealed_payload).ok()) {
    return DecodeFailure("sealed snapshot truncated");
  }
  if (Crc32(sealed_payload.data(), sealed_payload.size()) != stored_crc) {
    return DecodeFailure("sealed snapshot checksum mismatch");
  }
  // The one copy: unsealing needs writable bytes.
  std::string payload(sealed_payload);
  XorSeal(payload.data(), payload.size(), sealing_key, salt);
  const std::string_view plain = std::string_view(payload).substr(
      0, payload.size() - 4);
  uint32_t inner_crc = 0;
  SCEC_RETURN_IF_ERROR(
      BinaryReader(std::string_view(payload).substr(plain.size()))
          .ReadU32(&inner_crc));
  if (Crc32(plain.data(), plain.size()) != inner_crc) {
    return InvalidArgument("sealing key mismatch or corrupted snapshot");
  }
  return parse_plain(plain);
}

}  // namespace

Status SaveSealedDeployment(const Deployment<double>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os) {
  return SaveSealedImpl(deployment, sealing_key, salt, os);
}

Status SaveSealedDeployment(const Deployment<Gf61>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os) {
  return SaveSealedImpl(deployment, sealing_key, salt, os);
}

std::string SealDeployment(const Deployment<double>& deployment,
                           uint64_t sealing_key, uint64_t salt) {
  return SealImpl(deployment, sealing_key, salt);
}

std::string SealDeployment(const Deployment<Gf61>& deployment,
                           uint64_t sealing_key, uint64_t salt) {
  return SealImpl(deployment, sealing_key, salt);
}

Result<Deployment<double>> UnsealDeploymentDouble(std::string_view sealed,
                                                  uint64_t sealing_key) {
  return UnsealImpl<double>(sealed, sealing_key, ParseDeploymentDouble);
}

Result<Deployment<Gf61>> UnsealDeploymentGf61(std::string_view sealed,
                                              uint64_t sealing_key) {
  return UnsealImpl<Gf61>(sealed, sealing_key, ParseDeploymentGf61);
}

Result<Deployment<double>> LoadSealedDeploymentDouble(std::istream& is,
                                                      uint64_t sealing_key) {
  return UnsealDeploymentDouble(ReadAll(is), sealing_key);
}

Result<Deployment<Gf61>> LoadSealedDeploymentGf61(std::istream& is,
                                                  uint64_t sealing_key) {
  return UnsealDeploymentGf61(ReadAll(is), sealing_key);
}

Status SaveSealedDeploymentToFile(const Deployment<double>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return InvalidArgument("cannot open " + path + " for writing");
  return SaveSealedDeployment(deployment, sealing_key, salt, os);
}

Status SaveSealedDeploymentToFile(const Deployment<Gf61>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return InvalidArgument("cannot open " + path + " for writing");
  return SaveSealedDeployment(deployment, sealing_key, salt, os);
}

Result<Deployment<double>> LoadSealedDeploymentDoubleFromFile(
    const std::string& path, uint64_t sealing_key) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return InvalidArgument("cannot open " + path + " for reading");
  return LoadSealedDeploymentDouble(is, sealing_key);
}

Result<Deployment<Gf61>> LoadSealedDeploymentGf61FromFile(
    const std::string& path, uint64_t sealing_key) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return InvalidArgument("cannot open " + path + " for reading");
  return LoadSealedDeploymentGf61(is, sealing_key);
}

}  // namespace scec::recovery
