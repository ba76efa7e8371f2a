// SPDX-License-Identifier: MIT
//
// Minimal binary serialization for deployments, journal records, sealed
// snapshots and wire bodies. Fixed-width little-endian encoding and
// Status-returning reads (untrusted input never aborts).
//
// Both halves work on memory, not streams: BinaryWriter appends to a
// caller-owned std::string, BinaryReader is a bounds-checked cursor over a
// std::string_view. Vectors of doubles and u64s move with one memcpy; a
// per-element byte swap runs only on big-endian hosts. Every length prefix
// is checked against both its limit and the bytes actually left before
// anything is allocated, so a short hostile body cannot make the reader
// reserve more memory than the input it was handed.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace scec {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian platforms unsupported");

namespace serde_internal {

template <typename T>
T ToLittle(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out;
    auto* src = reinterpret_cast<const unsigned char*>(&v);
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    for (size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
    return out;
  } else {
    return v;
  }
}

}  // namespace serde_internal

class BinaryWriter {
 public:
  // Appends to `*out`, which must outlive the writer.
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteFixed(v); }
  void WriteU64(uint64_t v) { WriteFixed(v); }
  void WriteDouble(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }
  // Raw bytes, no length prefix (format magics).
  void WriteBytes(std::string_view v) { out_->append(v.data(), v.size()); }
  void WriteString(std::string_view v);  // u32 length + bytes

  // Raw little-endian doubles, no length prefix.
  void WriteDoubles(std::span<const double> v);

  // u32 count + elements.
  void WriteU64Vector(std::span<const uint64_t> v);
  void WriteSizeVector(std::span<const size_t> v);
  void WriteDoubleVector(std::span<const double> v);

  // Overwrite a field already written at `offset` (frame headers whose
  // length and checksum are known only after the body).
  void PatchU32(size_t offset, uint32_t v) { PatchFixed(offset, v); }
  void PatchU64(size_t offset, uint64_t v) { PatchFixed(offset, v); }

 private:
  template <typename T>
  void WriteFixed(T v) {
    const T le = serde_internal::ToLittle(v);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &le, sizeof(T));
    out_->append(bytes, sizeof(T));
  }
  template <typename T>
  void PatchFixed(size_t offset, T v) {
    const T le = serde_internal::ToLittle(v);
    std::memcpy(out_->data() + offset, &le, sizeof(T));
  }

  std::string* out_;
};

class BinaryReader {
 public:
  // Reads from `bytes`, whose storage must outlive the reader.
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* v) { return ReadFixed(v); }
  Status ReadU32(uint32_t* v) { return ReadFixed(v); }
  Status ReadU64(uint64_t* v) { return ReadFixed(v); }
  Status ReadDouble(double* v);
  // The next `len` bytes as a view into the input (no copy).
  Status ReadView(size_t len, std::string_view* v);
  // `max_len` bounds allocations from hostile inputs.
  Status ReadString(std::string* v, uint32_t max_len = 1u << 20);

  // Raw little-endian doubles filling `v` exactly, no length prefix.
  Status ReadDoubles(std::span<double> v);

  Status ReadU64Vector(std::vector<uint64_t>* v, uint32_t max_len = 1u << 26);
  Status ReadSizeVector(std::vector<size_t>* v, uint32_t max_len = 1u << 26);
  Status ReadDoubleVector(std::vector<double>* v, uint32_t max_len = 1u << 26);
  // The u32 count and the raw little-endian doubles of a double vector,
  // checked as ReadDoubleVector checks them, left in place as a view of
  // count × 8 bytes (the caller copies them straight to their destination
  // with ReadDoubles).
  Status ReadDoubleVectorView(std::string_view* v,
                              uint32_t max_len = 1u << 26);

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  // Writes `*v` on every path (zero when truncated).
  template <typename T>
  Status ReadFixed(T* v) {
    if (remaining() < sizeof(T)) {
      *v = T{};
      return Truncated();
    }
    T raw{};
    std::memcpy(&raw, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    *v = serde_internal::ToLittle(raw);
    return Status::Ok();
  }
  // Reads a u32 element count and checks it against `max_len` and against
  // the bytes left for `elem_size`-byte elements.
  Status ReadCount(uint32_t* len, uint32_t max_len, size_t elem_size,
                   const char* what);
  static Status Truncated();

  std::string_view bytes_;
  size_t pos_ = 0;
};

// Reads everything left in `is` into one string.
std::string ReadAll(std::istream& is);

}  // namespace scec
