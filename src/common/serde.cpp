// SPDX-License-Identifier: MIT

#include "common/serde.h"

namespace scec {
namespace {

using serde_internal::ToLittle;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// Appends `v` as little-endian 8-byte words.
template <typename T>
void AppendWords(std::string* out, std::span<const T> v) {
  static_assert(sizeof(T) == 8);
  if constexpr (kLittleEndian) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
  } else {
    const size_t start = out->size();
    out->resize(start + v.size_bytes());
    char* dst = out->data() + start;
    for (const T e : v) {
      const uint64_t le = ToLittle(std::bit_cast<uint64_t>(e));
      std::memcpy(dst, &le, 8);
      dst += 8;
    }
  }
}

// Fills `v` from little-endian 8-byte words at `src`.
template <typename T>
void LoadWords(const char* src, std::span<T> v) {
  static_assert(sizeof(T) == 8);
  if (v.empty()) return;
  std::memcpy(v.data(), src, v.size_bytes());
  if constexpr (!kLittleEndian) {
    for (T& e : v) e = std::bit_cast<T>(ToLittle(std::bit_cast<uint64_t>(e)));
  }
}

}  // namespace

void BinaryWriter::WriteString(std::string_view v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteBytes(v);
}

void BinaryWriter::WriteDoubles(std::span<const double> v) {
  AppendWords(out_, v);
}

void BinaryWriter::WriteU64Vector(std::span<const uint64_t> v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  AppendWords(out_, v);
}

void BinaryWriter::WriteSizeVector(std::span<const size_t> v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  for (const size_t e : v) WriteU64(static_cast<uint64_t>(e));
}

void BinaryWriter::WriteDoubleVector(std::span<const double> v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteDoubles(v);
}

Status BinaryReader::Truncated() {
  return DecodeFailure("unexpected end of stream");
}

Status BinaryReader::ReadDouble(double* v) {
  uint64_t bits = 0;
  SCEC_RETURN_IF_ERROR(ReadU64(&bits));
  *v = std::bit_cast<double>(bits);
  return Status::Ok();
}

Status BinaryReader::ReadView(size_t len, std::string_view* v) {
  if (remaining() < len) return Truncated();
  *v = bytes_.substr(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::ReadCount(uint32_t* len, uint32_t max_len,
                               size_t elem_size, const char* what) {
  SCEC_RETURN_IF_ERROR(ReadU32(len));
  if (*len > max_len) {
    return DecodeFailure(std::string(what) + " length exceeds limit");
  }
  // Checked before the caller allocates: a prefix claiming more elements
  // than the bytes left is a truncated body, however large it claims to be.
  if (*len > remaining() / elem_size) return Truncated();
  return Status::Ok();
}

Status BinaryReader::ReadString(std::string* v, uint32_t max_len) {
  uint32_t len = 0;
  SCEC_RETURN_IF_ERROR(ReadCount(&len, max_len, 1, "string"));
  v->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::ReadDoubles(std::span<double> v) {
  if (remaining() / 8 < v.size()) return Truncated();
  LoadWords(bytes_.data() + pos_, v);
  pos_ += v.size_bytes();
  return Status::Ok();
}

Status BinaryReader::ReadU64Vector(std::vector<uint64_t>* v,
                                   uint32_t max_len) {
  uint32_t len = 0;
  SCEC_RETURN_IF_ERROR(ReadCount(&len, max_len, 8, "vector"));
  v->resize(len);
  LoadWords(bytes_.data() + pos_, std::span<uint64_t>(*v));
  pos_ += 8 * static_cast<size_t>(len);
  return Status::Ok();
}

Status BinaryReader::ReadSizeVector(std::vector<size_t>* v,
                                    uint32_t max_len) {
  uint32_t len = 0;
  SCEC_RETURN_IF_ERROR(ReadCount(&len, max_len, 8, "vector"));
  v->resize(len);
  for (size_t& e : *v) {
    uint64_t raw = 0;
    SCEC_RETURN_IF_ERROR(ReadU64(&raw));
    e = static_cast<size_t>(raw);
  }
  return Status::Ok();
}

Status BinaryReader::ReadDoubleVector(std::vector<double>* v,
                                      uint32_t max_len) {
  std::string_view bytes;
  SCEC_RETURN_IF_ERROR(ReadDoubleVectorView(&bytes, max_len));
  v->resize(bytes.size() / 8);
  LoadWords(bytes.data(), std::span<double>(*v));
  return Status::Ok();
}

Status BinaryReader::ReadDoubleVectorView(std::string_view* v,
                                          uint32_t max_len) {
  uint32_t len = 0;
  SCEC_RETURN_IF_ERROR(ReadCount(&len, max_len, 8, "vector"));
  return ReadView(8 * static_cast<size_t>(len), v);
}

std::string ReadAll(std::istream& is) {
  std::string out;
  char chunk[1 << 14];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    out.append(chunk, static_cast<size_t>(is.gcount()));
  }
  return out;
}

}  // namespace scec
