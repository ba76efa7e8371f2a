// SPDX-License-Identifier: MIT

#include "common/serde.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

// The allocation-bound tests replace global operator new/delete with
// byte-counting versions. Sanitizer runtimes own the allocator, so the
// byte counts are only asserted outside them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCEC_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCEC_ALLOC_COUNTER 0
#else
#define SCEC_ALLOC_COUNTER 1
#endif
#else
#define SCEC_ALLOC_COUNTER 1
#endif

#if SCEC_ALLOC_COUNTER
// GCC pairs the malloc-backed replacement operator new with the library
// operator delete at inlined call sites and warns; the pairing is fine
// because both replacements below are global.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<bool> g_count_bytes{false};
std::atomic<size_t> g_bytes_requested{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_bytes_requested.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // SCEC_ALLOC_COUNTER

namespace scec {
namespace {

TEST(Serde, ScalarRoundTrip) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteDouble(3.141592653589793);
  writer.WriteDouble(-0.0);
  writer.WriteDouble(std::numeric_limits<double>::infinity());
  EXPECT_EQ(buf.size(), 1u + 4 + 8 + 3 * 8);
  EXPECT_EQ(buf.substr(1, 4), std::string("\xEF\xBE\xAD\xDE", 4));

  BinaryReader reader(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d1, d2, d3;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d1).ok());
  ASSERT_TRUE(reader.ReadDouble(&d2).ok());
  ASSERT_TRUE(reader.ReadDouble(&d3).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(d1, 3.141592653589793);
  EXPECT_EQ(d2, 0.0);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_TRUE(std::isinf(d3));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Serde, StringRoundTrip) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteString("hello");
  writer.WriteString("");
  writer.WriteString(std::string("\0with\0nuls", 10));

  BinaryReader reader(buf);
  std::string a, b, c;
  ASSERT_TRUE(reader.ReadString(&a).ok());
  ASSERT_TRUE(reader.ReadString(&b).ok());
  ASSERT_TRUE(reader.ReadString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string("\0with\0nuls", 10));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Serde, VectorRoundTrip) {
  const std::vector<uint64_t> u_in = {1, 2, 3};
  const std::vector<size_t> s_in = {7, 8};
  const std::vector<double> d_in = {1.5, -2.5};
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU64Vector(u_in);
  writer.WriteSizeVector(s_in);
  writer.WriteDoubleVector(d_in);
  writer.WriteDoubleVector({});

  BinaryReader reader(buf);
  std::vector<uint64_t> u;
  std::vector<size_t> s;
  std::vector<double> d;
  std::vector<double> empty = {9.0};
  ASSERT_TRUE(reader.ReadU64Vector(&u).ok());
  ASSERT_TRUE(reader.ReadSizeVector(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&d).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&empty).ok());
  EXPECT_EQ(u, u_in);
  EXPECT_EQ(s, s_in);
  EXPECT_EQ(d, d_in);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Serde, TruncatedStreamIsDecodeFailure) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(42);

  BinaryReader reader(buf);
  uint64_t v;  // asks for 8 bytes but only 4 available
  const Status status = reader.ReadU64(&v);
  EXPECT_EQ(status.code(), ErrorCode::kDecodeFailure);
  EXPECT_EQ(reader.remaining(), 4u);  // a failed read consumes nothing

  // A vector whose count fits its limit but whose elements run past the
  // end of the input.
  std::string short_vector;
  BinaryWriter vector_writer(&short_vector);
  vector_writer.WriteU32(3);
  vector_writer.WriteDouble(1.0);
  vector_writer.WriteDouble(2.0);
  std::vector<double> d;
  EXPECT_EQ(BinaryReader(short_vector).ReadDoubleVector(&d).code(),
            ErrorCode::kDecodeFailure);
}

TEST(Serde, OversizedStringRejected) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(1000);  // claims 1000 bytes, provides none
  BinaryReader reader(buf);
  std::string s;
  EXPECT_EQ(reader.ReadString(&s, /*max_len=*/10).code(),
            ErrorCode::kDecodeFailure);
}

TEST(Serde, OversizedVectorRejected) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(0xFFFFFFFF);
  BinaryReader reader(buf);
  std::vector<uint64_t> v;
  EXPECT_EQ(reader.ReadU64Vector(&v, 100).code(), ErrorCode::kDecodeFailure);
}

TEST(Serde, EmptyStreamFailsCleanly) {
  BinaryReader reader(std::string_view{});
  uint8_t v;
  EXPECT_FALSE(reader.ReadU8(&v).ok());
}

// Bytes requested from operator new while `fn` runs.
template <typename Fn>
size_t BytesAllocatedBy(Fn&& fn) {
#if SCEC_ALLOC_COUNTER
  g_bytes_requested.store(0);
  g_count_bytes.store(true);
  fn();
  g_count_bytes.store(false);
  return g_bytes_requested.load();
#else
  fn();
  return 0;
#endif
}

// A length prefix within its limit but beyond the bytes left must fail
// before anything is allocated: a 20-byte body claiming 2^26 - 1 doubles
// may not make the reader reserve 512 MiB.
TEST(Serde, LengthPrefixIsCheckedBeforeAllocating) {
  constexpr uint32_t kHugeCount = (1u << 26) - 1;
  std::string body;
  BinaryWriter writer(&body);
  writer.WriteU64(1);  // rpc_id
  writer.WriteU64(2);  // share_id
  writer.WriteU32(kHugeCount);
  ASSERT_EQ(body.size(), 20u);

  Status status;
  const size_t bytes = BytesAllocatedBy([&] {
    BinaryReader reader(body);
    uint64_t skip;
    ASSERT_TRUE(reader.ReadU64(&skip).ok());
    ASSERT_TRUE(reader.ReadU64(&skip).ok());
    std::vector<double> values;
    status = reader.ReadDoubleVector(&values);
  });
  EXPECT_EQ(status.code(), ErrorCode::kDecodeFailure);
  EXPECT_LT(bytes, 4096u) << "decoder allocated before validating the count";

  std::string prefix_only;
  BinaryWriter(&prefix_only).WriteU32(kHugeCount);
  const size_t vector_bytes = BytesAllocatedBy([&] {
    std::vector<uint64_t> u;
    EXPECT_FALSE(BinaryReader(prefix_only).ReadU64Vector(&u).ok());
    std::vector<size_t> s;
    EXPECT_FALSE(BinaryReader(prefix_only).ReadSizeVector(&s).ok());
  });
  EXPECT_LT(vector_bytes, 4096u);

  std::string string_prefix;
  BinaryWriter(&string_prefix).WriteU32(1u << 20);  // at the string limit
  const size_t string_bytes = BytesAllocatedBy([&] {
    std::string s;
    EXPECT_FALSE(BinaryReader(string_prefix).ReadString(&s).ok());
  });
  EXPECT_LT(string_bytes, 4096u);
}

}  // namespace
}  // namespace scec
