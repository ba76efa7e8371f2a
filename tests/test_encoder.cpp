// SPDX-License-Identifier: MIT

#include "coding/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "linalg/elimination.h"
#include "linalg/matrix_ops.h"

namespace scec {
namespace {

LcecScheme CanonicalScheme(size_t m, size_t r) {
  LcecScheme scheme;
  scheme.m = m;
  scheme.r = r;
  scheme.row_counts.push_back(r);
  size_t remaining = m;
  while (remaining > 0) {
    const size_t take = std::min(r, remaining);
    scheme.row_counts.push_back(take);
    remaining -= take;
  }
  return scheme;
}

// FNV-1a over each pad element's bytes (double bits, Gf61 value, Gf256
// byte) for two consecutive GeneratePadRows calls, then over the next
// stream word, so the pin covers the values and where the stream stops.
template <typename T>
uint64_t PadStreamHash(size_t r, size_t l, uint64_t seed) {
  ChaCha20Rng rng(seed);
  uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001B3ull;
    }
  };
  for (int rep = 0; rep < 2; ++rep) {
    const Matrix<T> pads = GeneratePadRows<T>(r, l, rng);
    for (const T& v : pads.Data()) {
      if constexpr (std::is_same_v<T, double>) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(&bits, 8);
      } else if constexpr (std::is_same_v<T, Gf256>) {
        const uint8_t byte = v.value();
        mix(&byte, 1);
      } else {
        const uint64_t value = v.value();
        mix(&value, 8);
      }
    }
  }
  const uint32_t next = rng.NextUint32();
  mix(&next, 4);
  return h;
}

TEST(Encoder, PadStreamIsPinnedAtFixedSeeds) {
  // Recorded with the one-block-at-a-time generator and per-element draws
  // that preceded the bulk keystream: pads must not change with it.
  struct Pin {
    size_t r, l;
    uint64_t seed, f64, gf61, gf256;
  };
  const Pin pins[] = {
      {1, 1, 0x1ull, 0x8FF98696500BDA1Dull, 0xB25CA19AD8ACD254ull,
       0x802538909B1534C4ull},
      {1, 1, 0x5ECull, 0x50BC556513F1E332ull, 0x6E7955196F27FFC2ull,
       0x9952F864FA6969C0ull},
      {1, 1, 0xDEADBEEFull, 0x45A75049C30AF26Eull, 0x0E0CA5E8BA834DB8ull,
       0x804926AD236BA32Cull},
      {3, 7, 0x1ull, 0xC026E5A996FEC204ull, 0xFE59BC8AD4A0F802ull,
       0xADE006D2E4A43691ull},
      {3, 7, 0x5ECull, 0xDE14E57663BDDE07ull, 0xAE34534A845CC0F1ull,
       0xAC4F5940ADB47733ull},
      {3, 7, 0xDEADBEEFull, 0xA0416F4238672F7Bull, 0x376FF2BDF040CB0Eull,
       0x57902A42C0AD94C9ull},
      {205, 1024, 0x1ull, 0x2A56F62329F6C4D4ull, 0xC49EC80DAAE1DAB0ull,
       0x534F927E2AB3BF1Cull},
      {205, 1024, 0x5ECull, 0x2A16E8DF46DED017ull, 0x038FD968F6A3337Full,
       0xE118B9157976D737ull},
      {205, 1024, 0xDEADBEEFull, 0x371936164503DFC6ull, 0x1447331290EFAC80ull,
       0x6A856423D78A4175ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << pin.r << "x" << pin.l << " seed "
                                      << pin.seed);
    EXPECT_EQ(PadStreamHash<double>(pin.r, pin.l, pin.seed), pin.f64);
    EXPECT_EQ(PadStreamHash<Gf61>(pin.r, pin.l, pin.seed), pin.gf61);
    EXPECT_EQ(PadStreamHash<Gf256>(pin.r, pin.l, pin.seed), pin.gf256);
  }
}

TEST(Encoder, PadRowsAreDeterministicPerSeed) {
  ChaCha20Rng a(99), b(99), c(100);
  const auto pads_a = GeneratePadRows<Gf61>(3, 4, a);
  const auto pads_b = GeneratePadRows<Gf61>(3, 4, b);
  const auto pads_c = GeneratePadRows<Gf61>(3, 4, c);
  EXPECT_EQ(pads_a, pads_b);
  EXPECT_NE(pads_a, pads_c);
}

TEST(Encoder, SharesMatchDenseMatrixProduct) {
  // Structural encoding must equal B·T computed densely.
  ChaCha20Rng rng(7);
  const size_t m = 6, r = 3, l = 4;
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  const auto a = RandomMatrix<Gf61>(m, l, rng);
  const auto pads = GeneratePadRows<Gf61>(r, l, rng);
  const auto shares = EncodeShares(code, scheme, a, pads);

  const Matrix<Gf61> t = a.VStack(pads);  // T = [A; R]
  const Matrix<Gf61> b = code.DenseB<Gf61>();
  const Matrix<Gf61> bt = MatMul(b, t);

  size_t start = 0;
  for (const auto& share : shares) {
    for (size_t row = 0; row < share.coded_rows.rows(); ++row) {
      for (size_t col = 0; col < l; ++col) {
        EXPECT_EQ(share.coded_rows(row, col), bt(start + row, col));
      }
    }
    start += share.coded_rows.rows();
  }
  EXPECT_EQ(start, m + r);
}

TEST(Encoder, DeviceOneHoldsPureRandomRows) {
  ChaCha20Rng rng(8);
  const size_t m = 5, r = 2, l = 3;
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  const auto a = RandomMatrix<Gf61>(m, l, rng);
  const auto pads = GeneratePadRows<Gf61>(r, l, rng);
  const auto shares = EncodeShares(code, scheme, a, pads);
  ASSERT_EQ(shares[0].coded_rows.rows(), r);
  EXPECT_EQ(shares[0].coded_rows, pads);
}

TEST(Encoder, MixedRowsAreDataPlusPad) {
  ChaCha20Rng rng(9);
  const size_t m = 5, r = 2, l = 3;
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  const auto a = RandomMatrix<Gf61>(m, l, rng);
  const auto pads = GeneratePadRows<Gf61>(r, l, rng);
  const auto shares = EncodeShares(code, scheme, a, pads);
  // Device 2 holds rows A_0 + R_0, A_1 + R_1.
  for (size_t row = 0; row < 2; ++row) {
    for (size_t col = 0; col < l; ++col) {
      EXPECT_EQ(shares[1].coded_rows(row, col),
                a(row, col) + pads(row % r, col));
    }
  }
}

TEST(Encoder, ShareSizesFollowScheme) {
  ChaCha20Rng rng(10);
  const size_t m = 10, r = 4, l = 2;
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  const auto deployment = EncodeDeployment(
      code, scheme, RandomMatrix<Gf61>(m, l, rng), rng);
  ASSERT_EQ(deployment.shares.size(), scheme.num_devices());
  for (size_t d = 0; d < deployment.shares.size(); ++d) {
    EXPECT_EQ(deployment.shares[d].coded_rows.rows(), scheme.row_counts[d]);
    EXPECT_EQ(deployment.shares[d].coded_rows.cols(), l);
    EXPECT_EQ(deployment.shares[d].device, d);
  }
}

TEST(Encoder, DoubleScalarsWork) {
  ChaCha20Rng rng(11);
  const size_t m = 4, r = 2, l = 3;
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  Xoshiro256StarStar data_rng(5);
  const auto a = RandomMatrix<double>(m, l, data_rng);
  const auto deployment = EncodeDeployment(code, scheme, a, rng);
  EXPECT_EQ(deployment.shares.size(), 3u);
  // Mixed row check: share[1] row 0 == a row 0 + pad row 0.
  for (size_t col = 0; col < l; ++col) {
    EXPECT_DOUBLE_EQ(deployment.shares[1].coded_rows(0, col),
                     a(0, col) + deployment.pads(0, col));
  }
}

TEST(EncoderDeathTest, DimensionMismatchesAbort) {
  ChaCha20Rng rng(12);
  const StructuredCode code(4, 2);
  const LcecScheme scheme = CanonicalScheme(4, 2);
  const auto a = RandomMatrix<Gf61>(3, 3, rng);  // wrong m
  const auto pads = GeneratePadRows<Gf61>(2, 3, rng);
  EXPECT_DEATH(EncodeShares(code, scheme, a, pads), "");
}

}  // namespace
}  // namespace scec
