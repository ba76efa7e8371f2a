// SPDX-License-Identifier: MIT

#include "coding/security_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "linalg/elimination.h"

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

// Eq. (8)'s rows in the structured form, pad q as column m + q (DenseB's).
std::vector<ViewRow> CodeRows(const StructuredCode& code) {
  std::vector<ViewRow> rows;
  for (size_t index = 0; index < code.total_rows(); ++index) {
    const CodedRowSpec spec = code.RowSpec(index);
    ViewRow row;
    if (spec.data_row.has_value()) row.data_col = *spec.data_row;
    row.pad_col = code.m() + spec.random_row;
    rows.push_back(row);
  }
  return rows;
}

Matrix<Gf61> DenseRows(std::span<const ViewRow> rows, size_t width) {
  Matrix<Gf61> block(rows.size(), width);
  for (size_t row = 0; row < rows.size(); ++row) {
    if (rows[row].data_col != kNoColumn) {
      block(row, rows[row].data_col) = Gf61::One();
    }
    if (rows[row].pad_col != kNoColumn) {
      block(row, rows[row].pad_col) = Gf61::One();
    }
  }
  return block;
}

// The exact-rank oracle for one view: (rank, dim(L(block) ∩ L([E_m | 0]))).
std::pair<size_t, size_t> OracleRankAndLeak(const Matrix<Gf61>& block,
                                            size_t m) {
  Matrix<Gf61> lambda(m, block.cols());
  for (size_t row = 0; row < m; ++row) lambda(row, row) = Gf61::One();
  return {RankOf(block), SpanIntersectionDim(block, lambda)};
}

// Theorem 3: the structured code satisfies availability + ITS for every
// canonical scheme. Parameterised across (m, r).
class Theorem3Test
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(Theorem3Test, StructuredSchemeIsAvailableAndSecure) {
  const auto [m, r] = GetParam();
  const StructuredCode code(m, r);
  const LcecScheme scheme = CanonicalScheme(m, r);
  const SchemeSecurityReport report = VerifyStructuredScheme(code, scheme);
  EXPECT_TRUE(report.available) << report.Summary();
  EXPECT_TRUE(report.all_secure) << report.Summary();
  EXPECT_EQ(report.b_rank, m + r);
  for (const auto& device : report.devices) {
    EXPECT_EQ(device.intersection_dim, 0u);
    EXPECT_EQ(device.rank, device.rows) << "blocks are full row rank";
  }
  EXPECT_TRUE(CheckSchemeSecure(code, scheme).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem3Test,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(3, 1), std::make_tuple(4, 2),
                      std::make_tuple(5, 2), std::make_tuple(5, 5),
                      std::make_tuple(6, 3), std::make_tuple(7, 3),
                      std::make_tuple(8, 4), std::make_tuple(9, 3),
                      std::make_tuple(10, 4), std::make_tuple(12, 6),
                      std::make_tuple(16, 5), std::make_tuple(20, 7)));

TEST(SecurityCheck, NonCanonicalPartitionsWithSmallBlocksAreStillSecure) {
  // Any contiguous partition with every block <= r rows is secure for the
  // structured B (generalisation verified exactly here).
  const size_t m = 8, r = 3;
  const StructuredCode code(m, r);
  const std::vector<std::vector<size_t>> partitions = {
      {3, 3, 3, 2},       // canonical
      {3, 2, 3, 3},       // shifted boundaries
      {1, 2, 3, 2, 3},    // ragged
      {2, 2, 2, 2, 2, 1}  // many small blocks
  };
  for (const auto& counts : partitions) {
    const auto report = VerifyEncodingMatrix(code.DenseB<Gf61>(), m, counts);
    EXPECT_TRUE(report.available);
    EXPECT_TRUE(report.all_secure)
        << "partition failed: " << report.Summary();
  }
}

TEST(SecurityCheck, BlockLargerThanRLeaks) {
  // A block with r+1 consecutive mixed rows contains A_p + R_q and
  // A_{p+r} + R_q: their difference is A_p − A_{p+r} ∈ data span.
  const size_t m = 8, r = 3;
  const StructuredCode code(m, r);
  const std::vector<size_t> counts = {3, 4, 2, 2};  // second block too big
  const auto report = VerifyEncodingMatrix(code.DenseB<Gf61>(), m, counts);
  EXPECT_TRUE(report.available);
  EXPECT_FALSE(report.all_secure);
  EXPECT_FALSE(report.devices[1].secure());
  EXPECT_GE(report.devices[1].intersection_dim, 1u);
}

TEST(SecurityCheck, UncodedSchemeLeaksEverything) {
  // The traditional scheme of Fig. 1(a): devices store raw rows of A. Model
  // it as B = [E_m | E_{m,r}]-less, i.e. identity coefficients and r pure
  // pad rows appended so dimensions still work.
  const size_t m = 4, r = 2;
  Matrix<Gf61> b(m + r, m + r);
  for (size_t row = 0; row < m; ++row) b(row, row) = Gf61::One();      // raw A
  for (size_t row = 0; row < r; ++row) {
    b(m + row, m + row) = Gf61::One();  // pads (never help: rows are raw)
  }
  const auto report = VerifyEncodingMatrix(b, m, {2, 2, 2});
  EXPECT_FALSE(report.all_secure);
  // Devices 0 and 1 hold raw data rows: both leak with dimension == rows.
  EXPECT_EQ(report.devices[0].intersection_dim, 2u);
  EXPECT_EQ(report.devices[1].intersection_dim, 2u);
}

TEST(SecurityCheck, SingularBFailsAvailability) {
  Matrix<Gf61> b(4, 4);  // rank 0
  const auto report = VerifyEncodingMatrix(b, 2, {2, 2});
  EXPECT_FALSE(report.available);
  EXPECT_EQ(report.b_rank, 0u);
}

TEST(SecurityCheck, StatusFormPropagatesViolation) {
  // Build a scheme whose partition is canonical but probe the Status API
  // with a leaking partition through VerifyEncodingMatrix's caller.
  const size_t m = 4, r = 1;
  const StructuredCode code(m, r);
  LcecScheme bad;
  bad.m = m;
  bad.r = r;
  bad.row_counts = {1, 1, 1, 1, 1};
  EXPECT_TRUE(CheckSchemeSecure(code, bad).ok())
      << "r = 1 canonical split is secure";
}

TEST(SecurityCheck, ReportSummaryMentionsFailure) {
  const size_t m = 8, r = 3;
  const StructuredCode code(m, r);
  const auto report =
      VerifyEncodingMatrix(code.DenseB<Gf61>(), m, {3, 4, 2, 2});
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("FAIL"), std::string::npos);
  EXPECT_NE(summary.find("device 1"), std::string::npos);
}

// --- Differential tests: structured checker vs the exact-rank oracle -------

// Every m <= 24 and r in [1, m], canonical and random contiguous partitions
// (some with blocks larger than r, which must leak): the structured report
// equals VerifyEncodingMatrix field for field.
TEST(StructuredCheckOracle, EveryPartitionUpToM24MatchesExactRank) {
  Xoshiro256StarStar rng(0x5EC12);
  size_t leaking_blocks = 0;
  for (size_t m = 1; m <= 24; ++m) {
    for (size_t r = 1; r <= m; ++r) {
      const StructuredCode code(m, r);
      const Matrix<Gf61> dense = code.DenseB<Gf61>();
      const std::vector<ViewRow> rows = CodeRows(code);
      std::vector<std::vector<size_t>> partitions = {
          CanonicalScheme(m, r).row_counts};
      for (const size_t cap : {r, m + r}) {
        std::vector<size_t> counts;
        for (size_t left = m + r; left > 0;) {
          const size_t take = 1 + rng.NextBelow(std::min(cap, left));
          counts.push_back(take);
          left -= take;
        }
        partitions.push_back(counts);
      }
      for (const std::vector<size_t>& counts : partitions) {
        const SchemeSecurityReport oracle =
            VerifyEncodingMatrix(dense, m, counts);
        EXPECT_EQ(VerifyViewRows(rows, m).rank, oracle.b_rank);
        bool within_r = true;
        size_t start = 0;
        for (size_t d = 0; d < counts.size(); ++d) {
          const DeviceSecurityReport fast = VerifyViewRows(
              std::span<const ViewRow>(rows).subspan(start, counts[d]), m);
          ASSERT_EQ(fast.rows, oracle.devices[d].rows);
          EXPECT_EQ(fast.rank, oracle.devices[d].rank)
              << "m=" << m << " r=" << r << " device " << d;
          EXPECT_EQ(fast.intersection_dim, oracle.devices[d].intersection_dim)
              << "m=" << m << " r=" << r << " device " << d;
          if (counts[d] > r) {
            within_r = false;
            EXPECT_GE(fast.intersection_dim, 1u) << "block > r must leak";
            ++leaking_blocks;
          }
          start += counts[d];
        }
        if (!within_r) continue;  // VerifyStructuredScheme enforces Lemma 1
        LcecScheme scheme;
        scheme.m = m;
        scheme.r = r;
        scheme.row_counts = counts;
        const SchemeSecurityReport structured =
            VerifyStructuredScheme(code, scheme);
        EXPECT_EQ(structured.b_rank, oracle.b_rank);
        EXPECT_EQ(structured.available, oracle.available);
        EXPECT_EQ(structured.all_secure, oracle.all_secure);
        ASSERT_EQ(structured.devices.size(), oracle.devices.size());
        for (size_t d = 0; d < counts.size(); ++d) {
          EXPECT_EQ(structured.devices[d].device, d);
          EXPECT_EQ(structured.devices[d].rows, oracle.devices[d].rows);
          EXPECT_EQ(structured.devices[d].rank, oracle.devices[d].rank);
          EXPECT_EQ(structured.devices[d].intersection_dim,
                    oracle.devices[d].intersection_dim);
        }
      }
    }
  }
  EXPECT_GT(leaking_blocks, 100u);
}

// Random cumulative views: several pad generations, duplicate rows, pure pad
// rows, data-only rows, zero rows, and data columns shared across pads.
TEST(StructuredCheckOracle, RandomRowMultisetsMatchExactRank) {
  Xoshiro256StarStar rng(0xD1FF);
  size_t leaking = 0, secure = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const size_t m = 1 + rng.NextBelow(12);
    size_t pads = 0;
    const size_t generations = 1 + rng.NextBelow(3);
    for (size_t g = 0; g < generations; ++g) pads += 1 + rng.NextBelow(m);
    const size_t width = m + pads;
    std::vector<ViewRow> rows;
    const size_t num_rows = rng.NextBelow(2 * m + 4);
    for (size_t i = 0; i < num_rows; ++i) {
      ViewRow row;
      const uint64_t kind = rng.NextBelow(20);
      if (kind < 2 && !rows.empty()) {
        row = rows[rng.NextBelow(rows.size())];  // duplicate
      } else if (kind < 5) {
        row.pad_col = m + rng.NextBelow(pads);  // pure pad
      } else if (kind < 7) {
        row.data_col = rng.NextBelow(m);  // data only
      } else if (kind < 8) {
        // zero row: no data, no pad
      } else {
        row.data_col = rng.NextBelow(m);
        row.pad_col = m + rng.NextBelow(pads);
      }
      rows.push_back(row);
    }
    const Matrix<Gf61> block = DenseRows(rows, width);
    const auto [rank, leak] = OracleRankAndLeak(block, m);
    const DeviceSecurityReport fast = VerifyViewRows(rows, m);
    ASSERT_EQ(fast.rows, rows.size());
    ASSERT_EQ(fast.rank, rank) << "trial " << trial;
    ASSERT_EQ(fast.intersection_dim, leak) << "trial " << trial;
    const DeviceSecurityReport dense = VerifyCumulativeView(block, m);
    ASSERT_EQ(dense.rank, rank) << "trial " << trial;
    ASSERT_EQ(dense.intersection_dim, leak) << "trial " << trial;
    (leak > 0 ? leaking : secure) += 1;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(leaking, 500u);
  EXPECT_GT(secure, 200u);
}

// Dense blocks outside the 0/1 structured shape take the exact-rank
// fallback. Each case is built so that reading it as structured rows would
// give a different answer than the oracle.
TEST(StructuredCheckOracle, NonStructuredBlocksFallBackToExactRank) {
  const size_t m = 3, width = 5;
  const Gf61 two = Gf61::One() + Gf61::One();
  std::vector<Matrix<Gf61>> blocks;
  {
    // e0 + e3 and 2·e0 + e3: difference −e0 leaks.
    Matrix<Gf61> b(2, width);
    b(0, 0) = Gf61::One();
    b(0, 3) = Gf61::One();
    b(1, 0) = two;
    b(1, 3) = Gf61::One();
    blocks.push_back(b);
  }
  {
    // e0 + e1 + e3 and e0 + e3: two data entries in a row; e1 leaks.
    Matrix<Gf61> b(2, width);
    b(0, 0) = Gf61::One();
    b(0, 1) = Gf61::One();
    b(0, 3) = Gf61::One();
    b(1, 0) = Gf61::One();
    b(1, 3) = Gf61::One();
    blocks.push_back(b);
  }
  {
    // e0 + e3 + e4 and e1 + e3 + e4: two pad entries, difference leaks.
    Matrix<Gf61> b(2, width);
    for (size_t row = 0; row < 2; ++row) {
      b(row, row) = Gf61::One();
      b(row, 3) = Gf61::One();
      b(row, 4) = Gf61::One();
    }
    blocks.push_back(b);
  }
  {
    // e0 + 2·e3 and e1 + e4: scaled pad, nothing leaks.
    Matrix<Gf61> b(2, width);
    b(0, 0) = Gf61::One();
    b(0, 3) = two;
    b(1, 1) = Gf61::One();
    b(1, 4) = Gf61::One();
    blocks.push_back(b);
  }
  Xoshiro256StarStar rng(0xFA11);
  for (int trial = 0; trial < 200; ++trial) {
    Matrix<Gf61> b(1 + rng.NextBelow(6), width);
    for (size_t row = 0; row < b.rows(); ++row) {
      for (size_t col = 0; col < width; ++col) {
        if (rng.NextBelow(3) == 0) b(row, col) = Gf61(rng.NextBelow(3));
      }
    }
    blocks.push_back(b);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    const auto [rank, leak] = OracleRankAndLeak(blocks[i], m);
    const DeviceSecurityReport report = VerifyCumulativeView(blocks[i], m);
    EXPECT_EQ(report.rank, rank) << "block " << i;
    EXPECT_EQ(report.intersection_dim, leak) << "block " << i;
  }
  EXPECT_EQ(VerifyCumulativeView(blocks[0], m).intersection_dim, 1u);
  EXPECT_EQ(VerifyCumulativeView(blocks[1], m).intersection_dim, 1u);
  EXPECT_EQ(VerifyCumulativeView(blocks[2], m).intersection_dim, 1u);
  EXPECT_EQ(VerifyCumulativeView(blocks[3], m).intersection_dim, 0u);
}

// Report index i is views[i], empty views included, so a leak names the
// device that holds it.
TEST(StructuredCheckOracle, CumulativeReportIndexesEveryView) {
  const size_t m = 4;
  const std::vector<std::vector<ViewRow>> views = {
      {},
      {{0, m + 0}, {1, m + 1}},
      {},
      {{2, m + 2}, {3, m + 2}},  // shared pad: A_2 − A_3 leaks
  };
  const SchemeSecurityReport report = VerifyCumulativeViews(views, m);
  ASSERT_EQ(report.devices.size(), views.size());
  EXPECT_FALSE(report.all_secure);
  for (size_t d = 0; d < views.size(); ++d) {
    EXPECT_EQ(report.devices[d].device, d);
    EXPECT_EQ(report.devices[d].rows, views[d].size());
    EXPECT_EQ(report.devices[d].secure(), d != 3);
  }
  EXPECT_EQ(report.LeakSummary(), " [device 3 leaks dim=1]");
}

}  // namespace
}  // namespace scec
