// SPDX-License-Identifier: MIT
//
// core/segment: the one layout both protocol drivers decode, plan, encode
// and audit through. Decoding is checked against SubtractionDecode over
// every small shape, the cumulative views against VerifyStructuredScheme,
// and the journal form against the segment it was written from.

#include "core/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "coding/decoder.h"
#include "common/rng.h"
#include "core/problem.h"

namespace scec {
namespace {

// TA's shape: r pure pad rows on slot 0, the m mixed rows split as evenly
// as possible over the other k−1 slots (each ≤ r).
std::vector<size_t> CanonicalCounts(size_t m, size_t r, size_t k) {
  std::vector<size_t> counts = {r};
  for (size_t j = 0; j + 1 < k; ++j) {
    const size_t share = m / (k - 1) + (j < m % (k - 1) ? 1 : 0);
    if (share > 0) counts.push_back(share);
  }
  return counts;
}

// Any contiguous partition of B's m+r rows into blocks of 1..r rows.
std::vector<size_t> RandomCounts(size_t m, size_t r, Xoshiro256StarStar* rng) {
  std::vector<size_t> counts;
  for (size_t left = m + r; left > 0;) {
    const size_t take = std::min(left, 1 + rng->Next() % r);
    counts.push_back(take);
    left -= take;
  }
  return counts;
}

std::vector<size_t> Shuffled(std::vector<size_t> values,
                             Xoshiro256StarStar* rng) {
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng->Next() % i]);
  }
  return values;
}

CodedSegment MakeSegment(size_t m, size_t r, std::vector<size_t> counts,
                         std::vector<size_t> data_rows) {
  const size_t slots = counts.size();
  std::vector<size_t> devices(slots);
  std::iota(devices.begin(), devices.end(), size_t{0});
  return CodedSegment(std::move(data_rows), StructuredCode(m, r),
                      SchemeFromRowCounts(m, r, counts), std::move(devices));
}

// Splits y (one value per coded row of B) into per-slot responses.
SlotResponses<double> SplitResponses(const LcecScheme& scheme,
                                     const std::vector<double>& y) {
  SlotResponses<double> responses;
  size_t row = 0;
  for (size_t count : scheme.row_counts) {
    responses.emplace_back(std::vector<double>(y.begin() + row,
                                               y.begin() + row + count));
    row += count;
  }
  return responses;
}

void ExpectDecodesLikeSubtractionDecode(const CodedSegment& seg,
                                        Xoshiro256StarStar* rng) {
  const size_t m = seg.code().m();
  const size_t r = seg.code().r();
  std::vector<double> y(m + r);
  for (double& value : y) {
    value = static_cast<double>(rng->Next() % 2001) - 1000.0;
  }
  const std::vector<double> reference =
      SubtractionDecode(seg.code(), std::span<const double>(y));
  SlotResponses<double> responses = SplitResponses(seg.scheme(), y);

  std::vector<std::optional<double>> decoded(m);
  EXPECT_EQ(DecodeSegment(seg, responses, &decoded), m);
  for (size_t p = 0; p < m; ++p) {
    ASSERT_TRUE(decoded[seg.data_rows()[p]].has_value());
    EXPECT_EQ(*decoded[seg.data_rows()[p]], reference[p]);
  }
  EXPECT_TRUE(MissingRows(decoded).empty());

  // One slot silent: exactly the rows whose pad row (p mod r) and mixed row
  // (r + p) both lie outside that slot's block still decode.
  size_t start = 0;
  for (size_t slot = 0; slot < seg.num_slots(); ++slot) {
    const size_t end = start + seg.scheme().row_counts[slot];
    const auto in_slot = [&](size_t row) { return row >= start && row < end; };
    SlotResponses<double> missing_one = responses;
    missing_one[slot].reset();
    std::vector<std::optional<double>> partial(m);
    DecodeSegment(seg, missing_one, &partial);
    for (size_t p = 0; p < m; ++p) {
      const bool avoids = !in_slot(p % r) && !in_slot(r + p);
      const std::optional<double>& got = partial[seg.data_rows()[p]];
      EXPECT_EQ(got.has_value(), avoids)
          << "m=" << m << " r=" << r << " slot=" << slot << " p=" << p;
      if (avoids && got.has_value()) {
        EXPECT_EQ(*got, reference[p]);
      }
    }
    start = end;
  }
}

TEST(CodedSegment, DecodeMatchesSubtractionDecodeOnEverySmallShape) {
  Xoshiro256StarStar rng(2024);
  size_t shapes = 0;
  for (size_t m = 1; m <= 16; ++m) {
    for (size_t k = 2; k <= m + 1; ++k) {
      const size_t r_min = (m + k - 2) / (k - 1);  // ⌈m / (k−1)⌉
      for (size_t r = r_min; r <= m; ++r) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " r=" + std::to_string(r));
        ExpectDecodesLikeSubtractionDecode(
            MakeSegment(m, r, CanonicalCounts(m, r, k), AllRows(m)), &rng);
        ExpectDecodesLikeSubtractionDecode(
            MakeSegment(m, r, RandomCounts(m, r, &rng),
                        Shuffled(AllRows(m), &rng)),
            &rng);
        shapes += 2;
      }
    }
  }
  EXPECT_GT(shapes, 1000u);
}

TEST(CodedSegment, DecodeKeepsRowsAlreadyDecoded) {
  const CodedSegment seg = MakeSegment(4, 2, {2, 2, 2}, {7, 1, 4, 0});
  const SlotResponses<double> responses = {std::vector<double>{1, 2},
                                           std::vector<double>{10, 20},
                                           std::vector<double>{30, 40}};
  std::vector<std::optional<double>> decoded(8);
  decoded[1] = -5.0;  // decoded by an earlier segment
  EXPECT_EQ(DecodeSegment(seg, responses, &decoded), 3u);
  EXPECT_EQ(decoded[7], 9.0);   // 10 − 1
  EXPECT_EQ(decoded[1], -5.0);  // untouched
  EXPECT_EQ(decoded[4], 29.0);  // 30 − 1
  EXPECT_EQ(decoded[0], 38.0);  // 40 − 2
  EXPECT_EQ(MissingRows(decoded), (std::vector<size_t>{2, 3, 5, 6}));
}

TEST(CodedSegment, ViewsMatchVerifyStructuredSchemePerDevice) {
  Xoshiro256StarStar rng(7);
  for (size_t m = 1; m <= 16; ++m) {
    for (size_t r = 1; r <= m; ++r) {
      const std::vector<size_t> counts = RandomCounts(m, r, &rng);
      // Slots land on a shuffled subset of a larger fleet.
      const size_t fleet = counts.size() + 3;
      std::vector<size_t> devices = Shuffled(AllRows(fleet), &rng);
      devices.resize(counts.size());
      const CodedSegment seg(AllRows(m), StructuredCode(m, r),
                             SchemeFromRowCounts(m, r, counts), devices);
      CumulativeViews views(fleet, m);
      views.Add(seg);

      const SchemeSecurityReport got = views.Verify();
      const SchemeSecurityReport want =
          VerifyStructuredScheme(seg.code(), seg.scheme());
      ASSERT_EQ(got.devices.size(), fleet);
      EXPECT_EQ(got.all_secure, want.all_secure);
      std::vector<bool> used(fleet, false);
      for (size_t slot = 0; slot < seg.num_slots(); ++slot) {
        const DeviceSecurityReport& dev = got.devices[devices[slot]];
        used[devices[slot]] = true;
        EXPECT_EQ(dev.rows, want.devices[slot].rows);
        EXPECT_EQ(dev.rank, want.devices[slot].rank);
        EXPECT_EQ(dev.intersection_dim, want.devices[slot].intersection_dim);
      }
      for (size_t d = 0; d < fleet; ++d) {
        if (!used[d]) {
          EXPECT_EQ(got.devices[d].rows, 0u);
        }
      }
      EXPECT_EQ(views.pad_columns(), r);
    }
  }
}

TEST(CodedSegment, FreshPadsKeepSwappedRoundsSecure) {
  // Two rounds over the same two devices with the roles swapped: each
  // device ends up holding pads of one round and mixed rows of the other.
  // Only because the second round's pad columns are new does neither stack
  // meet the data span.
  const CodedSegment seg = PairSegment({0, 1, 2}, /*pad_device=*/0,
                                       /*mixed_device=*/1);
  CumulativeViews views(2, 3);
  views.Add(seg);
  views.Add(PairSegment({0, 1, 2}, 1, 0));
  EXPECT_TRUE(views.Verify().all_secure);
  EXPECT_EQ(views.pad_columns(), 6u);
  EXPECT_EQ(views.view(0).size(), 6u);
}

TEST(CodedSegment, PartlyStagedSegmentKeepsStagedRowsAndSpendsItsPads) {
  const CodedSegment seg = MakeSegment(4, 2, {2, 2, 2}, AllRows(4));
  CumulativeViews views(3, 4);
  views.AddStaged(seg, 1);
  EXPECT_EQ(views.view(0).size(), 2u);
  EXPECT_TRUE(views.view(1).empty());
  EXPECT_TRUE(views.view(2).empty());
  EXPECT_EQ(views.pad_columns(), 2u);
  views.Add(seg);
  EXPECT_EQ(views.pad_columns(), 4u);
  EXPECT_EQ(views.view(0).size(), 4u);
  EXPECT_EQ(views.view(0)[2].pad_col, 2u);  // the second round's pads
}

TEST(CodedSegment, PlanSegmentMapsSlotsToUsableFleetDevices) {
  McscecProblem problem = MakeAbstractProblem(12, 4, {1, 2, 3, 4, 5, 6});
  const auto usable = [](size_t d) { return d != 0 && d != 3; };
  double cost = 0.0;
  Result<CodedSegment> seg =
      PlanSegment({5, 6, 7, 8, 9}, problem.l, problem.fleet, usable,
                  TaAlgorithm::kTA2, &cost);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_EQ(seg->data_rows(), (std::vector<size_t>{5, 6, 7, 8, 9}));
  EXPECT_GT(cost, 0.0);
  for (size_t device : seg->devices()) EXPECT_TRUE(usable(device));
  EXPECT_TRUE(VerifyStructuredScheme(seg->code(), seg->scheme()).Valid());

  Result<CodedSegment> lone =
      PlanSegment({0}, problem.l, problem.fleet,
                  [](size_t d) { return d == 2; }, TaAlgorithm::kTA2);
  ASSERT_FALSE(lone.ok());
  EXPECT_EQ(lone.status().code(), ErrorCode::kInfeasible);
}

TEST(CodedSegment, EncodeSegmentEncodesTheSegmentsRowsOfA) {
  Matrix<double> a(6, 3);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) a(i, j) = 10.0 * i + j;
  }
  const CodedSegment seg = PairSegment({4, 1}, 2, 5);
  ChaCha20Rng rng(11);
  const EncodedDeployment<double> encoded = EncodeSegment(seg, a, rng);
  ASSERT_EQ(encoded.shares.size(), 2u);
  const Matrix<double>& pads = encoded.shares[0].coded_rows;
  const Matrix<double>& mixed = encoded.shares[1].coded_rows;
  for (size_t p = 0; p < 2; ++p) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(mixed(p, j) - pads(p, j), a(seg.data_rows()[p], j));
    }
  }
}

TEST(CodedSegment, JournalRoundTripAddsIdenticalViews) {
  McscecProblem problem = MakeAbstractProblem(10, 4, {1, 1.5, 2, 3, 4, 5});
  std::vector<CodedSegment> segments;
  Result<CodedSegment> base =
      PlanSegment(AllRows(10), problem.l, problem.fleet,
                  [](size_t) { return true; }, TaAlgorithm::kTA2);
  ASSERT_TRUE(base.ok());
  segments.push_back(*base);
  segments.push_back(PairSegment(AllRows(10), 4, 5));
  Result<CodedSegment> recovery =
      PlanSegment({2, 3, 9}, problem.l, problem.fleet,
                  [](size_t d) { return d != 1; }, TaAlgorithm::kTA2);
  ASSERT_TRUE(recovery.ok());
  segments.push_back(*recovery);
  segments.push_back(PairSegment({7, 0}, 3, 2));

  // Through the journal's byte format and replay fold.
  std::ostringstream os;
  {
    recovery::QueryJournal journal(&os, /*snapshot_crc=*/1);
    for (size_t i = 0; i < segments.size(); ++i) {
      recovery::JournalEvent event;
      event.kind = recovery::JournalEventKind::kSegmentAdded;
      event.segment = i;
      event.segment_record = SegmentRecord(segments[i], i);
      journal.Append(event);
    }
    journal.Commit();
  }
  const auto replay = recovery::LoadJournal(os.str());
  ASSERT_TRUE(replay.ok()) << replay.status();
  const auto state = recovery::BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_EQ(state->prior_segments.size(), segments.size());

  CumulativeViews original(problem.fleet.size(), 10);
  CumulativeViews restored(problem.fleet.size(), 10);
  for (size_t i = 0; i < segments.size(); ++i) {
    original.Add(segments[i]);
    restored.Add(SegmentFromRecord(state->prior_segments[i]));
  }
  EXPECT_EQ(restored.pad_columns(), original.pad_columns());
  for (size_t d = 0; d < problem.fleet.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    ASSERT_EQ(restored.view(d).size(), original.view(d).size());
    for (size_t i = 0; i < original.view(d).size(); ++i) {
      EXPECT_EQ(restored.view(d)[i].data_col, original.view(d)[i].data_col);
      EXPECT_EQ(restored.view(d)[i].pad_col, original.view(d)[i].pad_col);
    }
  }
  const SchemeSecurityReport want = original.Verify();
  const SchemeSecurityReport got = restored.Verify();
  EXPECT_TRUE(want.all_secure);
  EXPECT_EQ(got.all_secure, want.all_secure);
  ASSERT_EQ(got.devices.size(), want.devices.size());
  for (size_t d = 0; d < want.devices.size(); ++d) {
    EXPECT_EQ(got.devices[d].rank, want.devices[d].rank);
    EXPECT_EQ(got.devices[d].intersection_dim,
              want.devices[d].intersection_dim);
  }
}

}  // namespace
}  // namespace scec
