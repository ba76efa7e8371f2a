// SPDX-License-Identifier: MIT
//
// Differential check of the two ways to replay a journal. The single pass a
// restart takes (JournalRecordReader + FoldJournal, one reused event) must
// give the same outcome as the two-step API (LoadJournal, then
// BuildReplayState over its event list): the same error code, or a
// ReplayState equal in every field. Both must also count the same torn
// tails.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "recovery/journal.h"

namespace scec::testutil {

inline void ExpectSameSegmentRecord(const recovery::JournalSegmentRecord& got,
                                    const recovery::JournalSegmentRecord& want) {
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.m, want.m);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.row_counts, want.row_counts);
  EXPECT_EQ(got.phys, want.phys);
  EXPECT_EQ(got.data_rows, want.data_rows);
}

inline void ExpectSameReplayState(const recovery::ReplayState& got,
                                  const recovery::ReplayState& want) {
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.has_in_flight, want.has_in_flight);
  EXPECT_EQ(got.in_flight_id, want.in_flight_id);
  EXPECT_EQ(got.in_flight_x, want.in_flight_x);
  EXPECT_EQ(got.in_flight_responses, want.in_flight_responses);
  ASSERT_EQ(got.tally.size(), want.tally.size());
  for (auto g = got.tally.begin(), w = want.tally.begin();
       g != got.tally.end(); ++g, ++w) {
    SCOPED_TRACE("generation " + std::to_string(w->first));
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second.dispatches, w->second.dispatches);
    EXPECT_EQ(g->second.dispatch_bytes, w->second.dispatch_bytes);
    EXPECT_EQ(g->second.canary_dispatches, w->second.canary_dispatches);
    EXPECT_EQ(g->second.responses, w->second.responses);
    EXPECT_EQ(g->second.response_values, w->second.response_values);
    EXPECT_EQ(g->second.evictions, w->second.evictions);
    EXPECT_EQ(g->second.queries_completed, w->second.queries_completed);
  }
  EXPECT_EQ(got.evicted_devices, want.evicted_devices);
  EXPECT_EQ(got.quarantined_devices, want.quarantined_devices);
  ASSERT_EQ(got.prior_segments.size(), want.prior_segments.size());
  for (size_t i = 0; i < want.prior_segments.size(); ++i) {
    SCOPED_TRACE("prior segment " + std::to_string(i));
    ExpectSameSegmentRecord(got.prior_segments[i], want.prior_segments[i]);
  }
  EXPECT_EQ(got.next_query_id, want.next_query_id);
  EXPECT_EQ(got.last_generation, want.last_generation);
}

inline void ExpectSinglePassMatchesTwoStep(const std::string& bytes) {
  const obs::Counter& torn_tails =
      obs::MetricsRegistry::Global().GetCounter("scec_recovery_torn_tails_total");
  const uint64_t before = torn_tails.value();
  const Result<recovery::ReplayState> two_step =
      [&]() -> Result<recovery::ReplayState> {
    SCEC_ASSIGN_OR_RETURN(recovery::JournalReplay replay,
                          recovery::LoadJournal(bytes));
    return recovery::BuildReplayState(replay);
  }();
  const uint64_t between = torn_tails.value();
  const Result<recovery::ReplayState> single_pass =
      [&]() -> Result<recovery::ReplayState> {
    SCEC_ASSIGN_OR_RETURN(recovery::JournalRecordReader reader,
                          recovery::JournalRecordReader::Open(bytes));
    return recovery::FoldJournal(reader);
  }();
  EXPECT_EQ(torn_tails.value() - between, between - before);

  ASSERT_EQ(single_pass.ok(), two_step.ok())
      << "single pass: " << single_pass.status()
      << "; two steps: " << two_step.status();
  if (!two_step.ok()) {
    EXPECT_EQ(single_pass.status().code(), two_step.status().code());
    return;
  }
  ExpectSameReplayState(*single_pass, *two_step);
}

}  // namespace scec::testutil
