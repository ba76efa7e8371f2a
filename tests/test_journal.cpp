// SPDX-License-Identifier: MIT
//
// Write-ahead query journal: framing round-trips, group-commit atomicity
// (a died coordinator loses its buffered tail, never half a record), torn
// and bit-flipped streams recovering the longest valid prefix, and the
// replay fold (BuildReplayState) that a restarted coordinator trusts, and
// the restart's single pass (FoldJournal) checked against it byte by byte.

#include "recovery/journal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hostile_bytes.h"
#include "recovery/crc32.h"
#include "replay_differential.h"

namespace scec::recovery {
namespace {

JournalEvent Event(JournalEventKind kind, uint32_t generation = 0) {
  JournalEvent event;
  event.kind = kind;
  event.generation = generation;
  return event;
}

// One committed event of every kind, with every field exercised.
std::vector<JournalEvent> AllKindsFixture() {
  std::vector<JournalEvent> events;
  {
    JournalEvent e = Event(JournalEventKind::kStageDone);
    e.device = 2;  // effective byzantine tolerance
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kSegmentAdded);
    JournalSegmentRecord seg;
    seg.index = 1;
    seg.m = 4;
    seg.r = 2;
    seg.row_counts = {3, 3};
    seg.phys = {5, 7};
    seg.data_rows = {0, 1, 2, 3};
    e.segment = 1;
    e.segment_record = seg;
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kQueryBegin);
    e.query_id = 0;
    e.values = {1.5, -2.25, 0.0};
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kDispatch);
    e.query_id = 0;
    e.segment = 0;
    e.local = 3;
    e.device = 9;
    e.attempt = 1;
    e.bytes = 24;
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kResponse);
    e.query_id = 0;
    e.segment = 0;
    e.local = 3;
    e.device = 9;
    e.values = {3.125, 7.75};
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kEvict);
    e.device = 4;
    e.attempt = kEvictReasonCorrupt;
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kMaskedQuery);
    e.query_id = 0;
    e.attempt = 2;  // liars masked
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kQueryResult);
    e.query_id = 0;
    e.values = {10.0, 20.0, 30.0, 40.0};
    events.push_back(e);
  }
  {
    JournalEvent e = Event(JournalEventKind::kRestart, /*generation=*/1);
    events.push_back(e);
  }
  return events;
}

void ExpectSameEvent(const JournalEvent& got, const JournalEvent& want) {
  EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.query_id, want.query_id);
  EXPECT_EQ(got.segment, want.segment);
  EXPECT_EQ(got.local, want.local);
  EXPECT_EQ(got.device, want.device);
  EXPECT_EQ(got.attempt, want.attempt);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.values, want.values);
  ASSERT_EQ(got.segment_record.has_value(), want.segment_record.has_value());
  if (want.segment_record.has_value()) {
    EXPECT_EQ(got.segment_record->index, want.segment_record->index);
    EXPECT_EQ(got.segment_record->m, want.segment_record->m);
    EXPECT_EQ(got.segment_record->r, want.segment_record->r);
    EXPECT_EQ(got.segment_record->row_counts,
              want.segment_record->row_counts);
    EXPECT_EQ(got.segment_record->phys, want.segment_record->phys);
    EXPECT_EQ(got.segment_record->data_rows,
              want.segment_record->data_rows);
  }
}

std::string CommittedStream(const std::vector<JournalEvent>& events,
                            uint64_t snapshot_crc = 0xFEEDull) {
  std::ostringstream os;
  QueryJournal journal(&os, snapshot_crc);
  for (const JournalEvent& event : events) journal.Append(event);
  journal.Commit();
  return os.str();
}

TEST(QueryJournal, EveryEventKindRoundTrips) {
  const std::vector<JournalEvent> events = AllKindsFixture();
  const std::string bytes = CommittedStream(events, 0xABCDEFull);
  const auto replay = LoadJournal(bytes);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->version, kJournalFormatVersion);
  EXPECT_EQ(replay->snapshot_crc, 0xABCDEFull);
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, bytes.size());
  ASSERT_EQ(replay->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    ExpectSameEvent(replay->events[i], events[i]);
  }
}

TEST(QueryJournal, GroupCommitIsAtomic) {
  std::ostringstream os;
  QueryJournal journal(&os, 1, /*group_commit_records=*/16);
  const size_t header = os.str().size();
  journal.Append(Event(JournalEventKind::kStageDone));
  journal.Append(Event(JournalEventKind::kQueryBegin));
  // Buffered, not durable: the stream still holds only the header.
  EXPECT_EQ(os.str().size(), header);
  EXPECT_EQ(journal.buffered_events(), 2u);
  journal.Commit();
  EXPECT_GT(os.str().size(), header);
  const auto replay = LoadJournal(os.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->events.size(), 2u);
}

TEST(QueryJournal, DyingWithABufferedTailLosesOnlyTheTail) {
  std::ostringstream os;
  {
    QueryJournal journal(&os, 1, /*group_commit_records=*/16);
    journal.AppendCommitted(Event(JournalEventKind::kStageDone));
    journal.Append(Event(JournalEventKind::kQueryBegin));
    // Destructor deliberately does NOT commit: process-kill semantics.
  }
  const auto replay = LoadJournal(os.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->events.size(), 1u);
  EXPECT_EQ(static_cast<int>(replay->events[0].kind),
            static_cast<int>(JournalEventKind::kStageDone));
}

TEST(QueryJournal, BatchAutoCommitsWhenFull) {
  std::ostringstream os;
  QueryJournal journal(&os, 1, /*group_commit_records=*/2);
  journal.Append(Event(JournalEventKind::kStageDone));
  journal.Append(Event(JournalEventKind::kQueryBegin));  // batch full
  const auto replay = LoadJournal(os.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->events.size(), 2u);
  EXPECT_GE(journal.commits(), 1u);
}

TEST(QueryJournal, TornTailRecoversLongestValidPrefix) {
  const std::vector<JournalEvent> events = AllKindsFixture();
  const std::string bytes = CommittedStream(events);
  // Cut inside the last record.
  const std::string torn = bytes.substr(0, bytes.size() - 3);
  const auto replay = LoadJournal(torn);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->events.size(), events.size() - 1);
  EXPECT_LT(replay->valid_bytes, torn.size());
}

TEST(QueryJournal, EveryTruncationFailsCleanly) {
  const std::string bytes = CommittedStream(AllKindsFixture());
  const auto full = LoadJournal(bytes);
  ASSERT_TRUE(full.ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const auto replay = LoadJournal(bytes.substr(0, cut));
    if (cut < 16) {
      // Inside the header: no valid journal at all.
      EXPECT_FALSE(replay.ok());
      continue;
    }
    // Past the header: always readable, events a prefix of the original.
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_LE(replay->events.size(), full->events.size());
    if (cut < bytes.size()) {
      EXPECT_TRUE(replay->torn_tail || replay->events.size() <
                                           full->events.size() ||
                  replay->valid_bytes == cut);
    }
    for (size_t i = 0; i < replay->events.size(); ++i) {
      ExpectSameEvent(replay->events[i], full->events[i]);
    }
  }
}

TEST(QueryJournal, EveryByteFlipFailsCleanly) {
  const std::string bytes = CommittedStream(AllKindsFixture(), 0x5EEDull);
  const auto full = LoadJournal(bytes);
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flip at " + std::to_string(i));
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    const auto replay = LoadJournal(flipped);
    if (i < 8) {
      // Magic or version damage: not a journal.
      EXPECT_FALSE(replay.ok());
    } else if (i < 16) {
      // Snapshot-CRC damage: parses, but the binding check must catch it.
      ASSERT_TRUE(replay.ok());
      EXPECT_NE(replay->snapshot_crc, 0x5EEDull);
    } else {
      // Record damage: the longest valid prefix survives, the damaged
      // record and everything after it is dropped — never garbage events.
      ASSERT_TRUE(replay.ok()) << replay.status();
      EXPECT_LT(replay->events.size(), full->events.size());
      EXPECT_TRUE(replay->torn_tail);
      for (size_t k = 0; k < replay->events.size(); ++k) {
        ExpectSameEvent(replay->events[k], full->events[k]);
      }
    }
  }
}

TEST(QueryJournal, RestartedStreamsConcatenateIntoOneJournal) {
  std::ostringstream gen0;
  {
    QueryJournal journal(&gen0, 0x77ull);
    journal.AppendCommitted(Event(JournalEventKind::kStageDone));
    JournalEvent begin = Event(JournalEventKind::kQueryBegin);
    begin.query_id = 0;
    begin.values = {1.0};
    journal.AppendCommitted(begin);
    journal.Append(Event(JournalEventKind::kDispatch));  // lost with the kill
  }
  std::ostringstream gen1;
  {
    QueryJournal journal(&gen1, 0x77ull, 16, /*write_header=*/false);
    journal.AppendCommitted(Event(JournalEventKind::kRestart, 1));
  }
  const auto replay = LoadJournal(gen0.str() + gen1.str());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->events.size(), 3u);
  EXPECT_EQ(static_cast<int>(replay->events[2].kind),
            static_cast<int>(JournalEventKind::kRestart));
  EXPECT_EQ(replay->events[2].generation, 1u);
}

// The committed frame (length | CRC | payload) of one event.
std::string RecordFrame(const JournalEvent& event) {
  std::ostringstream os;
  QueryJournal journal(&os, 0, 1, /*write_header=*/false);
  journal.Append(event);
  return os.str();
}

std::string Reframe(const std::string& payload) {
  std::string frame(8, '\0');
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &crc, 4);
  return frame + payload;
}

// Offsets of the u32 count prefixes in an event's payload: values, then
// the segment record's row_counts, phys and data_rows.
std::vector<size_t> CountOffsets(const JournalEvent& event) {
  size_t offset = 1 + 4 + 6 * 8;  // kind, generation, six u64 fields
  std::vector<size_t> offsets = {offset};
  offset += 4 + 8 * event.values.size() + 1;  // values, record flag
  if (event.segment_record.has_value()) {
    const JournalSegmentRecord& rec = *event.segment_record;
    offset += 3 * 8;  // index, m, r
    offsets.push_back(offset);
    offset += 4 + 8 * rec.row_counts.size();
    offsets.push_back(offset);
    offset += 4 + 8 * rec.phys.size();
    offsets.push_back(offset);
  }
  return offsets;
}

// Hostile record bodies behind a recomputed CRC reach DeserializeEvent.
// Loading never fails past the header and never keeps a partial event:
// either the damaged record ends the valid prefix exactly where it starts,
// or it decoded whole and re-encodes to exactly its bytes. A changed count
// can realign into another well-formed record (row_counts {3, 3} read as
// {3} shifts the rest into a longer phys), but truncations and trailing
// bytes are always rejected, and folding the survivors returns a typed
// Status.
TEST(QueryJournal, HostileRecordBodiesBehindValidCrcFailTyped) {
  const std::vector<JournalEvent> events = AllKindsFixture();
  std::ostringstream header_os;
  { QueryJournal journal(&header_os, 0x4242ull); }
  const std::string header = header_os.str();
  std::vector<std::string> frames;
  for (const JournalEvent& event : events) {
    frames.push_back(RecordFrame(event));
  }

  uint64_t seed = 0x10ADull;
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i) + " (" +
                 JournalEventKindName(events[i].kind) + ")");
    std::string prefix = header;
    for (size_t k = 0; k < i; ++k) prefix += frames[k];
    std::string suffix;
    for (size_t k = i + 1; k < frames.size(); ++k) suffix += frames[k];

    const std::string payload = frames[i].substr(8);
    for (const auto& variant : testutil::HostileVariants(
             payload, CountOffsets(events[i]), seed++)) {
      const std::string stream = prefix + Reframe(variant.bytes) + suffix;
      const auto replay = LoadJournal(stream);
      ASSERT_TRUE(replay.ok()) << replay.status();
      ASSERT_GE(replay->events.size(), i);
      for (size_t k = 0; k < i; ++k) {
        ExpectSameEvent(replay->events[k], events[k]);
      }
      if (replay->events.size() == i) {
        EXPECT_TRUE(replay->torn_tail);
        EXPECT_EQ(replay->valid_bytes, prefix.size());
      } else {
        EXPECT_NE(variant.mutation, testutil::Mutation::kTruncation);
        EXPECT_NE(variant.mutation, testutil::Mutation::kTrailing);
        ASSERT_EQ(replay->events.size(), events.size());
        EXPECT_FALSE(replay->torn_tail);
        EXPECT_EQ(RecordFrame(replay->events[i]).substr(8), variant.bytes);
      }
      const auto state = BuildReplayState(*replay);
      if (!state.ok()) {
        EXPECT_EQ(state.status().code(), ErrorCode::kDecodeFailure);
      }
    }
  }
}

TEST(FoldJournal, MatchesTheTwoStepReplayOnEveryCut) {
  const std::string bytes = CommittedStream(AllKindsFixture());
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    testutil::ExpectSinglePassMatchesTwoStep(bytes.substr(0, cut));
  }
}

TEST(FoldJournal, MatchesTheTwoStepReplayOnEveryByteFlip) {
  const std::string bytes = CommittedStream(AllKindsFixture(), 0x5EEDull);
  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flip at " + std::to_string(i));
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    testutil::ExpectSinglePassMatchesTwoStep(flipped);
  }
}

// The single pass decodes every record into one reused event, so nothing a
// record leaves in it may leak into the next: every ordered pair of
// records, including a segment_added without its body after one with it.
TEST(FoldJournal, MatchesTheTwoStepReplayOnEveryPairOfRecords) {
  std::vector<JournalEvent> events = AllKindsFixture();
  events.push_back(Event(JournalEventKind::kSegmentAdded));  // no body
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = 0; j < events.size(); ++j) {
      SCOPED_TRACE("records " + std::to_string(i) + ", " + std::to_string(j));
      testutil::ExpectSinglePassMatchesTwoStep(
          CommittedStream({events[i], events[j]}));
    }
  }
}

// Hostile bodies behind a valid CRC reach the deserialiser and, when they
// decode, the fold's own checks. Each stream is also replayed with a torn
// tail, so a fold error followed by damage counts its torn tail too.
TEST(FoldJournal, MatchesTheTwoStepReplayOnHostileBodies) {
  const std::vector<JournalEvent> events = AllKindsFixture();
  std::ostringstream header_os;
  { QueryJournal journal(&header_os, 0x4242ull); }
  std::vector<std::string> frames;
  for (const JournalEvent& event : events) {
    frames.push_back(RecordFrame(event));
  }
  uint64_t seed = 0x10ADull;
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i) + " (" +
                 JournalEventKindName(events[i].kind) + ")");
    std::string prefix = header_os.str();
    for (size_t k = 0; k < i; ++k) prefix += frames[k];
    std::string suffix;
    for (size_t k = i + 1; k < frames.size(); ++k) suffix += frames[k];
    const std::string payload = frames[i].substr(8);
    for (const auto& variant : testutil::HostileVariants(
             payload, CountOffsets(events[i]), seed++)) {
      const std::string stream = prefix + Reframe(variant.bytes) + suffix;
      testutil::ExpectSinglePassMatchesTwoStep(stream);
      testutil::ExpectSinglePassMatchesTwoStep(stream + "\x13\x37torn");
    }
  }
}

TEST(BuildReplayState, FoldsCompletedInFlightAndStandings) {
  std::vector<JournalEvent> events;
  events.push_back(Event(JournalEventKind::kStageDone));
  JournalEvent begin0 = Event(JournalEventKind::kQueryBegin);
  begin0.query_id = 0;
  begin0.values = {1.0, 2.0};
  events.push_back(begin0);
  JournalEvent result0 = Event(JournalEventKind::kQueryResult);
  result0.query_id = 0;
  result0.values = {5.0, 6.0, 7.0};
  events.push_back(result0);
  JournalEvent evict = Event(JournalEventKind::kEvict);
  evict.device = 3;
  evict.attempt = kEvictReasonTimeout;
  events.push_back(evict);
  JournalEvent quarantine = Event(JournalEventKind::kEvict);
  quarantine.device = 5;
  quarantine.attempt = kEvictReasonQuarantine;
  events.push_back(quarantine);
  JournalEvent begin1 = Event(JournalEventKind::kQueryBegin);
  begin1.query_id = 1;
  begin1.values = {3.0, 4.0};
  events.push_back(begin1);
  JournalEvent resp = Event(JournalEventKind::kResponse);
  resp.query_id = 1;
  resp.segment = 0;
  resp.local = 2;
  resp.values = {9.0};
  events.push_back(resp);

  const auto replay = LoadJournal(CommittedStream(events));
  ASSERT_TRUE(replay.ok());
  const auto state = BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_EQ(state->completed.size(), 1u);
  EXPECT_EQ(state->completed[0].first, 0u);
  EXPECT_EQ(state->completed[0].second, std::vector<double>({5.0, 6.0, 7.0}));
  EXPECT_TRUE(state->has_in_flight);
  EXPECT_EQ(state->in_flight_id, 1u);
  EXPECT_EQ(state->in_flight_x, std::vector<double>({3.0, 4.0}));
  ASSERT_EQ(state->in_flight_responses.size(), 1u);
  EXPECT_EQ(state->in_flight_responses.at(2), std::vector<double>({9.0}));
  EXPECT_EQ(state->next_query_id, 2u);
  EXPECT_EQ(state->evicted_devices, std::vector<size_t>({3}));
  EXPECT_EQ(state->quarantined_devices, std::vector<size_t>({5}));
}

TEST(BuildReplayState, InFlightResponsesComeFromTheLastQueryOnly) {
  // Each query drops the responses of the one before; the in-flight
  // query's own responses must come out keyed and valued as journaled.
  std::vector<JournalEvent> events;
  for (uint64_t query = 0; query < 3; ++query) {
    JournalEvent begin = Event(JournalEventKind::kQueryBegin);
    begin.query_id = query;
    begin.values = {static_cast<double>(query)};
    events.push_back(begin);
    for (const uint64_t local : {query, query + 2, query + 5}) {
      JournalEvent resp = Event(JournalEventKind::kResponse);
      resp.query_id = query;
      resp.local = local;
      resp.values.assign(local + 1, 10.0 * query + local);
      events.push_back(resp);
    }
    if (query < 2) {
      JournalEvent result = Event(JournalEventKind::kQueryResult);
      result.query_id = query;
      result.values = {1.0};
      events.push_back(result);
    }
  }
  const std::string bytes = CommittedStream(events);
  const auto replay = LoadJournal(bytes);
  ASSERT_TRUE(replay.ok());
  const auto state = BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  const std::map<uint64_t, std::vector<double>> want = {
      {2, std::vector<double>(3, 22.0)},
      {4, std::vector<double>(5, 24.0)},
      {7, std::vector<double>(8, 27.0)},
  };
  EXPECT_TRUE(state->has_in_flight);
  EXPECT_EQ(state->in_flight_id, 2u);
  EXPECT_EQ(state->in_flight_responses, want);
  testutil::ExpectSinglePassMatchesTwoStep(bytes);
}

TEST(BuildReplayState, RejectsUnknownEvictReason) {
  std::vector<JournalEvent> events;
  JournalEvent evict = Event(JournalEventKind::kEvict);
  evict.device = 1;
  evict.attempt = 99;  // not a reason code
  events.push_back(evict);
  const auto replay = LoadJournal(CommittedStream(events));
  ASSERT_TRUE(replay.ok());
  const auto state = BuildReplayState(*replay);
  EXPECT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), ErrorCode::kDecodeFailure);
}

TEST(BuildReplayState, RejectsInconsistentSegmentRecord) {
  std::vector<JournalEvent> events;
  JournalEvent seg = Event(JournalEventKind::kSegmentAdded);
  JournalSegmentRecord record;
  record.index = 1;
  record.m = 4;
  record.r = 2;
  record.row_counts = {3, 3, 3};  // sums to 9, not m + r = 6
  record.phys = {0, 1, 2};
  record.data_rows = {0, 1, 2, 3};
  seg.segment_record = record;
  events.push_back(seg);
  const auto replay = LoadJournal(CommittedStream(events));
  ASSERT_TRUE(replay.ok());
  const auto state = BuildReplayState(*replay);
  EXPECT_FALSE(state.ok());
}

TEST(BuildReplayState, DuplicateQueryBeginIsAResumptionMarker) {
  std::vector<JournalEvent> events;
  JournalEvent begin = Event(JournalEventKind::kQueryBegin);
  begin.query_id = 0;
  begin.values = {1.0};
  events.push_back(begin);
  events.push_back(Event(JournalEventKind::kRestart, 1));
  JournalEvent again = begin;
  again.generation = 1;
  events.push_back(again);  // the restarted generation re-admits query 0
  const auto replay = LoadJournal(CommittedStream(events));
  ASSERT_TRUE(replay.ok());
  const auto state = BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_TRUE(state->has_in_flight);
  EXPECT_EQ(state->in_flight_id, 0u);
  EXPECT_EQ(state->last_generation, 1u);
  EXPECT_EQ(state->next_query_id, 1u);
}

}  // namespace
}  // namespace scec::recovery
