// SPDX-License-Identifier: MIT

#include "recovery/journal.h"

#include <cstring>

#include "common/check.h"
#include "common/serde.h"
#include "obs/metrics.h"
#include "recovery/crash.h"
#include "recovery/crc32.h"

namespace scec::recovery {
namespace {

// Every record is framed as u32 payload length | u32 CRC-32 | payload.
constexpr size_t kRecordHeaderLen = 8;

struct JournalInstruments {
  obs::Counter& appends =
      obs::MetricsRegistry::Global().GetCounter("scec_recovery_journal_events_total");
  obs::Counter& commits =
      obs::MetricsRegistry::Global().GetCounter("scec_recovery_journal_commits_total");
  obs::Counter& torn_tails =
      obs::MetricsRegistry::Global().GetCounter("scec_recovery_torn_tails_total");

  static JournalInstruments& Get() {
    static JournalInstruments instruments;
    return instruments;
  }
};

void SerializeEvent(const JournalEvent& event, BinaryWriter& writer) {
  writer.WriteU8(static_cast<uint8_t>(event.kind));
  writer.WriteU32(event.generation);
  writer.WriteU64(event.query_id);
  writer.WriteU64(event.segment);
  writer.WriteU64(event.local);
  writer.WriteU64(event.device);
  writer.WriteU64(event.attempt);
  writer.WriteU64(event.bytes);
  writer.WriteDoubleVector(event.values);
  writer.WriteU8(event.segment_record.has_value() ? 1 : 0);
  if (event.segment_record.has_value()) {
    const JournalSegmentRecord& rec = *event.segment_record;
    writer.WriteU64(rec.index);
    writer.WriteU64(rec.m);
    writer.WriteU64(rec.r);
    writer.WriteSizeVector(rec.row_counts);
    writer.WriteSizeVector(rec.phys);
    writer.WriteSizeVector(rec.data_rows);
  }
}

Status DeserializeEvent(BinaryReader& reader, JournalEvent* event) {
  uint8_t kind = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU8(&kind));
  if (kind < static_cast<uint8_t>(JournalEventKind::kStageDone) ||
      kind > static_cast<uint8_t>(JournalEventKind::kQueryResult)) {
    return DecodeFailure("unknown journal event kind " +
                         std::to_string(kind));
  }
  event->kind = static_cast<JournalEventKind>(kind);
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&event->generation));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->query_id));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->segment));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->local));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->device));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->attempt));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&event->bytes));
  SCEC_RETURN_IF_ERROR(reader.ReadDoubleVector(&event->values));
  uint8_t has_record = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU8(&has_record));
  if (has_record > 1) return DecodeFailure("corrupt segment-record flag");
  if (has_record == 1) {
    JournalSegmentRecord rec;
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&rec.index));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&rec.m));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&rec.r));
    SCEC_RETURN_IF_ERROR(reader.ReadSizeVector(&rec.row_counts));
    SCEC_RETURN_IF_ERROR(reader.ReadSizeVector(&rec.phys));
    SCEC_RETURN_IF_ERROR(reader.ReadSizeVector(&rec.data_rows));
    event->segment_record = std::move(rec);
  }
  return Status::Ok();
}

// The crash point implied by the record being appended; kQueryResult splits
// on which side of the commit the death lands.
CrashPoint PointForCrash(JournalEventKind kind, CrashDecision decision) {
  switch (kind) {
    case JournalEventKind::kStageDone:
      return CrashPoint::kAfterStage;
    case JournalEventKind::kQueryBegin:
      return CrashPoint::kOnQueryBegin;
    case JournalEventKind::kDispatch:
      return CrashPoint::kOnDispatch;
    case JournalEventKind::kResponse:
      return CrashPoint::kOnResponse;
    case JournalEventKind::kSegmentAdded:
      return CrashPoint::kOnSegmentAdded;
    case JournalEventKind::kEvict:
      return CrashPoint::kOnEvict;
    case JournalEventKind::kQueryResult:
      return decision == CrashDecision::kBeforeCommit
                 ? CrashPoint::kBeforeResultCommit
                 : CrashPoint::kAfterResultCommit;
    default:
      return CrashPoint::kNone;
  }
}

}  // namespace

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kStageDone:
      return "stage_done";
    case JournalEventKind::kRestart:
      return "restart";
    case JournalEventKind::kSegmentAdded:
      return "segment_added";
    case JournalEventKind::kQueryBegin:
      return "query_begin";
    case JournalEventKind::kDispatch:
      return "dispatch";
    case JournalEventKind::kResponse:
      return "response";
    case JournalEventKind::kEvict:
      return "evict";
    case JournalEventKind::kMaskedQuery:
      return "masked_query";
    case JournalEventKind::kQueryResult:
      return "query_result";
  }
  return "unknown";
}

QueryJournal::QueryJournal(std::ostream* os, uint64_t snapshot_crc,
                           size_t group_commit_records, bool write_header)
    : os_(os), batch_(group_commit_records == 0 ? 1 : group_commit_records) {
  SCEC_CHECK(os_ != nullptr);
  if (write_header) {
    // The header is written through directly: a journal whose header never
    // reached the disk carries no recoverable state anyway.
    std::string header;
    BinaryWriter writer(&header);
    writer.WriteBytes({kJournalMagic, sizeof(kJournalMagic)});
    writer.WriteU32(kJournalFormatVersion);
    writer.WriteU64(snapshot_crc);
    os_->write(header.data(), static_cast<std::streamsize>(header.size()));
    os_->flush();
    SCEC_CHECK(os_->good());
  }
}

void QueryJournal::Append(const JournalEvent& event) {
  // The record is framed in place: reserve the length+CRC header, encode
  // the event straight after it, then patch the header over the payload.
  const size_t frame_start = pending_.size();
  BinaryWriter writer(&pending_);
  writer.WriteU32(0);  // payload length
  writer.WriteU32(0);  // payload CRC-32
  SerializeEvent(event, writer);
  const size_t payload_start = frame_start + kRecordHeaderLen;
  const size_t payload_len = pending_.size() - payload_start;
  SCEC_CHECK_LE(payload_len, kMaxJournalRecordLen);
  writer.PatchU32(frame_start, static_cast<uint32_t>(payload_len));
  writer.PatchU32(frame_start + 4,
                  Crc32(pending_.data() + payload_start, payload_len));
  ++buffered_events_;
  ++events_appended_;
  JournalInstruments::Get().appends.Increment();

  const CrashDecision decision =
      probe_ ? probe_(event) : CrashDecision::kNone;
  switch (decision) {
    case CrashDecision::kNone:
      if (buffered_events_ >= batch_) Commit();
      return;
    case CrashDecision::kBeforeCommit: {
      // The process dies before the batch reaches the disk: the buffered
      // tail is gone.
      pending_.clear();
      buffered_events_ = 0;
      const CrashPoint point = PointForCrash(event.kind, decision);
      throw CoordinatorCrash(
          point, std::string("injected crash at ") + CrashPointName(point) +
                     " (tail lost)");
    }
    case CrashDecision::kAfterCommit: {
      Commit();
      const CrashPoint point = PointForCrash(event.kind, decision);
      throw CoordinatorCrash(
          point, std::string("injected crash at ") + CrashPointName(point) +
                     " (batch durable)");
    }
  }
}

void QueryJournal::AppendCommitted(const JournalEvent& event) {
  Append(event);
  Commit();
}

void QueryJournal::Commit() {
  if (pending_.empty()) return;
  os_->write(pending_.data(), pending_.size());
  os_->flush();
  SCEC_CHECK(os_->good());
  pending_.clear();
  buffered_events_ = 0;
  ++commits_;
  JournalInstruments::Get().commits.Increment();
}

Result<JournalReplay> LoadJournal(const std::string& bytes) {
  constexpr size_t kHeaderLen = 4 + 4 + 8;
  if (bytes.size() < kHeaderLen ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return DecodeFailure("bad magic: not an SCEC write-ahead journal");
  }
  JournalReplay replay;
  replay.total_bytes = bytes.size();
  BinaryReader header(std::string_view(bytes).substr(sizeof(kJournalMagic)));
  SCEC_RETURN_IF_ERROR(header.ReadU32(&replay.version));
  if (replay.version != kJournalFormatVersion) {
    return DecodeFailure("unsupported journal version " +
                         std::to_string(replay.version));
  }
  SCEC_RETURN_IF_ERROR(header.ReadU64(&replay.snapshot_crc));

  // Each record is parsed from a view of `bytes`; the first damaged one
  // (torn frame, bad CRC, or a body that does not decode to exactly its
  // length) ends the valid prefix.
  replay.valid_bytes = kHeaderLen;
  BinaryReader frames(std::string_view(bytes).substr(kHeaderLen));
  while (frames.remaining() > 0) {
    uint32_t len = 0;
    uint32_t crc = 0;
    std::string_view payload;
    if (!frames.ReadU32(&len).ok() || !frames.ReadU32(&crc).ok() ||
        len > kMaxJournalRecordLen || !frames.ReadView(len, &payload).ok() ||
        Crc32(payload.data(), payload.size()) != crc) {
      break;
    }
    BinaryReader reader(payload);
    JournalEvent event;
    if (!DeserializeEvent(reader, &event).ok() || reader.remaining() != 0) {
      break;
    }
    replay.events.push_back(std::move(event));
    replay.valid_bytes = kHeaderLen + frames.position();
  }
  replay.torn_tail = replay.valid_bytes < bytes.size();
  if (replay.torn_tail) JournalInstruments::Get().torn_tails.Increment();
  return replay;
}

Result<JournalReplay> LoadJournal(std::istream& is) {
  return LoadJournal(ReadAll(is));
}

Result<ReplayState> BuildReplayState(const JournalReplay& replay) {
  ReplayState state;
  auto remove_from = [](std::vector<size_t>* list, size_t device) {
    for (size_t i = 0; i < list->size(); ++i) {
      if ((*list)[i] == device) {
        list->erase(list->begin() + i);
        return;
      }
    }
  };
  auto add_once = [](std::vector<size_t>* list, size_t device) {
    for (const size_t d : *list) {
      if (d == device) return;
    }
    list->push_back(device);
  };

  for (const JournalEvent& event : replay.events) {
    if (event.generation > state.last_generation) {
      state.last_generation = event.generation;
    }
    GenerationTally& tally = state.tally[event.generation];
    switch (event.kind) {
      case JournalEventKind::kStageDone:
      case JournalEventKind::kRestart:
      case JournalEventKind::kMaskedQuery:
        break;
      case JournalEventKind::kSegmentAdded: {
        if (!event.segment_record.has_value()) {
          return DecodeFailure("segment_added record without a segment body");
        }
        const JournalSegmentRecord& rec = *event.segment_record;
        if (rec.m == 0 || rec.r == 0 || rec.r > rec.m) {
          return DecodeFailure("journaled segment has an invalid (m, r)");
        }
        size_t total_rows = 0;
        for (const size_t c : rec.row_counts) total_rows += c;
        if (total_rows != rec.m + rec.r) {
          return DecodeFailure(
              "journaled segment row_counts do not sum to m + r");
        }
        if (rec.phys.size() != rec.row_counts.size()) {
          return DecodeFailure(
              "journaled segment phys/row_counts length mismatch");
        }
        if (rec.data_rows.size() != rec.m) {
          return DecodeFailure("journaled segment data_rows length != m");
        }
        state.prior_segments.push_back(rec);
        break;
      }
      case JournalEventKind::kQueryBegin:
        if (state.has_in_flight && state.in_flight_id == event.query_id) {
          // Resumption marker from a later incarnation: keep the responses
          // accumulated so far (they were verified against the same x).
        } else {
          state.has_in_flight = true;
          state.in_flight_id = event.query_id;
          state.in_flight_x = event.values;
          state.in_flight_responses.clear();
        }
        if (event.query_id + 1 > state.next_query_id) {
          state.next_query_id = event.query_id + 1;
        }
        break;
      case JournalEventKind::kDispatch:
        if (event.attempt == 0) {
          ++tally.canary_dispatches;
        } else {
          ++tally.dispatches;
          tally.dispatch_bytes += event.bytes;
        }
        break;
      case JournalEventKind::kResponse:
        ++tally.responses;
        tally.response_values += event.values.size();
        if (state.has_in_flight && event.query_id == state.in_flight_id &&
            event.segment == 0) {
          state.in_flight_responses[event.local] = event.values;
        }
        break;
      case JournalEventKind::kEvict:
        ++tally.evictions;
        switch (event.attempt) {
          case kEvictReasonTimeout:
          case kEvictReasonCorrupt:
            add_once(&state.evicted_devices, event.device);
            break;
          case kEvictReasonQuarantine:
            add_once(&state.quarantined_devices, event.device);
            break;
          case kEvictReasonReadmit:
            remove_from(&state.quarantined_devices, event.device);
            break;
          default:
            return DecodeFailure("journaled eviction has an unknown reason");
        }
        break;
      case JournalEventKind::kQueryResult:
        ++tally.queries_completed;
        state.completed.emplace_back(event.query_id, event.values);
        if (state.has_in_flight && state.in_flight_id == event.query_id) {
          state.has_in_flight = false;
          state.in_flight_x.clear();
          state.in_flight_responses.clear();
        }
        if (event.query_id + 1 > state.next_query_id) {
          state.next_query_id = event.query_id + 1;
        }
        break;
    }
  }
  return state;
}

}  // namespace scec::recovery
