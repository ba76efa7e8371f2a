// SPDX-License-Identifier: MIT

#include "recovery/journal.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/serde.h"
#include "obs/metrics.h"
#include "recovery/crash.h"
#include "recovery/crc32.h"

namespace scec::recovery {
namespace {

// The stream header is magic | u32 version | u64 snapshot CRC; every record
// is framed as u32 payload length | u32 CRC-32 | payload.
constexpr size_t kJournalHeaderLen = 4 + 4 + 8;
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

// A cursor over one record body. Each read checks its bounds, but a short
// body only clears ok(); the caller tests it once, after the whole record.
// Reads past the end yield zeros.
class BodyCursor {
 public:
  explicit BodyCursor(std::string_view body)
      : pos_(body.data()), end_(body.data() + body.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  template <typename T>
  T Fixed() {
    T raw{};
    if (remaining() < sizeof(T)) {
      Fail();
      return raw;
    }
    std::memcpy(&raw, pos_, sizeof(T));
    pos_ += sizeof(T);
    return serde_internal::ToLittle(raw);
  }

  // A u32 count, then that many little-endian 8-byte words into `*out`.
  // resize() keeps the vector's capacity, so a reused vector stops
  // allocating once it has grown to the longest record. The count is
  // bounded by the bytes left, which kMaxJournalRecordLen bounds in turn.
  template <typename T>
  void Words(std::vector<T>* out) {
    static_assert(sizeof(T) == 8);
    const uint32_t count = Fixed<uint32_t>();
    if (count > remaining() / 8) {
      Fail();
      return;
    }
    out->resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) std::memcpy(out->data(), pos_, 8 * size_t{count});
    } else {
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t raw = 0;
        std::memcpy(&raw, pos_ + 8 * size_t{i}, 8);
        (*out)[i] = std::bit_cast<T>(serde_internal::ToLittle(raw));
      }
    }
    pos_ += 8 * size_t{count};
  }

 private:
  void Fail() {
    ok_ = false;
    pos_ = end_;
  }

  const char* pos_;
  const char* end_;
  bool ok_ = true;
};

// Decodes one record body in place into `*event`, reusing its storage.
// False when the body is short, names no event kind, carries a bad
// segment-record flag, or has bytes left over.
bool DeserializeEvent(std::string_view body, JournalEvent* event) {
  BodyCursor in(body);
  const uint8_t kind = in.Fixed<uint8_t>();
  if (kind < static_cast<uint8_t>(JournalEventKind::kStageDone) ||
      kind > static_cast<uint8_t>(JournalEventKind::kQueryResult)) {
    return false;
  }
  event->kind = static_cast<JournalEventKind>(kind);
  event->generation = in.Fixed<uint32_t>();
  event->query_id = in.Fixed<uint64_t>();
  event->segment = in.Fixed<uint64_t>();
  event->local = in.Fixed<uint64_t>();
  event->device = in.Fixed<uint64_t>();
  event->attempt = in.Fixed<uint64_t>();
  event->bytes = in.Fixed<uint64_t>();
  in.Words(&event->values);
  const uint8_t has_record = in.Fixed<uint8_t>();
  if (has_record > 1) return false;
  if (has_record == 0) {
    event->segment_record.reset();
  } else {
    JournalSegmentRecord& rec = event->segment_record.has_value()
                                    ? *event->segment_record
                                    : event->segment_record.emplace();
    rec.index = in.Fixed<uint64_t>();
    rec.m = in.Fixed<uint64_t>();
    rec.r = in.Fixed<uint64_t>();
    in.Words(&rec.row_counts);
    in.Words(&rec.phys);
    in.Words(&rec.data_rows);
  }
  return in.ok() && in.remaining() == 0;
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

Result<JournalRecordReader> JournalRecordReader::Open(std::string_view bytes) {
  if (bytes.size() < kJournalHeaderLen ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return DecodeFailure("bad magic: not an SCEC write-ahead journal");
  }
  JournalRecordReader reader(bytes);
  BinaryReader header(bytes.substr(sizeof(kJournalMagic)));
  SCEC_RETURN_IF_ERROR(header.ReadU32(&reader.version_));
  if (reader.version_ != kJournalFormatVersion) {
    return DecodeFailure("unsupported journal version " +
                         std::to_string(reader.version_));
  }
  SCEC_RETURN_IF_ERROR(header.ReadU64(&reader.snapshot_crc_));
  reader.valid_bytes_ = kJournalHeaderLen;
  return reader;
}

bool JournalRecordReader::Next(JournalEvent* event) {
  if (done_) return false;
  const size_t left = bytes_.size() - valid_bytes_;
  if (left >= kRecordHeaderLen) {
    const char* frame = bytes_.data() + valid_bytes_;
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, frame, 4);
    std::memcpy(&crc, frame + 4, 4);
    len = serde_internal::ToLittle(len);
    crc = serde_internal::ToLittle(crc);
    if (len <= kMaxJournalRecordLen && len <= left - kRecordHeaderLen) {
      const std::string_view body(frame + kRecordHeaderLen, len);
      if (Crc32(body.data(), body.size()) == crc &&
          DeserializeEvent(body, event)) {
        valid_bytes_ += kRecordHeaderLen + len;
        return true;
      }
    }
  }
  // The first damaged record (or the clean end of the stream) ends the
  // valid prefix.
  done_ = true;
  if (torn_tail()) JournalInstruments::Get().torn_tails.Increment();
  return false;
}

void JournalRecordReader::SkipRest() {
  JournalEvent scratch;
  while (Next(&scratch)) {
  }
}

Result<JournalReplay> LoadJournal(const std::string& bytes) {
  SCEC_ASSIGN_OR_RETURN(JournalRecordReader reader,
                        JournalRecordReader::Open(bytes));
  JournalReplay replay;
  replay.version = reader.version();
  replay.snapshot_crc = reader.snapshot_crc();
  // Each record is decoded straight into its slot of the list.
  while (reader.Next(&replay.events.emplace_back())) {
  }
  replay.events.pop_back();
  replay.torn_tail = reader.torn_tail();
  replay.valid_bytes = reader.valid_bytes();
  replay.total_bytes = reader.total_bytes();
  return replay;
}

Result<JournalReplay> LoadJournal(std::istream& is) {
  return LoadJournal(ReadAll(is));
}

namespace {

// The replay rules, applied one event at a time in stream order. Events
// are read, never kept: whatever the state needs is copied out, so the
// caller may reuse the event's storage for the next record.
class ReplayFold {
 public:
  Status Apply(const JournalEvent& event);
  ReplayState Finish() && { return std::move(state_); }

 private:
  // This generation's tally; map nodes are stable, and a journal holds
  // long runs of one generation, so the lookup is cached.
  GenerationTally& TallyFor(uint32_t generation) {
    if (tally_ == nullptr || tally_generation_ != generation) {
      tally_ = &state_.tally[generation];
      tally_generation_ = generation;
    }
    return *tally_;
  }

  // in_flight_responses[local] = values. A journal drops the in-flight
  // responses once per query; their map nodes, vectors included, are kept
  // in `spare_` and refilled here, so a steady run of queries allocates
  // nothing for them.
  void PutResponse(uint64_t local, const std::vector<double>& values) {
    ResponseMap& responses = state_.in_flight_responses;
    const auto it = responses.find(local);
    if (it != responses.end()) {
      it->second = values;
    } else if (spare_.empty()) {
      responses.emplace(local, values);
    } else {
      ResponseMap::node_type node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = local;
      node.mapped() = values;
      responses.insert(std::move(node));
    }
  }
  void DropResponses() {
    ResponseMap& responses = state_.in_flight_responses;
    while (!responses.empty()) {
      spare_.push_back(responses.extract(responses.begin()));
    }
  }

  using ResponseMap = std::map<uint64_t, std::vector<double>>;
  ReplayState state_;
  std::vector<ResponseMap::node_type> spare_;
  GenerationTally* tally_ = nullptr;
  uint32_t tally_generation_ = 0;
};

void RemoveFrom(std::vector<size_t>* list, size_t device) {
  for (size_t i = 0; i < list->size(); ++i) {
    if ((*list)[i] == device) {
      list->erase(list->begin() + i);
      return;
    }
  }
}

void AddOnce(std::vector<size_t>* list, size_t device) {
  for (const size_t d : *list) {
    if (d == device) return;
  }
  list->push_back(device);
}

Status ReplayFold::Apply(const JournalEvent& event) {
  ReplayState& state = state_;
  if (event.generation > state.last_generation) {
    state.last_generation = event.generation;
  }
  GenerationTally& tally = TallyFor(event.generation);
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
        DropResponses();
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
        PutResponse(event.local, event.values);
      }
      break;
    case JournalEventKind::kEvict:
      ++tally.evictions;
      switch (event.attempt) {
        case kEvictReasonTimeout:
        case kEvictReasonCorrupt:
          AddOnce(&state.evicted_devices, event.device);
          break;
        case kEvictReasonQuarantine:
          AddOnce(&state.quarantined_devices, event.device);
          break;
        case kEvictReasonReadmit:
          RemoveFrom(&state.quarantined_devices, event.device);
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
        DropResponses();
      }
      if (event.query_id + 1 > state.next_query_id) {
        state.next_query_id = event.query_id + 1;
      }
      break;
  }
  return Status::Ok();
}

}  // namespace

Result<ReplayState> BuildReplayState(const JournalReplay& replay) {
  ReplayFold fold;
  for (const JournalEvent& event : replay.events) {
    SCEC_RETURN_IF_ERROR(fold.Apply(event));
  }
  return std::move(fold).Finish();
}

Result<ReplayState> FoldJournal(JournalRecordReader& reader) {
  ReplayFold fold;
  JournalEvent event;
  while (reader.Next(&event)) {
    Status status = fold.Apply(event);
    if (!status.ok()) {
      reader.SkipRest();
      return status;
    }
  }
  return std::move(fold).Finish();
}

}  // namespace scec::recovery
