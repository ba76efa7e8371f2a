// SPDX-License-Identifier: MIT
//
// Write-ahead query journal for the durable coordinator.
//
// A journal stream starts with a versioned header binding it to one sealed
// deployment snapshot, followed by length+CRC32-framed records, one per
// protocol lifecycle event (staging, segment provisioning, query admission,
// dispatch, accepted response, eviction, masking round, query result).
// Records are buffered and written in group commits: a batch either reaches
// the stream whole or not at all, so a crash can lose the buffered tail but
// can never leave a half-written record the reader trusts. Append frames
// each record in place in the batch buffer (header reserved, event encoded
// after it, length and CRC patched over the payload), and the buffer keeps
// its capacity across commits. JournalRecordReader walks the records from a
// view of the input and recovers the longest valid prefix of a torn or
// bit-flipped stream; a record whose body does not decode to exactly its
// framed length ends the prefix like a bad CRC does. The replay fold turns
// that prefix into everything a restarted coordinator needs — completed
// query results, the in-flight query and its already-paid-for responses,
// evictions, quarantines, provisioned segments, and per-generation
// double-entry cost tallies. A restart runs reader and fold in one pass
// (FoldJournal); LoadJournal and BuildReplayState run the same two as
// separate steps, with an event list between them.

#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace scec::recovery {

inline constexpr uint32_t kJournalFormatVersion = 1;
inline constexpr char kJournalMagic[4] = {'S', 'C', 'W', 'J'};
// Upper bound on one record's payload; anything larger is corruption.
inline constexpr uint32_t kMaxJournalRecordLen = 1u << 24;

enum class JournalEventKind : uint8_t {
  kStageDone = 1,     // staging finished; device = effective byz tolerance
  kRestart = 2,       // a new coordinator incarnation took over
  kSegmentAdded = 3,  // guard/recovery/hedge segment provisioned
  kQueryBegin = 4,    // query admitted; values = x
  kDispatch = 5,      // share of x sent; attempt 0 marks a canary probe
  kResponse = 6,      // response passed verification; values = payload
  kEvict = 7,         // device standing changed; attempt = reason code
  kMaskedQuery = 8,   // audit marker: liars were masked this query
  kQueryResult = 9,   // query finished; values = decoded result
};

const char* JournalEventKindName(JournalEventKind kind);

// kEvict reason codes (carried in JournalEvent::attempt).
inline constexpr uint64_t kEvictReasonTimeout = 0;
inline constexpr uint64_t kEvictReasonCorrupt = 1;
inline constexpr uint64_t kEvictReasonQuarantine = 2;
inline constexpr uint64_t kEvictReasonReadmit = 3;

// Everything needed to re-provision a pad-bearing segment after a restart:
// the segment's code shape, its per-device row allocation, and which rows
// of A it covers. Pad values themselves are never journaled — a restarted
// coordinator only needs to know how many pad columns each prior segment
// consumed to keep the cumulative ITS ledger exact.
struct JournalSegmentRecord {
  uint64_t index = 0;
  uint64_t m = 0;
  uint64_t r = 0;
  std::vector<size_t> row_counts;
  std::vector<size_t> phys;
  std::vector<size_t> data_rows;
};

struct JournalEvent {
  JournalEventKind kind = JournalEventKind::kStageDone;
  uint32_t generation = 0;
  uint64_t query_id = 0;
  uint64_t segment = 0;
  uint64_t local = 0;
  uint64_t device = 0;
  uint64_t attempt = 0;
  uint64_t bytes = 0;
  std::vector<double> values = {};
  std::optional<JournalSegmentRecord> segment_record = {};
};

// What a crash probe tells the journal to do after an append.
enum class CrashDecision : uint8_t {
  kNone = 0,         // live on
  kBeforeCommit,     // die now: the buffered (uncommitted) tail is lost
  kAfterCommit,      // commit the batch, then die
};

using CrashProbe = std::function<CrashDecision(const JournalEvent&)>;

// Append-side journal with group commit. Append() serialises straight into
// an in-memory batch; Commit() writes the whole batch to the stream at once.
// The destructor deliberately does NOT commit: a coordinator that dies with
// a buffered tail loses it, exactly like a real process kill.
class QueryJournal {
 public:
  // Fresh journal (generation 0): writes the versioned header, binding the
  // stream to the sealed snapshot whose CRC32 is `snapshot_crc`. Pass
  // `write_header = false` to append to an existing journal after a
  // restart (the header is already durable).
  QueryJournal(std::ostream* os, uint64_t snapshot_crc,
               size_t group_commit_records = 16, bool write_header = true);

  QueryJournal(const QueryJournal&) = delete;
  QueryJournal& operator=(const QueryJournal&) = delete;

  // The probe is consulted after every Append; non-kNone decisions raise
  // CoordinatorCrash (see recovery/crash.h).
  void set_crash_probe(CrashProbe probe) { probe_ = std::move(probe); }

  // Buffer one record; auto-commits when the batch is full.
  void Append(const JournalEvent& event);
  // Append and force the batch (including this record) to the stream.
  void AppendCommitted(const JournalEvent& event);
  // Flush the buffered batch to the stream.
  void Commit();

  uint64_t events_appended() const { return events_appended_; }
  uint64_t commits() const { return commits_; }
  size_t buffered_events() const { return buffered_events_; }

 private:
  std::ostream* os_;
  size_t batch_;
  std::string pending_;
  size_t buffered_events_ = 0;
  uint64_t events_appended_ = 0;
  uint64_t commits_ = 0;
  CrashProbe probe_;
};

// Parsed journal stream. `torn_tail` is true when the stream ended in a
// truncated or corrupted record; `events` then holds the longest valid
// prefix and `valid_bytes` its extent.
struct JournalReplay {
  uint32_t version = 0;
  uint64_t snapshot_crc = 0;
  std::vector<JournalEvent> events;
  bool torn_tail = false;
  size_t valid_bytes = 0;
  size_t total_bytes = 0;
};

// Walks the CRC-framed records of one journal stream in order, over a view
// of its bytes (which must outlive the reader). Open() checks the header;
// each Next() deserialises the next record in place into the caller's
// event, reusing the storage of its vectors, and returns false at the end
// of the longest valid prefix. A torn frame, a length past
// kMaxJournalRecordLen, a bad CRC, or a body that does not decode to
// exactly its framed length ends the prefix. A walk that ends before the
// end of the stream counts one torn tail (scec_recovery_torn_tails_total).
class JournalRecordReader {
 public:
  // A bad magic or an unsupported version is an error.
  static Result<JournalRecordReader> Open(std::string_view bytes);

  uint32_t version() const { return version_; }
  uint64_t snapshot_crc() const { return snapshot_crc_; }

  // The next valid record into `*event`; false once the prefix is over.
  // After a false return `*event` holds nothing meaningful.
  bool Next(JournalEvent* event);
  // Walks to the end of the valid prefix without keeping the records, so
  // a replay abandoned early still counts a torn tail like a full one.
  void SkipRest();

  // Meaningful once Next() has returned false.
  bool torn_tail() const { return valid_bytes_ < bytes_.size(); }
  size_t valid_bytes() const { return valid_bytes_; }
  size_t total_bytes() const { return bytes_.size(); }

 private:
  explicit JournalRecordReader(std::string_view bytes) : bytes_(bytes) {}

  std::string_view bytes_;
  uint32_t version_ = 0;
  uint64_t snapshot_crc_ = 0;
  size_t valid_bytes_ = 0;  // end of the last record Next() returned
  bool done_ = false;
};

// The reader's records gathered into a list. A bad header (magic/version)
// is an error; a damaged record merely ends the valid prefix. The stream
// form reads `is` once, to its end.
Result<JournalReplay> LoadJournal(const std::string& bytes);
Result<JournalReplay> LoadJournal(std::istream& is);

// Per-generation double-entry tallies, for the exactly-once cost audit.
struct GenerationTally {
  uint64_t dispatches = 0;       // canaries excluded
  uint64_t dispatch_bytes = 0;
  uint64_t canary_dispatches = 0;
  uint64_t responses = 0;
  uint64_t response_values = 0;
  uint64_t evictions = 0;
  uint64_t queries_completed = 0;
};

// Folded view of a journal prefix: what a restarted coordinator restores.
struct ReplayState {
  uint32_t last_generation = 0;
  std::vector<size_t> evicted_devices;
  std::vector<size_t> quarantined_devices;
  std::vector<JournalSegmentRecord> prior_segments;
  // (query id, decoded result) of every committed kQueryResult, in order.
  std::vector<std::pair<uint64_t, std::vector<double>>> completed;
  uint64_t next_query_id = 0;
  // The last admitted query without a committed result, if any.
  bool has_in_flight = false;
  uint64_t in_flight_id = 0;
  std::vector<double> in_flight_x;
  // Verified base-segment responses already accepted (and paid for) for the
  // in-flight query, keyed by local index. Only segment 0 qualifies: its
  // shares are byte-identical across generations, so the restarted
  // verifier can re-check these payloads; aux-segment pads are re-drawn on
  // restart, which invalidates their old responses.
  std::map<uint64_t, std::vector<double>> in_flight_responses;
  std::map<uint32_t, GenerationTally> tally;
};

// Both fold events in stream order by the same replay rules; an event that
// breaks them (a malformed segment record, an unknown evict reason) is a
// kDecodeFailure. BuildReplayState folds a loaded list. FoldJournal is the
// single pass a restart takes: it deserialises each record `reader` has
// left into one reused event and folds it at once, so no event list is
// built. After a fold error it still walks the rest of the stream (see
// SkipRest) before returning the error.
Result<ReplayState> BuildReplayState(const JournalReplay& replay);
Result<ReplayState> FoldJournal(JournalRecordReader& reader);

}  // namespace scec::recovery
