// SPDX-License-Identifier: MIT
//
// durable_journal: recovery::DurableCoordinator with its write-ahead
// journal on, m = l = 64 on a fixed campus fleet, one client in a closed
// loop. The journal goes to an in-memory stream, so what is measured is
// the journal's CPU cost, not a disk's. Every kDurableQueriesPerKill
// journaled queries the client kills (destroys) the coordinator and calls
// Restart() on the snapshot and journal it left, so every restart replays
// a journal of the same length; the next cycle deploys and starts afresh.
//
// Traced configuration: the journal writes through TimingStreamBuf, which
// counts the bytes and the time spent in stream writes (too many, at about
// eight per query, to span one by one); spans wrap every Deploy, Start,
// Query and Restart.

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "check.h"
#include "layers.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "recovery/coordinator.h"
#include "recovery/journal.h"
#include "recovery/sealed_snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

// An in-memory stream buffer that counts the bytes written through it and
// the time spent writing them.
class TimingStreamBuf : public std::streambuf {
 public:

  const std::string& data() const { return data_; }
  uint64_t bytes_counted() const { return bytes_counted_; }
  double write_s() const { return write_s_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const double t0 = NowS();
    data_.append(s, static_cast<size_t>(n));
    write_s_ += NowS() - t0;
    bytes_counted_ += static_cast<uint64_t>(n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return ch;
    const double t0 = NowS();
    data_.push_back(traits_type::to_char_type(ch));
    write_s_ += NowS() - t0;
    ++bytes_counted_;
    return ch;
  }

 private:
  std::string data_;
  uint64_t bytes_counted_ = 0;
  double write_s_ = 0.0;
};

// Swallows everything: the sink for replayed appends.
class NullStreamBuf : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
};

}  // namespace

RunResult RunDurableJournal(const RunConfig& config) {
  RunResult result;
  SpanLog* spans = config.spans;
  const scec::McscecProblem problem =
      MakeProblem(kDurableM, kDurableL, DurableFleet());
  const scec::Matrix<double> a =
      RandomDoubleMatrix(kDurableM, kDurableL, config.seed);
  scec::recovery::DurableCoordinatorOptions options;
  options.sealing_key = config.seed ^ 0x5EA1EDull;
  options.seal_salt = config.seed;

  const PinToLastCpus pin(1);
  result.context["cpus"] = pin.cpus();
  scec::Xoshiro256StarStar xrng(config.seed ^ 0xD0ABull);
  std::vector<double> x(kDurableL);
  std::vector<double> setup_s;
  std::vector<double> restart_s;
  TimedPhase phase(config.seconds);
  double eq1_cost = 0.0;
  uint64_t query_id = 0;
  uint64_t journal_events = 0;
  uint64_t journal_commits = 0;
  uint64_t stream_bytes = 0;
  uint64_t counted_bytes = 0;
  double stream_write_s = 0.0;
  std::string last_journal;
  std::optional<scec::Deployment<double>> last_deployment;
  size_t cycles = 0;

  // Cycle 0 is the warm-up; it is checked but not timed.
  while (cycles == 0 || !phase.done()) {
    const bool timed = cycles > 0;
    ++cycles;
    const double t0 = NowS();
    scec::Result<scec::Deployment<double>> deployment = [&] {
      ScopedSpan span(spans, "recovery.deploy");
      scec::ChaCha20Rng coding_rng(config.seed ^ 0xC0DEull);
      return scec::Deploy(problem, a, coding_rng);
    }();
    SCEC_CHECK(deployment.ok()) << deployment.status();
    std::string snapshot;
    TimingStreamBuf journal_buf;
    std::ostringstream plain_journal;
    std::ostream timed_journal(&journal_buf);
    std::ostream* journal_os =
        spans != nullptr ? &timed_journal : static_cast<std::ostream*>(&plain_journal);
    auto started = [&] {
      ScopedSpan span(spans, "recovery.start");
      return scec::recovery::DurableCoordinator::Start(
          *deployment, &a, problem.fleet.devices(), &snapshot, journal_os,
          options);
    }();
    SCEC_CHECK(started.ok()) << started.status();
    setup_s.push_back(NowS() - t0);
    eq1_cost = deployment->plan.allocation.total_cost;
    std::unique_ptr<scec::recovery::DurableCoordinator> coordinator =
        std::move(*started);

    std::vector<std::vector<double>> answers;
    for (size_t i = 0; i < kDurableQueriesPerKill; ++i) {
      for (double& value : x) value = 2.0 * xrng.NextDouble() - 1.0;
      ++query_id;
      const double q0 = NowS();
      scec::Result<std::vector<double>> answer = [&] {
        ScopedSpan span(spans, "recovery.query", query_id);
        return coordinator->Query(x);
      }();
      const double q1 = NowS();
      ++result.attempted;
      if (!answer.ok()) {
        ++result.failed;
        result.check_failures.push_back("durable query: " +
                                        answer.status().message());
        answers.emplace_back();
        continue;
      }
      if (!BitEqual(*answer, scec::Query(*deployment, x))) {
        ++result.failed;
        ++result.wrong;
      } else if (timed) {
        phase.AddAnswer(q1 - q0);
      }
      if (timed) phase.AddTime(q1 - q0);
      answers.push_back(std::move(*answer));
    }
    journal_events += coordinator->journal().events_appended();
    journal_commits += coordinator->journal().commits();

    coordinator.reset();  // the kill
    const std::string journal_bytes =
        spans != nullptr ? journal_buf.data() : plain_journal.str();
    std::ostringstream tail;
    const double r0 = NowS();
    auto restarted = [&] {
      ScopedSpan span(spans, "recovery.restart");
      return scec::recovery::DurableCoordinator::Restart(
          snapshot, journal_bytes, &a, problem.fleet.devices(), &tail,
          options);
    }();
    const double r1 = NowS();
    SCEC_CHECK(restarted.ok()) << restarted.status();
    if (timed) restart_s.push_back(r1 - r0);
    // The restarted incarnation must have replayed every answer the dead
    // one gave, bit for bit.
    const auto& completed = (*restarted)->replay().completed;
    bool replay_ok = completed.size() == answers.size();
    for (size_t i = 0; replay_ok && i < completed.size(); ++i) {
      replay_ok = BitEqual(completed[i].second, answers[i]);
    }
    if (!replay_ok) {
      result.check_failures.push_back(
          "durable: restart did not replay the journaled answers");
    }

    stream_bytes += journal_bytes.size();
    counted_bytes += journal_buf.bytes_counted();
    stream_write_s += journal_buf.write_s();
    last_journal = journal_bytes;
    last_deployment = std::move(*deployment);
  }

  const double ok = static_cast<double>(phase.answers());
  const uint64_t timed_attempted =
      result.attempted - kDurableQueriesPerKill;  // cycle 0 is warm-up
  result.context["latency_samples"] = std::to_string(phase.answers());
  result.context["tail_quantile"] = std::to_string(phase.tail_quantile());
  result.context["slice_queries_per_s"] = phase.SliceRates();
  result.context["kills"] = std::to_string(restart_s.size());
  result.context["queries_per_kill"] = std::to_string(kDurableQueriesPerKill);

  if (spans == nullptr) {
    result.metrics["setup_s"] = {Median(setup_s), "s"};
    result.metrics["restart_s"] = {Median(restart_s), "s"};
    result.metrics["query_p50_s"] = {phase.P50(), "s"};
    result.metrics["query_p99_s"] = {phase.Tail(), "s"};
    result.metrics["queries_per_s"] = {phase.QueriesPerS(), "1/s"};
    result.metrics["query_ok_frac"] = {
        ok / static_cast<double>(timed_attempted), "ratio"};
    result.metrics["eq1_cost"] = {eq1_cost, "cost"};
    return result;
  }

  // Per-layer metrics. Ratios are over every query of every cycle, the
  // span the journal counters cover.
  const double queries = static_cast<double>(query_id);
  const double per_kill = static_cast<double>(kDurableQueriesPerKill);

  // QueryJournal::Append replayed on the last cycle's recorded events.
  scec::Result<scec::recovery::JournalReplay> loaded =
      scec::recovery::LoadJournal(last_journal);
  SCEC_CHECK(loaded.ok()) << loaded.status();
  const std::vector<scec::recovery::JournalEvent>& events = loaded->events;
  NullStreamBuf null_buf;
  std::ostream null_os(&null_buf);
  const double append_s = MedianCallSeconds([&] {
    scec::recovery::QueryJournal journal(&null_os, loaded->snapshot_crc,
                                         options.group_commit_records);
    for (const auto& event : events) journal.Append(event);
    journal.Commit();
  });
  const double replay_s = MedianCallSeconds([&] {
    auto replay = scec::recovery::LoadJournal(last_journal);
    SCEC_CHECK(replay.ok());
    SCEC_CHECK(scec::recovery::BuildReplayState(*replay).ok());
  });
  std::string sealed;
  const double seal_s = MedianCallSeconds([&] {
    std::ostringstream os;
    SCEC_CHECK(scec::recovery::SaveSealedDeployment(
                   *last_deployment, options.sealing_key, options.seal_salt, os)
                   .ok());
    sealed = os.str();
  });
  const double unseal_s = MedianCallSeconds([&] {
    std::istringstream is(sealed);
    SCEC_CHECK(
        scec::recovery::LoadSealedDeploymentDouble(is, options.sealing_key)
            .ok());
  });
  // CRC-32 at the mean journal record size of the last cycle.
  const size_t record_bytes = std::max<size_t>(
      1, (last_journal.size() - 16) / std::max<size_t>(1, events.size()));
  const std::string record(record_bytes, '\x5A');
  const double crc_s = Crc32Seconds(record);

  const double query_s = spans->Total("recovery.query");
  const double append_per_query = append_s / per_kill;
  const double write_per_query = stream_write_s / queries;
  MetricMap& m = result.metrics;
  m["recovery.journal_append_s_per_query"] = {append_per_query, "s"};
  m["recovery.stream_write_s_per_query"] = {write_per_query, "s"};
  m["recovery.journal_bytes_per_query"] = {
      static_cast<double>(stream_bytes) / queries, "B"};
  m["recovery.journal_events_per_query"] = {
      static_cast<double>(journal_events) / queries, "count"};
  m["recovery.commits_per_query"] = {
      static_cast<double>(journal_commits) / queries, "count"};
  m["recovery.crc32_bytes_per_s"] = {static_cast<double>(record_bytes) / crc_s,
                                     "B/s"};
  m["recovery.seal_s"] = {seal_s, "s"};
  m["recovery.unseal_s"] = {unseal_s, "s"};
  m["recovery.replay_s"] = {replay_s, "s"};
  m["sim.protocol_self_s_per_query"] = {
      query_s / queries - append_per_query - write_per_query, "s"};
  m["queries_per_s"] = {phase.QueriesPerS(), "1/s"};  // for obs.trace_overhead

  // Reconciliation: the bytes the timing stream counted equal the size of
  // the streams it produced, and the last one parses to its full length.
  if (counted_bytes != stream_bytes ||
      loaded->total_bytes != last_journal.size() || loaded->torn_tail) {
    result.check_failures.push_back(
        "durable: journal bytes counted by the timing stream != stream size");
  }

  const std::string shape = "m=" + std::to_string(kDurableM) +
                            " l=" + std::to_string(kDurableL) +
                            " k=" + std::to_string(problem.k());
  const double journal_size = static_cast<double>(last_journal.size());
  config.table->Add({"QueryJournal::Append (one cycle's events)",
                     shape + " events=" + std::to_string(events.size()),
                     append_s, static_cast<double>(events.size()),
                     journal_size});
  config.table->Add({"LoadJournal + BuildReplayState",
                     shape + " queries=" + std::to_string(kDurableQueriesPerKill),
                     replay_s, static_cast<double>(events.size()),
                     journal_size});
  config.table->Add({"SaveSealedDeployment", shape, seal_s,
                     static_cast<double>(sealed.size()),
                     static_cast<double>(sealed.size())});
  config.table->Add({"LoadSealedDeploymentDouble", shape, unseal_s,
                     static_cast<double>(sealed.size()),
                     static_cast<double>(sealed.size())});
  config.table->Add({"Crc32 (journal record)",
                     "bytes=" + std::to_string(record_bytes), crc_s,
                     static_cast<double>(record_bytes),
                     static_cast<double>(record_bytes)});
  return result;
}

}  // namespace perfbench
