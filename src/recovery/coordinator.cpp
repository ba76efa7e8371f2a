// SPDX-License-Identifier: MIT

#include "recovery/coordinator.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "recovery/crc32.h"
#include "recovery/sealed_snapshot.h"

namespace scec::recovery {
namespace {

// Replayed state is journal input, i.e. disk input: everything it names is
// re-validated against the live deployment, matrix, and fleet before the
// protocol adopts any of it. A doctored or stale journal yields a Status,
// never an out-of-bounds restore.
Status ValidateReplayState(const ReplayState& state,
                           const Deployment<double>& deployment,
                           const Matrix<double>& a, size_t fleet_size) {
  for (const auto* devices :
       {&state.evicted_devices, &state.quarantined_devices}) {
    for (const size_t d : *devices) {
      if (d >= fleet_size) {
        return DecodeFailure("journaled standing names device " +
                             std::to_string(d) + " outside the fleet");
      }
    }
  }
  for (const JournalSegmentRecord& rec : state.prior_segments) {
    for (const size_t p : rec.phys) {
      if (p >= fleet_size) {
        return DecodeFailure("journaled segment maps to device " +
                             std::to_string(p) + " outside the fleet");
      }
    }
    for (const size_t row : rec.data_rows) {
      if (row >= a.rows()) {
        return DecodeFailure("journaled segment covers row " +
                             std::to_string(row) + " outside the matrix");
      }
    }
  }
  if (state.has_in_flight && state.in_flight_x.size() != deployment.l) {
    return DecodeFailure(
        "journaled in-flight query length does not match the deployment");
  }
  for (const auto& [local, values] : state.in_flight_responses) {
    (void)values;
    if (local >= deployment.shares.size()) {
      return DecodeFailure("journaled response names a base-segment device " +
                           std::to_string(local) + " outside the scheme");
    }
  }
  return Status::Ok();
}

}  // namespace

net::NetCoordinatorOptions SimDriverOptions() {
  net::NetCoordinatorOptions options;
  options.rpc_deadline_s = 0.02;
  return options;
}

Result<std::unique_ptr<DurableCoordinator>> DurableCoordinator::Launch(
    Deployment<double> unsealed, uint32_t generation, uint64_t snapshot_crc,
    std::ostream* journal_os, const Matrix<double>& a,
    std::vector<EdgeDevice> fleet, const DurableCoordinatorOptions& options) {
  auto coordinator =
      std::unique_ptr<DurableCoordinator>(new DurableCoordinator());
  coordinator->session_.emplace(
      DeploymentSession<double>::Adopt(std::move(unsealed)));
  coordinator->session_->set_pad_generation(generation);
  // Generation 0 opens a fresh journal (versioned header); restarts append.
  coordinator->journal_ = std::make_unique<QueryJournal>(
      journal_os, snapshot_crc, options.group_commit_records,
      /*write_header=*/generation == 0);
  if (options.crash_probe) {
    coordinator->journal_->set_crash_probe(options.crash_probe);
  }
  coordinator->session_->AttachJournal(coordinator->journal_.get());
  if (generation > 0) {
    // The incarnation marker goes in before anything else this generation
    // writes: a later replay needs it to attribute the records that follow.
    JournalEvent restart_event;
    restart_event.kind = JournalEventKind::kRestart;
    restart_event.generation = generation;
    coordinator->journal_->AppendCommitted(restart_event);
  }
  SCEC_RETURN_IF_ERROR(coordinator->Stage(a, std::move(fleet), options));
  return coordinator;
}

Status DurableCoordinator::Stage(const Matrix<double>& a,
                                 std::vector<EdgeDevice> fleet,
                                 const DurableCoordinatorOptions& options) {
  transport_ = std::make_unique<net::SimTransport>(fleet, options.sim);
  // The driver adopts the session's pad generation (salting its pad seed,
  // so restarts never replay an earlier incarnation's pads) and journal.
  driver_ = std::make_unique<net::NetCoordinator>(
      *session_, a, DeviceFleet(std::move(fleet)), options.driver);
  return driver_->Setup(transport_.get());  // may throw CoordinatorCrash
}

Result<std::unique_ptr<DurableCoordinator>> DurableCoordinator::Start(
    const Deployment<double>& deployment, const Matrix<double>* a,
    std::vector<EdgeDevice> fleet, std::string* snapshot_out,
    std::ostream* journal_os, DurableCoordinatorOptions options) {
  SCEC_CHECK(a != nullptr);
  SCEC_CHECK(snapshot_out != nullptr);
  SCEC_CHECK(journal_os != nullptr);

  *snapshot_out =
      SealDeployment(deployment, options.sealing_key, options.seal_salt);
  const uint64_t snapshot_crc =
      Crc32(snapshot_out->data(), snapshot_out->size());

  // Serve from the unsealed copy of the snapshot, not the caller's object:
  // if the coordinator can answer queries, the durable bytes provably hold
  // the same deployment a restart would recover.
  auto unsealed = UnsealDeploymentDouble(*snapshot_out, options.sealing_key);
  if (!unsealed.ok()) return unsealed.status();
  return Launch(std::move(unsealed).value(), /*generation=*/0, snapshot_crc,
                journal_os, *a, std::move(fleet), options);
}

Result<std::unique_ptr<DurableCoordinator>> DurableCoordinator::Restart(
    const std::string& snapshot, const std::string& journal_bytes,
    const Matrix<double>* a, std::vector<EdgeDevice> fleet,
    std::ostream* journal_os, DurableCoordinatorOptions options) {
  SCEC_CHECK(a != nullptr);
  SCEC_CHECK(journal_os != nullptr);
  const auto replay_start = std::chrono::steady_clock::now();

  // One pass over the journal: header first, then, once the snapshot is
  // bound and unsealed, each record is folded as it is read. An error
  // before the fold still walks the records, so the torn-tail count does
  // not depend on which step failed.
  SCEC_ASSIGN_OR_RETURN(JournalRecordReader journal,
                        JournalRecordReader::Open(journal_bytes));
  const uint64_t snapshot_crc = Crc32(snapshot.data(), snapshot.size());
  if (journal.snapshot_crc() != snapshot_crc) {
    journal.SkipRest();
    return FailedPrecondition(
        "journal is not bound to this snapshot (CRC mismatch)");
  }

  auto unsealed = UnsealDeploymentDouble(snapshot, options.sealing_key);
  if (!unsealed.ok()) {
    journal.SkipRest();
    return unsealed.status();
  }

  SCEC_ASSIGN_OR_RETURN(ReplayState state, FoldJournal(journal));
  SCEC_RETURN_IF_ERROR(
      ValidateReplayState(state, *unsealed, *a, fleet.size()));

  SCEC_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableCoordinator> coordinator,
      Launch(std::move(unsealed).value(), state.last_generation + 1,
             snapshot_crc, journal_os, *a, std::move(fleet), options));
  coordinator->driver_->RestoreFromReplay(state);
  coordinator->replay_ = std::move(state);

  const double replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    replay_start)
          .count();
  obs::MetricsRegistry::Global()
      .GetHistogram("scec_recovery_replay_seconds")
      .Observe(replay_seconds);
  return coordinator;
}

Result<std::vector<double>> DurableCoordinator::Query(
    const std::vector<double>& x) {
  SCEC_CHECK(driver_ != nullptr);
  return driver_->Query(x);
}

Result<std::vector<double>> DurableCoordinator::ResumeInFlight() {
  SCEC_CHECK(driver_ != nullptr);
  if (!replay_.has_in_flight) {
    return FailedPrecondition("no in-flight query to resume");
  }
  // The driver consumes its resume arming on the first Query either way,
  // so the in-flight marker is cleared even on failure — a retry would be
  // a fresh dispatch, not a resumption.
  replay_.has_in_flight = false;
  return driver_->Query(replay_.in_flight_x);
}

}  // namespace scec::recovery
