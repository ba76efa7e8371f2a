// SPDX-License-Identifier: MIT
//
// Durable SCEC coordinator: the crash-recovery shell around the protocol
// driver (net/driver.h), run over a simulated fleet (net/sim_transport.h)
// built from the options.
//
// Lifecycle:
//   Start()    — seals the deployment into a snapshot (pads never reach the
//                stream in plaintext, recovery/sealed_snapshot.h), opens a
//                fresh write-ahead journal bound to that snapshot's CRC32,
//                and stages a generation-0 driver with the journal
//                attached. From then on every lifecycle event is written
//                ahead of the state change it records.
//   <crash>    — anywhere. With a crash probe installed (recovery/crash.h)
//                the journal raises CoordinatorCrash at the chosen protocol
//                point; the coordinator object is simply destroyed, exactly
//                like a process kill. Un-committed journal tail is lost.
//   Restart()  — verifies the journal belongs to the snapshot (CRC binding),
//                unseals the deployment with the operator-supplied key,
//                folds the journal's longest valid prefix into a
//                ReplayState as it reads it (one pass, no event list),
//                and stages a generation-N+1 driver that re-adopts that
//                state: evictions, quarantines, prior pad segments (for
//                the cumulative Def. 2 ITS check), the query id sequence,
//                and the in-flight query's already-paid-for responses
//                (exactly-once Eq. (1) accounting).
//
// Recovery state machine (see docs/PROTOCOL.md):
//   LOAD -> BIND(journal crc == snapshot crc) -> UNSEAL -> REPLAY ->
//   RESTAGE -> RESTORE -> [RESUME in-flight query] -> SERVING
// Any arrow may fail with a Status; nothing partial escapes.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "core/pipeline.h"
#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/journal.h"

namespace scec::recovery {

// Driver options tuned to the simulator's clock: a 20 ms deadline floor
// instead of the socket path's 250 ms.
net::NetCoordinatorOptions SimDriverOptions();

// The driver serving `deployment` over a fresh simulated fleet, staged on
// construction (benches and tests).
struct SimDriver {
  SimDriver(const Deployment<double>& deployment, const Matrix<double>& a,
            const DeviceFleet& fleet, net::SimTransportOptions sim = {},
            net::NetCoordinatorOptions options = SimDriverOptions())
      : session(DeploymentSession<double>::Adopt(deployment)),
        transport(fleet.devices(), std::move(sim)),
        driver(session, a, fleet, std::move(options)) {
    const Status setup = driver.Setup(&transport);
    SCEC_CHECK(setup.ok()) << setup;
  }
  // The driver points at `session` and `transport`: never copied or moved
  // (a prvalue return is elided, so factories still work).
  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  DeploymentSession<double> session;
  net::SimTransport transport;
  net::NetCoordinator driver;
};

struct DurableCoordinatorOptions {
  // KMS-held sealing key: used to seal the snapshot at Start and to unseal
  // it at Restart. Never persisted.
  uint64_t sealing_key = 0x5CEC5EA1ED000001u;
  // Per-snapshot keystream nonce; stored in the clear inside the snapshot.
  uint64_t seal_salt = 1;
  size_t group_commit_records = 16;
  net::SimTransportOptions sim;  // the simulated fleet: stragglers, faults, loss
  net::NetCoordinatorOptions driver = SimDriverOptions();
  // Optional crash injection (tests / chaos). Consulted on every journal
  // append; non-kNone decisions raise CoordinatorCrash.
  CrashProbe crash_probe;
};

class DurableCoordinator {
 public:
  // Seals `deployment` into `*snapshot_out`, opens a journal on
  // `*journal_os` bound to the snapshot, and stages generation 0. The
  // coordinator works from the UNSEALED COPY of the snapshot rather than
  // the caller's object, so what it serves is provably what it persisted.
  // `a` and `journal_os` must outlive the coordinator. May throw
  // CoordinatorCrash when a crash probe fires during staging.
  static Result<std::unique_ptr<DurableCoordinator>> Start(
      const Deployment<double>& deployment, const Matrix<double>* a,
      std::vector<EdgeDevice> fleet, std::string* snapshot_out,
      std::ostream* journal_os, DurableCoordinatorOptions options);

  // Brings a dead coordinator back from its durable remains: the sealed
  // snapshot bytes and the journal bytes that survived (possibly with a
  // torn tail). `journal_os` receives this incarnation's appended records
  // (pass the same underlying stream to keep one continuous journal). May
  // throw CoordinatorCrash when a crash probe fires during re-staging.
  static Result<std::unique_ptr<DurableCoordinator>> Restart(
      const std::string& snapshot, const std::string& journal_bytes,
      const Matrix<double>* a, std::vector<EdgeDevice> fleet,
      std::ostream* journal_os, DurableCoordinatorOptions options);

  // Serves one query through the journaled driver.
  Result<std::vector<double>> Query(const std::vector<double>& x);

  // True when the replayed journal left a query admitted but unanswered.
  bool has_in_flight() const { return replay_.has_in_flight; }
  // Re-runs the in-flight query: journaled base-segment responses are
  // re-verified and injected instead of re-dispatched.
  Result<std::vector<double>> ResumeInFlight();

  const ReplayState& replay() const { return replay_; }
  const net::NetCoordinator& driver() const { return *driver_; }
  const net::SimTransport& transport() const { return *transport_; }
  net::SimTransport& transport() { return *transport_; }
  QueryJournal& journal() { return *journal_; }
  uint32_t generation() const { return session_->pad_generation(); }

 private:
  DurableCoordinator() = default;
  // Opens incarnation `generation` over the unsealed deployment: session,
  // journal (fresh at generation 0, else a restart marker), then Stage().
  static Result<std::unique_ptr<DurableCoordinator>> Launch(
      Deployment<double> unsealed, uint32_t generation, uint64_t snapshot_crc,
      std::ostream* journal_os, const Matrix<double>& a,
      std::vector<EdgeDevice> fleet, const DurableCoordinatorOptions& options);
  // Builds the simulated fleet and the driver over the session, and stages.
  Status Stage(const Matrix<double>& a, std::vector<EdgeDevice> fleet,
               const DurableCoordinatorOptions& options);

  // Unsealed working copy of the snapshot, owned as a session. The session
  // carries the incarnation number (pad_generation) and the journal
  // attachment; the driver is constructed FROM the session so both are
  // adopted before staging.
  std::optional<DeploymentSession<double>> session_;
  std::unique_ptr<QueryJournal> journal_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<net::NetCoordinator> driver_;
  ReplayState replay_;
};

}  // namespace scec::recovery
