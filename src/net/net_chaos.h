// SPDX-License-Identifier: MIT
//
// Socket-level chaos harness: the in-sim chaos discipline (sim/chaos.h)
// replayed over REAL sockets. Each episode derives its whole fault schedule
// from (seed, index), then builds a live loopback cluster —
//
//   N scecd daemons  ←  N chaos proxies  ←  SocketTransport  ←  NetCoordinator
//
// — runs queries through it under loss / delay / reorder / partition /
// mid-message kill / Byzantine / silent-device faults, and checks the
// invariants the deterministic harness (sim/chaos.h) enforces:
//
//   1. decode    — every successfully answered query equals the locally
//                  computed A·x within float tolerance;
//   2. security  — every device's cumulative view stays Def. 2 ITS-secure
//                  across all recovery re-encodes (exact GF(2^61−1) ranks);
//   3. ledger    — double-entry accounting reconciles (ReconcileLedgers):
//                  staged bytes match what the daemons acknowledged, the
//                  transport's delivered responses and response bytes equal
//                  the driver's seen ones plus the harness's post-drain
//                  sweep, query bytes match dispatches × l × 8 on both
//                  sides of the interface, and used-response bytes never
//                  exceed seen bytes;
//   4. liveness  — every query returns an explicit outcome (decoded,
//                  kInfeasible, or kInternal) and the episode finishes
//                  under a hard wall cap.
//
// The masking family (`byzantine_tolerance` t > 0) plans first, makes one
// participating daemon lie on every answer and keeps out every fault that
// legitimately forces a recovery round (loss, silence, partition, kill).
// With guards provisioned it adds the sim harness's two Byzantine checks:
//
//   5. masking    — every query decodes with ZERO recovery rounds, and a
//                   query is counted masked;
//   6. quarantine — the lying daemon ends the episode quarantined.
//
// Unlike the simulator, wall-clock scheduling here is nondeterministic — the
// *schedule* is replayable from the seed, the exact interleaving is not; the
// invariants are written to hold under every interleaving. A failing
// episode's (seed, index) plus DescribeNetSchedule() is the repro recipe
// (bench/net_cluster --mode=chaos re-runs it).

#pragma once

#include <cstdint>
#include <string>

#include "net/driver.h"
#include "net/transport.h"

namespace scec::net {

struct NetChaosConfig {
  uint64_t seed = 1;
  size_t num_devices = 6;
  size_t m = 18;
  size_t l = 12;
  size_t queries = 4;

  // Fault intensity ceilings; per-episode values are drawn below them.
  double max_drop_prob = 0.12;
  bool enable_partition = true;
  bool enable_kill = true;
  bool enable_byzantine = true;
  bool enable_silent = true;
  size_t byzantine_tolerance = 0;    // > 0: the masking family

  double episode_wall_cap_s = 60.0;  // liveness backstop
};

// The schedule derived from (seed, index); SIZE_MAX device slots = fault off.
struct NetChaosSchedule {
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  double delay_s = 0.0;
  double reorder_prob = 0.0;
  size_t byzantine_device = SIZE_MAX;
  size_t silent_device = SIZE_MAX;
  size_t partition_device = SIZE_MAX;
  size_t partition_query = SIZE_MAX;
  double partition_heal_s = 0.0;
  size_t kill_device = SIZE_MAX;
  uint64_t kill_after_frames = 0;
};

struct NetChaosInvariants {
  bool decode_exact = true;
  bool security_its = true;
  bool ledger_balanced = true;
  bool liveness = true;
  bool masking = true;     // masking family only
  bool quarantine = true;  // masking family only

  bool AllHold() const {
    return decode_exact && security_its && ledger_balanced && liveness &&
           masking && quarantine;
  }
};

struct NetChaosEpisode {
  uint64_t seed = 0;
  size_t index = 0;
  NetChaosSchedule schedule;
  size_t byzantine_effective = 0;  // guard segments provisioned
  NetChaosInvariants invariants;
  std::string failure;  // first violated invariant + detail; empty if ok
  NetCoordinatorStats driver_stats;
  NetTransportStats transport_stats;
  size_t queries_answered = 0;
  double wall_s = 0.0;

  bool ok() const { return invariants.AllHold(); }
};

struct NetChaosSummary {
  size_t episodes = 0;
  size_t failures = 0;
  std::string first_failure;  // DescribeNetSchedule + failure of first bad
};

NetChaosEpisode RunNetChaosEpisode(const NetChaosConfig& config, size_t index);
NetChaosSummary RunNetChaosSoak(const NetChaosConfig& config,
                                size_t episodes);

std::string DescribeNetSchedule(const NetChaosEpisode& episode);
std::string NetReproCommand(const NetChaosConfig& config, size_t index);

}  // namespace scec::net
