// SPDX-License-Identifier: MIT

#include "sim/chaos.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "linalg/matrix_ops.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket_transport.h"
#include "workload/device_profiles.h"

namespace scec::sim {
namespace {

// Scenario ranges (inclusive) and caps shared by every episode.
constexpr size_t kShapeMin = 4;  // m and l
constexpr size_t kShapeMax = 12;
constexpr size_t kFleetMin = 6;
constexpr size_t kFleetMax = 12;
// At most this many scripted faulty devices per episode (also capped at
// participating − 2 so an episode can't be scripted straight to collapse).
constexpr size_t kMaxFaulty = 3;
constexpr double kLossProbability = 0.03;
constexpr double kBackoffJitter = 0.2;  // exercises the seeded-jitter path
constexpr double kEpisodeWallCapS = 60.0;  // liveness backstop

// Socket fleets: wall seconds per virtual second of a transient window
// (the socket deadline floor is ~10x the simulator's), and the proxy knobs
// of lossy links and stragglers.
constexpr double kSocketTimeScale = 10.0;
constexpr double kSocketDropProb = 0.05;
constexpr double kSocketDelayProb = 0.15;
constexpr double kSocketDelayS = 0.02;
constexpr double kSocketReorderProb = 0.1;
constexpr double kSocketStragglerProb = 0.2;

size_t DrawInRange(Xoshiro256StarStar& rng, size_t lo, size_t hi) {
  SCEC_CHECK_LE(lo, hi);
  return lo + static_cast<size_t>(rng.NextBelow(hi - lo + 1));
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Marks `invariant` violated; the first violation is the episode's failure.
void Fail(bool ChaosInvariants::*invariant, const std::string& failure,
          ChaosEpisode* episode) {
  episode->invariants.*invariant = false;
  if (episode->failure.empty()) episode->failure = failure;
}

// An episode that could not run on: `what` ended with `status`.
void FailEarly(bool ChaosInvariants::*invariant, const std::string& what,
               const Status& status, ChaosEpisode* episode) {
  episode->outcome = status.ToString();
  Fail(invariant, what + " failed: " + episode->outcome, episode);
}

// Everything an episode's driver run needs, derived once from the episode
// seed. Plain and crash-injected episodes share this derivation VERBATIM so
// RunCrashEpisode(config, i) exercises the bit-identical scenario of
// RunChaosEpisode(config, i). Filled in place (never moved): options.faults
// points at this object's own schedule.
struct ChaosScenario {
  McscecProblem problem;
  Matrix<double> a;
  std::vector<double> x;
  std::vector<double> expected;
  // The episode's tenant session (core/pipeline.h): owns the deployment;
  // plain and crash episodes build their driver / coordinator from it.
  std::optional<DeploymentSession<double>> session;
  FaultSchedule faults;
  net::SimTransportOptions options;
  net::NetCoordinatorOptions driver;
};

// Draws the scenario from `rng` (already seeded with the episode seed) and
// fills `episode`'s identity fields. Returns false when deployment fails —
// the episode is then fully marked (liveness violation) and must be
// returned as-is. The RNG draw order below is load-bearing: it must match
// the historical RunChaosEpisode exactly, or every soak seed changes.
bool DeriveScenario(const ChaosMix& mix, Xoshiro256StarStar& rng,
                    ChaosEpisode* episode, ChaosScenario* scenario) {
  episode->m = DrawInRange(rng, kShapeMin, kShapeMax);
  episode->l = DrawInRange(rng, kShapeMin, kShapeMax);
  episode->fleet = DrawInRange(rng, kFleetMin, kFleetMax);
  episode->stragglers = rng.NextDouble() < mix.straggler;
  episode->lossy = rng.NextDouble() < mix.lossy_links;
  episode->hedging = mix.hedging;
  episode->adaptive = mix.adaptive_timeouts;
  episode->byzantine_tolerance = mix.byzantine_tolerance;

  McscecProblem& problem = scenario->problem;
  problem.m = episode->m;
  problem.l = episode->l;
  problem.fleet = MakeCampusFleet(episode->fleet, rng);
  scenario->a = RandomMatrix<double>(problem.m, problem.l, rng);
  scenario->x = RandomVector<double>(problem.l, rng);
  scenario->expected =
      MatVec(scenario->a, std::span<const double>(scenario->x));

  ChaCha20Rng coding_rng(episode->seed ^ 0xC0D1A6ull);
  // Session Open with default options draws the exact rng stream of the
  // free Deploy() call it replaced, so every historical soak seed still
  // derives the bit-identical deployment.
  auto session =
      DeploymentSession<double>::Open(problem, scenario->a, coding_rng);
  if (!session.ok()) {
    FailEarly(&ChaosInvariants::liveness, "liveness: deployment",
              session.status(), episode);
    return false;
  }
  scenario->session.emplace(std::move(session).value());
  const std::vector<size_t>& participating =
      scenario->session->plan().participating;

  // Scripted fault schedule over participating devices, capped so the
  // script alone cannot push the fleet below k = 2. Byzantine mixes cap
  // liars at t as well, so masked episodes stay within the locator's budget.
  size_t cap = std::min(
      kMaxFaulty,
      participating.size() > 2 ? participating.size() - 2 : size_t{0});
  if (mix.byzantine_tolerance > 0) {
    cap = std::min(cap, mix.byzantine_tolerance);
  }
  std::vector<size_t> candidates = participating;
  for (size_t i = candidates.size(); i > 1; --i) {  // seeded Fisher–Yates
    std::swap(candidates[i - 1], candidates[rng.NextBelow(i)]);
  }
  const double fault_weight =
      mix.crash + mix.omission + mix.corruption + mix.transient;
  FaultSchedule& faults = scenario->faults;
  faults.SetSeed(episode->seed ^ 0xB42Dull);
  double coordinated_delta = 0.0;
  bool coordinated_drawn = false;
  for (size_t i = 0; i < candidates.size() && episode->schedule.size() < cap;
       ++i) {
    if (rng.NextDouble() >= fault_weight) continue;
    double pick = rng.NextDouble() * fault_weight;
    ChaosScheduledFault fault;
    fault.device = candidates[i];
    if ((pick -= mix.crash) < 0.0) {
      fault.kind = FaultKind::kCrash;
      fault.start_s = rng.NextDouble(0.0, 0.02);
    } else if ((pick -= mix.omission) < 0.0) {
      fault.kind = FaultKind::kOmission;
      fault.start_s = rng.NextDouble(0.0, 0.01);
    } else if ((pick -= mix.corruption) < 0.0) {
      fault.kind = FaultKind::kCorruption;
      if (mix.coordinated) {
        // Coordinated ≤ t-subset attack: every liar injects the SAME
        // (element, delta), so their corruptions corroborate each other.
        if (!coordinated_drawn) {
          coordinated_delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                              rng.NextDouble(0.5, 2.0);
          coordinated_drawn = true;
        }
        fault.delta = coordinated_delta;
      } else if (mix.corruption_relative) {
        // Minimal-magnitude attack: deltas near the decode tolerance,
        // scaled by the element's own magnitude at firing time.
        fault.delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                      rng.NextDouble(1e-5, 1e-3);
      } else {
        fault.delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                      rng.NextDouble(0.5, 2.0);
      }
      fault.probability = mix.corruption_probability;
      fault.relative = mix.corruption_relative;
      fault.equivocate = mix.corruption_equivocate;
    } else {
      fault.kind = FaultKind::kTransient;
      fault.start_s = rng.NextDouble(0.0, 0.01);
      fault.end_s = fault.start_s + rng.NextDouble(0.02, 0.1);
    }
    faults.Add(fault.device, fault);
    episode->schedule.push_back(fault);
  }

  net::SimTransportOptions& options = scenario->options;
  options.straggler_seed = episode->seed ^ 0x57A661ull;
  if (episode->stragglers) {
    options.straggler.kind = StragglerKind::kShiftedExponential;
    options.straggler.rate = rng.NextDouble(0.5, 4.0);
    options.straggler.shift = 1.0;
    options.straggler.multiplier_cap = 25.0;  // bounded tail: no stalls
  }
  if (episode->transport_kind == ChaosTransport::kSim) {
    // No draw here, so a mix's sim tuning moves no other draw.
    options.straggler.rate *= mix.straggler_rate_scale;
    for (size_t d = 0; d < problem.fleet.size(); ++d) {
      problem.fleet[d].compute_rate_flops /= mix.compute_slowdown;
    }
  }
  if (episode->lossy) {
    options.loss_probability = kLossProbability;
    options.loss_seed = episode->seed ^ 0x105Eull;
  }

  net::NetCoordinatorOptions& driver = scenario->driver;
  driver = recovery::SimDriverOptions();
  driver.hedging = mix.hedging;
  driver.adaptive_timeouts = mix.adaptive_timeouts;
  driver.backoff_jitter = kBackoffJitter;
  driver.jitter_seed = episode->seed ^ 0x317732ull;
  driver.digest_seed = episode->seed ^ 0xF4E1A7D5ull;
  driver.pad_seed = episode->seed ^ 0x9D2C5680ull;
  driver.byzantine_tolerance = mix.byzantine_tolerance;

  // Last: the schedule pointer must target THIS scenario object, which the
  // caller keeps alive for the whole episode.
  options.faults = &scenario->faults;
  return true;
}

// A socket episode's live loopback cluster: one scecd daemon behind one
// ChaosProxy per fleet device. The scripted schedule splits into device
// faults, which each daemon's DeviceCore plays from its copy of the
// device's script (omission, corruption: the simulator's events, lies and
// coin seed), and link faults on the proxy (crash, transient). Every fault
// strikes from the first query on: a loopback query takes about a
// millisecond, so the drawn start times, scaled, would land after the
// episode. A transient partition heals after kSocketTimeScale × its drawn
// window. Outlives the transport that connects to it.
class SocketFleet {
 public:
  SocketFleet() = default;
  SocketFleet(const SocketFleet&) = delete;
  SocketFleet& operator=(const SocketFleet&) = delete;
  ~SocketFleet() {
    FinishSchedule();
    for (auto& proxy : proxies_) proxy->Stop();
    for (auto& daemon : daemons_) daemon->Stop();
  }

  Status Start(const ChaosMix& mix, const ChaosEpisode& episode,
               const ChaosScenario& scenario) {
    net::ChaosProxyOptions link;
    if (episode.lossy) {
      link.drop_prob = kSocketDropProb;
      link.delay_prob = kSocketDelayProb;
      link.delay_s = kSocketDelayS;
      link.reorder_prob = kSocketReorderProb;
    }
    if (episode.stragglers) {
      link.delay_prob = std::max(link.delay_prob, kSocketStragglerProb);
      link.delay_s = std::max(
          link.delay_s,
          mix.socket_straggler_delay_s / scenario.options.straggler.rate);
    }
    for (size_t d = 0; d < scenario.problem.fleet.size(); ++d) {
      net::ScecdOptions daemon{.daemon_id = d,
                               .fault_seed = scenario.faults.seed()};
      for (FaultEvent event : scenario.faults.EventsFor(d)) {
        if (event.kind == FaultKind::kOmission ||
            event.kind == FaultKind::kCorruption) {
          event.start_s = 0.0;
          daemon.faults.push_back(event);
        }
      }
      daemons_.push_back(std::make_unique<net::ScecDaemon>(std::move(daemon)));
      Status up = daemons_.back()->Start();
      if (!up.ok()) return up;
      net::ChaosProxyOptions options = link;
      options.upstream_port = daemons_.back()->port();
      options.seed = episode.seed ^ (0x9E3779B97F4A7C15ull * (d + 1));
      proxies_.push_back(std::make_unique<net::ChaosProxy>(options));
      up = proxies_.back()->Start();
      if (!up.ok()) return up;
      ports_.push_back(proxies_.back()->port());
    }
    for (const ChaosScheduledFault& fault : episode.schedule) {
      net::ChaosProxy* proxy = proxies_[fault.device].get();
      if (fault.kind == FaultKind::kCrash) crashes_.push_back(proxy);
      if (fault.kind == FaultKind::kTransient) {
        partitions_.emplace_back(
            kSocketTimeScale * (fault.end_s - fault.start_s), proxy);
      }
    }
    std::sort(partitions_.begin(), partitions_.end());
    return Status::Ok();
  }

  const std::vector<uint16_t>& ports() const { return ports_; }

  // Crashes and partitions the proxies; a thread heals each partition.
  void StartSchedule() {
    for (net::ChaosProxy* proxy : crashes_) proxy->Crash();
    for (const auto& [heal_s, proxy] : partitions_) {
      proxy->SetPartitioned(true);
    }
    healer_ = std::thread([this, t0 = std::chrono::steady_clock::now()] {
      for (const auto& [heal_s, proxy] : partitions_) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(heal_s)));
        proxy->SetPartitioned(false);
      }
    });
  }
  // Waits until every partition has healed.
  void FinishSchedule() {
    if (healer_.joinable()) healer_.join();
  }

  // What device `d`'s daemon says it computed.
  net::DeviceOps daemon_ops(size_t d) const { return daemons_[d]->ops(); }

  net::ChaosProxyStats stats() const {
    net::ChaosProxyStats sum;
    for (const auto& proxy : proxies_) {
      const net::ChaosProxyStats one = proxy->stats();
      sum.frames_dropped += one.frames_dropped;
      sum.frames_delayed += one.frames_delayed;
      sum.frames_reordered += one.frames_reordered;
      sum.partition_discards += one.partition_discards;
      sum.kills += one.kills;
    }
    return sum;
  }

 private:
  std::vector<std::unique_ptr<net::ScecDaemon>> daemons_;
  std::vector<std::unique_ptr<net::ChaosProxy>> proxies_;
  std::vector<uint16_t> ports_;
  std::vector<net::ChaosProxy*> crashes_;
  // (wall seconds after the first query, proxy), by heal time.
  std::vector<std::pair<double, net::ChaosProxy*>> partitions_;
  std::thread healer_;
};

net::SocketTransportOptions SocketOptions(uint64_t episode_seed) {
  net::SocketTransportOptions options;
  options.channel.heartbeat_interval_s = 0.04;
  options.channel.heartbeat_miss_threshold = 3;
  options.channel.handshake_timeout_s = 0.25;
  options.channel.reconnect.max_attempts = 8;
  options.channel.reconnect.initial_backoff_s = 0.02;
  options.channel.reconnect.backoff_factor = 2.0;
  options.channel.reconnect.max_backoff_s = 0.25;
  options.channel.reconnect_jitter = 0.2;
  options.channel.reconnect_jitter_seed = episode_seed ^ 0x7E57C0DEull;
  options.stage_timeout_s = 3.0;
  return options;
}

// The fleet an episode runs on and its transport. The simulator realises
// the scripted schedule through its FaultSchedule; sockets through
// SocketFleet, which is declared first so it outlives the transport.
struct EpisodeFleet {
  std::unique_ptr<SocketFleet> sockets;
  std::unique_ptr<net::Transport> transport;
};

// Everything transport-specific about an episode: its fleet, how that fleet
// realises the scripted faults, and the driver's deadline and retry timing
// (virtual seconds on the simulator, loopback wall seconds on sockets).
Status BuildFleet(ChaosTransport kind, const ChaosMix& mix,
                  const ChaosEpisode& episode, ChaosScenario* scenario,
                  EpisodeFleet* fleet) {
  if (kind == ChaosTransport::kSim) {
    fleet->transport = std::make_unique<net::SimTransport>(
        scenario->problem.fleet.devices(), scenario->options);
    return Status::Ok();
  }
  fleet->sockets = std::make_unique<SocketFleet>();
  Status up = fleet->sockets->Start(mix, episode, *scenario);
  if (!up.ok()) return up;
  fleet->transport = std::make_unique<net::SocketTransport>(
      fleet->sockets->ports(), SocketOptions(episode.seed));
  net::NetCoordinatorOptions& driver = scenario->driver;
  driver.rpc_deadline_s = 0.35;
  driver.retry.initial_backoff_s = 0.04;
  driver.retry.max_backoff_s = 0.3;
  driver.max_query_wall_s = 20.0;
  return Status::Ok();
}

// Invariants 5 + 6 (byzantine mixes only): single-round masking and liar
// quarantine. Gated on always-lying liars (probability 1) on an episode
// whose schedule is PURE corruption — any other fault kind legitimately
// forces recovery rounds. Minimal-magnitude (relative) lies may slip the
// digest (caught by the locator's value check instead), so the
// flag-dependent halves are skipped for them. `final_gen_ran_queries` is
// false only on crash episodes whose final incarnation answered every query
// from the journal: its per-generation masked-query counter is then
// legitimately zero.
void CheckByzantineInvariants(const ChaosMix& mix,
                              const ReputationTracker& reputation,
                              bool final_gen_ran_queries,
                              ChaosEpisode* episode) {
  size_t liars = 0;
  bool pure_corruption = true;
  for (const ChaosScheduledFault& fault : episode->schedule) {
    if (fault.kind == FaultKind::kCorruption) {
      ++liars;
    } else {
      pure_corruption = false;
    }
  }
  const bool always_lying = mix.corruption_probability >= 1.0;
  const bool digest_visible = !mix.corruption_relative;
  if (pure_corruption && always_lying && episode->byzantine_effective >= 1) {
    if (episode->stats.recovery_rounds != 0) {
      Fail(&ChaosInvariants::masking,
           "masking: " + std::to_string(episode->stats.recovery_rounds) +
               " recovery rounds despite guards covering the liars",
           episode);
    }
    if (digest_visible && liars > 0 && final_gen_ran_queries &&
        episode->stats.byzantine_masked_queries == 0) {
      Fail(&ChaosInvariants::masking,
           "masking: no query was counted masked despite " +
               std::to_string(liars) + " scripted liars",
           episode);
    }
    if (digest_visible) {
      for (const ChaosScheduledFault& fault : episode->schedule) {
        if (reputation.standing(fault.device) !=
            DeviceStanding::kQuarantined) {
          Fail(&ChaosInvariants::quarantine,
               "quarantine: scripted liar " + std::to_string(fault.device) +
                   " was never quarantined",
               episode);
          break;
        }
      }
    }
  }
}

// Maps a failed query onto the episode outcome. kInfeasible (fleet below
// k = 2) and kInternal (recovery budget spent) are explicit, legitimate
// outcomes; invariant 4 flags any other status as an unexpected
// termination mode.
void RecordFailedQuery(const Status& status, ChaosEpisode* episode) {
  if (status.code() == ErrorCode::kInfeasible) {
    episode->outcome = "infeasible";
  } else if (status.code() == ErrorCode::kInternal) {
    episode->outcome = "internal";
  } else {
    episode->outcome = status.ToString();
    Fail(&ChaosInvariants::liveness, "liveness: " + episode->outcome,
         episode);
  }
}

// Invariant 1 on query `q`'s answer, tampered first under kTamperResult.
void CheckDecode(size_t q, std::vector<double> decoded,
                 const std::vector<double>& expected, ChaosSabotage sabotage,
                 ChaosEpisode* episode) {
  if (sabotage == ChaosSabotage::kTamperResult && !decoded.empty()) {
    decoded[0] += 1.0;
  }
  const double err = MaxAbsDiff(std::span<const double>(decoded),
                                std::span<const double>(expected));
  if (!(err < 1e-9)) {
    Fail(&ChaosInvariants::decode,
         "decode: query " + std::to_string(q) + " off by " + Num(err),
         episode);
  }
}

// Invariant 2: cumulative Def. 2 ITS across every encoding round (base +
// recoveries + hedges + restored incarnations), checked outside the
// driver's own asserts.
void CheckSecurity(const net::NetCoordinator& driver, ChaosEpisode* episode) {
  if (driver.VerifyCumulativeSecurity().all_secure) return;
  if (episode->crash_fired) episode->invariants.restart_security = false;
  Fail(&ChaosInvariants::security,
       std::string("security: cumulative view rank dropped") +
           (episode->crash_fired ? " across the restart" : ""),
       episode);
}

// Drains the final incarnation's transport, sweeps the completions that
// arrive after the driver stopped polling, copies both ledgers into the
// episode (forging one for kForgeLedger) and checks invariant 3 — whenever
// that incarnation decoded a query itself — plus, on byzantine mixes,
// invariants 5 and 6.
void CheckFinalIncarnation(const ChaosMix& mix,
                           const net::NetCoordinator& driver,
                           net::Transport& transport, ChaosSabotage sabotage,
                           bool ran_queries, ChaosEpisode* episode) {
  (void)transport.Drain(1.0);
  uint64_t swept = 0;
  uint64_t swept_value_bytes = 0;
  std::vector<net::Completion> sweep;
  for (int empty_polls = 0; empty_polls < 2;) {
    sweep.clear();
    if (transport.PollInto(&sweep, 0.05) == 0) {
      ++empty_polls;
      continue;
    }
    empty_polls = 0;
    for (const net::Completion& completion : sweep) {
      if (completion.kind != net::Completion::Kind::kResponse) continue;
      ++swept;
      swept_value_bytes += 8 * completion.values.size();
    }
  }
  episode->stats = driver.stats();
  episode->transport = transport.stats();
  if (sabotage == ChaosSabotage::kForgeLedger) {
    ++episode->transport.responses_delivered;
  }
  if (mix.byzantine_tolerance > 0 && episode->outcome == "decoded") {
    CheckByzantineInvariants(mix, driver.reputation(), ran_queries, episode);
  }
  if (!ran_queries) return;
  const std::string ledger =
      net::ReconcileLedgers(episode->stats, episode->transport, episode->l,
                            swept, swept_value_bytes);
  if (!ledger.empty()) {
    Fail(&ChaosInvariants::ledger, "ledger: " + ledger, episode);
  }
}

// Invariant 3 on sockets: the transport bills a device only for answers
// that device's daemon computed, so no op count of its ledger exceeds what
// the in-process daemon counted.
void CheckDaemonOps(const SocketFleet& sockets, ChaosEpisode* episode) {
  const std::vector<net::DeviceOps>& billed = episode->transport.device_ops;
  for (size_t d = 0; d < billed.size(); ++d) {
    const net::DeviceOps computed = sockets.daemon_ops(d);
    const std::tuple<const char*, uint64_t, uint64_t> counts[] = {
        {"staged values", billed[d].staged_values, computed.staged_values},
        {"mults", billed[d].mults, computed.mults},
        {"adds", billed[d].adds, computed.adds},
        {"values returned", billed[d].values_returned,
         computed.values_returned},
    };
    for (const auto& [what, transport, daemon] : counts) {
      if (transport > daemon) {
        Fail(&ChaosInvariants::ledger,
             "ledger: device " + std::to_string(d) + " " + what +
                 ": transport counted " + std::to_string(transport) +
                 ", daemon computed " + std::to_string(daemon),
             episode);
        return;
      }
    }
  }
}

// Crash spec of a crash-injected episode, drawn AFTER the scenario so the
// scenario itself stays bit-identical to the plain episode. Dispatch- and
// response-pinned crashes strike within the first few shares; query-pinned
// points pick a uniformly random query of the episode.
recovery::CrashSpec DrawCrashSpec(Xoshiro256StarStar& rng,
                                  size_t queries_per_episode) {
  using recovery::CrashPoint;
  static constexpr CrashPoint kPoints[] = {
      CrashPoint::kAfterStage,         CrashPoint::kOnQueryBegin,
      CrashPoint::kOnDispatch,         CrashPoint::kOnDispatch,
      CrashPoint::kOnResponse,         CrashPoint::kOnResponse,
      CrashPoint::kOnSegmentAdded,     CrashPoint::kOnEvict,
      CrashPoint::kBeforeResultCommit, CrashPoint::kAfterResultCommit,
  };
  recovery::CrashSpec spec;
  spec.point = kPoints[rng.NextBelow(sizeof(kPoints) / sizeof(kPoints[0]))];
  const uint64_t queries =
      queries_per_episode > 0 ? queries_per_episode : uint64_t{1};
  switch (spec.point) {
    case CrashPoint::kOnDispatch:
    case CrashPoint::kOnResponse:
      spec.occurrence = 1 + rng.NextBelow(3);
      break;
    case CrashPoint::kOnQueryBegin:
    case CrashPoint::kBeforeResultCommit:
    case CrashPoint::kAfterResultCommit:
      spec.occurrence = 1 + rng.NextBelow(queries);
      break;
    default:
      spec.occurrence = 1;
      break;
  }
  spec.lose_tail = rng.NextDouble() < 0.4;
  return spec;
}

// Runs config.episodes episodes through `run` and tallies the outcomes.
ChaosSoakSummary RunSoak(const ChaosConfig& config,
                         ChaosEpisode (*run)(const ChaosConfig&, size_t,
                                             ChaosSabotage)) {
  ChaosSoakSummary summary;
  TallySoak(
      config.episodes,
      [&](size_t i) { return run(config, i, ChaosSabotage::kNone); },
      &summary);
  for (const ChaosEpisode& episode : summary.detail) {
    if (episode.outcome == "decoded") {
      ++summary.decoded;
    } else if (episode.outcome == "infeasible") {
      ++summary.infeasible;
    } else if (episode.outcome == "internal") {
      ++summary.internal;
    }
  }
  return summary;
}

// Identity of episode `index`: its derived seed and its mix.
ChaosEpisode NewEpisode(const ChaosConfig& config, size_t index,
                        ChaosMix* mix) {
  const std::vector<ChaosMix> mixes =
      config.mixes.empty() ? DefaultChaosMixes() : config.mixes;
  *mix = mixes[index % mixes.size()];
  ChaosEpisode episode;
  episode.index = index;
  episode.seed = EpisodeSeed(config.seed, index);
  episode.mix = mix->name;
  episode.transport_kind = config.transport;
  return episode;
}

}  // namespace

std::vector<ChaosMix> DefaultChaosMixes() {
  return {
      {.name = "crash", .crash = 0.5},
      {.name = "omission", .omission = 0.5},
      {.name = "corruption", .corruption = 0.5},
      {.name = "transient", .transient = 0.6},
      {.name = "lossy", .crash = 0.25, .transient = 0.3, .lossy_links = 1.0},
      {.name = "stragglers", .straggler = 1.0},
      // Shares of about 10^6 times the work, so compute (up to hundreds of
      // simulated ms) outweighs link latency, and a tail rate of 0.125-1:
      // an RPC outlasts the cold-start hedge delay (twice the modelled
      // round trip) with probability about e^-rate, 0.37-0.88. Over
      // sockets a straggling link holds a frame 1 s / rate, 0.25-2 s: past
      // the cold-start hedge delay, half the 0.35 s deadline floor.
      {.name = "hedged-stragglers",
       .straggler = 1.0,
       .compute_slowdown = 1e6,
       .straggler_rate_scale = 0.25,
       .socket_straggler_delay_s = 1.0,
       .hedging = true,
       .adaptive_timeouts = true},
      {.name = "kitchen-sink",
       .crash = 0.2,
       .omission = 0.2,
       .corruption = 0.2,
       .transient = 0.2,
       .straggler = 0.5,
       .lossy_links = 0.3,
       .hedging = true,
       .adaptive_timeouts = true},
      // Byzantine mixes: guard segments + locator decode + reputation.
      {.name = "byzantine-masked",
       .corruption = 0.9,
       .byzantine_tolerance = 2},
      {.name = "byzantine-intermittent",
       .corruption = 0.8,
       .byzantine_tolerance = 2,
       .corruption_probability = 0.5},
      {.name = "byzantine-minimal",
       .corruption = 0.9,
       .byzantine_tolerance = 2,
       .corruption_relative = true},
      {.name = "byzantine-equivocate",
       .corruption = 0.9,
       .byzantine_tolerance = 2,
       .corruption_equivocate = true},
      {.name = "byzantine-coordinated",
       .corruption = 1.0,
       .byzantine_tolerance = 2,
       .coordinated = true},
  };
}

ChaosEpisode RunChaosEpisode(const ChaosConfig& config, size_t index,
                             ChaosSabotage sabotage) {
  const Stopwatch wall;
  ChaosMix mix;
  ChaosEpisode episode = NewEpisode(config, index, &mix);
  Xoshiro256StarStar rng(episode.seed);
  ChaosScenario scenario;
  if (!DeriveScenario(mix, rng, &episode, &scenario)) {
    return episode;
  }

  EpisodeFleet fleet;
  const Status built =
      BuildFleet(config.transport, mix, episode, &scenario, &fleet);
  if (!built.ok()) {
    FailEarly(&ChaosInvariants::liveness, "liveness: fleet", built, &episode);
    return episode;
  }
  net::NetCoordinator driver(*scenario.session, scenario.a,
                             scenario.problem.fleet, scenario.driver);
  const Status setup = driver.Setup(fleet.transport.get());
  if (!setup.ok()) {
    FailEarly(&ChaosInvariants::liveness, "liveness: setup", setup, &episode);
    return episode;
  }
  episode.byzantine_effective = driver.byzantine_tolerance_effective();
  if (fleet.sockets) fleet.sockets->StartSchedule();

  episode.outcome = "decoded";
  for (size_t q = 0; q < config.queries_per_episode; ++q) {
    auto result = driver.Query(scenario.x);
    if (!result.ok()) {
      RecordFailedQuery(result.status(), &episode);
      break;
    }
    CheckDecode(q, std::move(result).value(), scenario.expected, sabotage,
                &episode);
  }
  if (fleet.sockets) fleet.sockets->FinishSchedule();

  CheckSecurity(driver, &episode);
  CheckFinalIncarnation(mix, driver, *fleet.transport, sabotage,
                        /*ran_queries=*/true, &episode);
  if (fleet.sockets) {
    episode.proxies = fleet.sockets->stats();
    CheckDaemonOps(*fleet.sockets, &episode);
  }
  episode.wall_s = wall.ElapsedSeconds();
  if (episode.wall_s > kEpisodeWallCapS) {
    Fail(&ChaosInvariants::liveness,
         "liveness: episode took " + Num(episode.wall_s) + " s, cap " +
             Num(kEpisodeWallCapS) + " s",
         &episode);
  }
  return episode;
}

ChaosSoakSummary RunChaosSoak(const ChaosConfig& config) {
  return RunSoak(config, RunChaosEpisode);
}

ChaosEpisode RunCrashEpisode(const ChaosConfig& config, size_t index,
                             ChaosSabotage sabotage) {
  SCEC_CHECK(config.transport == ChaosTransport::kSim)
      << "crash episodes run on the simulator only";
  ChaosMix mix;
  ChaosEpisode episode = NewEpisode(config, index, &mix);
  Xoshiro256StarStar rng(episode.seed);
  ChaosScenario scenario;
  if (!DeriveScenario(mix, rng, &episode, &scenario)) {
    return episode;
  }
  // Drawn AFTER the scenario: the rng prefix above matches the plain
  // episode of the same (seed, index) draw for draw.
  episode.crash = DrawCrashSpec(rng, config.queries_per_episode);

  // One injector shared by every incarnation: it fires at most once per
  // episode, so the restarted coordinator survives re-reaching the point.
  recovery::CrashInjector injector(episode.crash);
  recovery::DurableCoordinatorOptions copts;
  copts.sealing_key = SplitMix64(episode.seed ^ 0x5EA1EDull).Next();
  copts.seal_salt = episode.seed ^ 0x5A17ull;
  copts.sim = scenario.options;
  copts.driver = scenario.driver;
  copts.crash_probe = [&injector](const recovery::JournalEvent& event) {
    return injector.Decide(event);
  };

  std::string snapshot;
  std::ostringstream journal_gen0;  // gen-0 durable bytes: survive the kill
  std::ostringstream journal_gen1;  // the restarted incarnation appends here

  const size_t total_queries = config.queries_per_episode;
  std::vector<std::optional<std::vector<double>>> answered(total_queries);
  size_t final_gen_queries = 0;  // queries the FINAL incarnation actually ran
  std::unique_ptr<recovery::DurableCoordinator> coordinator;
  episode.outcome = "decoded";

  // Maps one query result onto the episode outcome, mirroring the plain
  // episode's status handling. Returns false on a terminal status.
  auto record = [&](size_t q, Result<std::vector<double>> result) -> bool {
    if (!result.ok()) {
      RecordFailedQuery(result.status(), &episode);
      return false;
    }
    ++final_gen_queries;
    if (q < total_queries) answered[q] = std::move(result).value();
    return true;
  };
  auto run_queries = [&](size_t first) {
    for (size_t q = first; q < total_queries; ++q) {
      if (!record(q, coordinator->Query(scenario.x))) break;
    }
  };

  try {
    auto started = recovery::DurableCoordinator::Start(
        scenario.session->deployment(), &scenario.a,
        scenario.problem.fleet.devices(), &snapshot, &journal_gen0, copts);
    if (!started.ok()) {
      FailEarly(&ChaosInvariants::liveness, "liveness: start",
                started.status(), &episode);
      return episode;
    }
    coordinator = std::move(started).value();
    run_queries(0);
  } catch (const recovery::CoordinatorCrash&) {
    // The kill. Everything the dead incarnation buffered is gone; only
    // `snapshot` and the bytes already committed to journal_gen0 survive.
  }
  episode.crash_fired = injector.fired();

  if (episode.crash_fired) {
    episode.generations = 2;
    // Destroy the dead coordinator BEFORE restarting, as a kill would:
    // nothing of the dead incarnation may run on.
    coordinator.reset();
    episode.outcome = "decoded";
    final_gen_queries = 0;
    auto restarted = recovery::DurableCoordinator::Restart(
        snapshot, journal_gen0.str(), &scenario.a,
        scenario.problem.fleet.devices(), &journal_gen1, copts);
    if (!restarted.ok()) {
      FailEarly(&ChaosInvariants::restart_decode, "restart_decode: restart",
                restarted.status(), &episode);
      return episode;
    }
    coordinator = std::move(restarted).value();

    // Adopt every journaled result: the journal owns those answers now, and
    // the restarted coordinator must never re-run them. Where a result was
    // also seen live (answered before the crash), the two must agree.
    for (const auto& [id, values] : coordinator->replay().completed) {
      if (id >= total_queries) continue;
      if (answered[id].has_value() && *answered[id] != values) {
        Fail(&ChaosInvariants::restart_decode,
             "restart_decode: journal result for query " +
                 std::to_string(id) + " disagrees with the live answer",
             &episode);
      }
      answered[id] = values;
    }
    const size_t next = coordinator->replay().next_query_id;
    if (coordinator->has_in_flight()) {
      const uint64_t in_id = coordinator->replay().in_flight_id;
      record(in_id, coordinator->ResumeInFlight());
    }
    if (episode.outcome == "decoded") run_queries(next);
  }

  // Invariant 1 (+ restart_decode): every answered query equals A·x.
  for (size_t q = 0; q < total_queries; ++q) {
    if (!answered[q].has_value()) continue;
    CheckDecode(q, *answered[q], scenario.expected,
                q == 0 ? sabotage : ChaosSabotage::kNone, &episode);
  }
  if (episode.outcome == "decoded") {
    size_t answered_count = 0;
    for (const auto& ans : answered) answered_count += ans.has_value() ? 1 : 0;
    if (answered_count != total_queries) {
      Fail(&ChaosInvariants::restart_decode,
           "restart_decode: only " + std::to_string(answered_count) +
               " of " + std::to_string(total_queries) +
               " queries were answered across the restart",
           &episode);
    }
  }

  // Invariant 2 (+ restart_security): the final incarnation's cumulative
  // Def. 2 view spans its own segments AND every restored prior-generation
  // pad column — a replayed pad stream drops the extended rank here.
  CheckSecurity(coordinator->driver(), &episode);
  CheckFinalIncarnation(mix, coordinator->driver(), coordinator->transport(),
                        sabotage, final_gen_queries > 0, &episode);

  // restart_ledger: the combined journal (gen-0 durable bytes + gen-1
  // appends) must parse as one untorn stream and balance double-entry
  // against the final incarnation's ledger.
  const std::string combined = journal_gen0.str() + journal_gen1.str();
  episode.journal_bytes = combined.size();
  episode.snapshot_bytes = snapshot.size();
  auto parsed = recovery::LoadJournal(combined);
  std::string audit;
  if (!parsed.ok()) {
    audit = "combined journal unreadable: " + parsed.status().ToString();
  } else if (parsed->torn_tail) {
    audit = "combined journal has a torn tail (committed bytes must always "
            "parse whole)";
  } else {
    audit = CheckCrashLedger(episode, parsed->events);
  }
  if (parsed.ok()) episode.journal_events = parsed->events.size();
  if (!audit.empty()) {
    Fail(&ChaosInvariants::restart_ledger, "restart_ledger: " + audit,
         &episode);
  }

  if (!config.crash_artifacts_dir.empty()) {
    const std::string base =
        config.crash_artifacts_dir + "/ep" + std::to_string(index);
    std::ofstream snap_os(base + "_snapshot.bin",
                          std::ios::binary | std::ios::trunc);
    snap_os.write(snapshot.data(),
                  static_cast<std::streamsize>(snapshot.size()));
    if (snap_os.good()) episode.snapshot_path = base + "_snapshot.bin";
    std::ofstream journal_os(base + "_journal.bin",
                             std::ios::binary | std::ios::trunc);
    journal_os.write(combined.data(),
                     static_cast<std::streamsize>(combined.size()));
    if (journal_os.good()) episode.journal_path = base + "_journal.bin";
  }
  return episode;
}

ChaosSoakSummary RunCrashSoak(const ChaosConfig& config) {
  return RunSoak(config, RunCrashEpisode);
}

std::string CheckCrashLedger(const ChaosEpisode& episode,
                             const std::vector<recovery::JournalEvent>& events) {
  using recovery::JournalEvent;
  using recovery::JournalEventKind;
  const net::NetCoordinatorStats& ds = episode.stats;
  const uint32_t final_gen = static_cast<uint32_t>(ds.generation);
  const uint64_t x_bytes = 8 * episode.l;

  uint64_t dispatches = 0;      // final generation, canaries included
  uint64_t dispatch_bytes = 0;  // final generation
  uint64_t responses = 0;       // final generation accepted responses
  uint64_t response_values = 0;
  std::map<uint64_t, size_t> results_per_query;  // across ALL generations
  // Exactly-once audit state: per query, which base-segment shares had an
  // accepted (and billed) response journaled so far; frozen into `paid` at
  // the query's resumption marker. A post-resumption re-dispatch of a paid
  // share is a double-spend.
  std::map<uint64_t, uint32_t> begun_gen;
  std::map<uint64_t, std::set<uint64_t>> responded;
  std::map<uint64_t, std::set<uint64_t>> paid;
  uint64_t paid_total = 0;

  for (const JournalEvent& ev : events) {
    switch (ev.kind) {
      case JournalEventKind::kQueryBegin: {
        auto [it, inserted] = begun_gen.emplace(ev.query_id, ev.generation);
        if (!inserted && ev.generation != it->second) {
          // Resumption marker: the restarted generation re-admitted an
          // in-flight query. Freeze what was already paid for.
          paid[ev.query_id] = responded[ev.query_id];
          paid_total += paid[ev.query_id].size();
        }
        break;
      }
      case JournalEventKind::kResponse:
        if (ev.segment == 0) responded[ev.query_id].insert(ev.local);
        if (ev.generation == final_gen) {
          ++responses;
          response_values += ev.values.size();
        }
        break;
      case JournalEventKind::kDispatch: {
        if (ev.generation == final_gen) {
          ++dispatches;
          dispatch_bytes += ev.bytes;
          if (ev.bytes != x_bytes) {
            return "journaled dispatch carries " + std::to_string(ev.bytes) +
                   " bytes, expected l x value_bytes = " +
                   std::to_string(x_bytes);
          }
        }
        if (ev.attempt >= 1 && ev.segment == 0) {
          auto it = paid.find(ev.query_id);
          if (it != paid.end() && it->second.count(ev.local) > 0) {
            return "double-spend: share " + std::to_string(ev.local) +
                   " of query " + std::to_string(ev.query_id) +
                   " was re-dispatched after its paid response was resumed";
          }
        }
        break;
      }
      case JournalEventKind::kQueryResult:
        if (++results_per_query[ev.query_id] > 1) {
          return "query " + std::to_string(ev.query_id) +
                 " has more than one journaled result (exactly-once broken)";
        }
        break;
      default:
        break;
    }
  }

  // Write-ahead discipline, final generation: every billed dispatch has a
  // durable record, byte for byte. (Equality, not <=: the driver commits
  // each round's batch before the round settles.)
  if (dispatches != ds.dispatches) {
    return "final generation journaled " + std::to_string(dispatches) +
           " dispatches but billed " + std::to_string(ds.dispatches);
  }
  if (static_cast<double>(dispatch_bytes) != ds.query_value_bytes) {
    return "final generation journaled " + std::to_string(dispatch_bytes) +
           " uplink bytes but billed " + Num(ds.query_value_bytes);
  }
  // Durable before usable: every response that entered a decode has its
  // record (canary answers and rejected arrivals are never used).
  if (responses != ds.responses_used) {
    return "final generation journaled " + std::to_string(responses) +
           " accepted responses but used " +
           std::to_string(ds.responses_used);
  }
  if (static_cast<double>(8 * response_values) != ds.response_value_bytes) {
    return "final generation journaled " + std::to_string(response_values) +
           " response values but used " + Num(ds.response_value_bytes) +
           " bytes";
  }
  // A resumed query may inject at most what the journal paid for.
  if (ds.resumed_responses > paid_total) {
    return "final generation resumed " +
           std::to_string(ds.resumed_responses) +
           " responses but the journal only paid for " +
           std::to_string(paid_total);
  }
  return "";
}

std::string DescribeSchedule(const ChaosEpisode& episode) {
  std::ostringstream os;
  os << "episode " << episode.index << " seed=" << episode.seed << " mix="
     << episode.mix << " m=" << episode.m << " l=" << episode.l
     << " fleet=" << episode.fleet
     << " stragglers=" << (episode.stragglers ? 1 : 0)
     << " lossy=" << (episode.lossy ? 1 : 0)
     << " hedging=" << (episode.hedging ? 1 : 0)
     << " adaptive=" << (episode.adaptive ? 1 : 0);
  if (episode.byzantine_tolerance > 0) {
    os << " byz_t=" << episode.byzantine_tolerance
       << " byz_eff=" << episode.byzantine_effective;
  }
  os << "\n";
  for (const ChaosScheduledFault& fault : episode.schedule) {
    os << "  dev " << fault.device << " " << FaultKindName(fault.kind)
       << " @" << Num(fault.start_s);
    if (fault.kind == FaultKind::kTransient) {
      os << " until " << Num(fault.end_s);
    }
    if (fault.kind == FaultKind::kCorruption) {
      os << " delta " << Num(fault.delta);
      if (fault.probability < 1.0) os << " p=" << Num(fault.probability);
      if (fault.relative) os << " relative";
      if (fault.equivocate) os << " equivocate";
    }
    os << "\n";
  }
  if (episode.schedule.empty()) os << "  (no scripted faults)\n";
  if (episode.transport_kind == ChaosTransport::kSocket) {
    const net::ChaosProxyStats& p = episode.proxies;
    os << "  socket: dropped=" << p.frames_dropped
       << " delayed=" << p.frames_delayed
       << " reordered=" << p.frames_reordered
       << " partition_discards=" << p.partition_discards
       << " kills=" << p.kills
       << " wall=" << FormatDouble(episode.wall_s, 2) << "s\n";
  }
  if (episode.crash.point != recovery::CrashPoint::kNone) {
    os << "  crash " << recovery::CrashPointName(episode.crash.point)
       << " occurrence=" << episode.crash.occurrence
       << (episode.crash.lose_tail ? " lose_tail" : "")
       << (episode.crash_fired ? " fired" : " not-reached")
       << " generations=" << episode.generations << "\n";
    if (!episode.snapshot_path.empty()) {
      os << "  snapshot " << episode.snapshot_path << " ("
         << episode.snapshot_bytes << " sealed bytes)\n";
    }
    if (!episode.journal_path.empty()) {
      os << "  journal " << episode.journal_path << " ("
         << episode.journal_bytes << " bytes, " << episode.journal_events
         << " events)\n";
    }
  }
  return os.str();
}

std::string ReproCommand(const ChaosConfig& config,
                         const ChaosEpisode& episode) {
  if (episode.crash.point != recovery::CrashPoint::kNone) {
    std::string cmd = "bench/chaos_soak --seed=" +
                      std::to_string(config.seed) +
                      " --crash-replay=" + std::to_string(episode.index);
    if (!config.crash_artifacts_dir.empty()) {
      cmd += " --crash-artifacts-dir=" + config.crash_artifacts_dir;
    }
    return cmd;
  }
  std::string cmd = "bench/chaos_soak --seed=" + std::to_string(config.seed) +
                    " --replay=" + std::to_string(episode.index);
  if (config.queries_per_episode != ChaosConfig{}.queries_per_episode) {
    cmd += " --queries=" + std::to_string(config.queries_per_episode);
  }
  if (config.transport == ChaosTransport::kSocket) {
    cmd += " --transport=socket";
  }
  return cmd;
}

}  // namespace scec::sim
