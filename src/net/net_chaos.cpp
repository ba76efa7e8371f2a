// SPDX-License-Identifier: MIT

#include "net/net_chaos.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "linalg/matrix_ops.h"
#include "net/chaos_proxy.h"
#include "net/scecd.h"
#include "net/socket_transport.h"

namespace scec::net {
namespace {

uint64_t EpisodeSeed(uint64_t seed, size_t index) {
  SplitMix64 mix(seed);
  uint64_t derived = mix.Next();
  for (size_t i = 0; i <= index; ++i) derived = SplitMix64(derived).Next();
  return derived;
}

NetChaosSchedule DeriveSchedule(const NetChaosConfig& config,
                                Xoshiro256StarStar& rng) {
  NetChaosSchedule schedule;
  const size_t k = config.num_devices;
  schedule.drop_prob = rng.NextDouble() * config.max_drop_prob;
  schedule.delay_prob = 0.10 + 0.10 * rng.NextDouble();
  schedule.delay_s = 0.005 + 0.02 * rng.NextDouble();
  schedule.reorder_prob = 0.05 + 0.10 * rng.NextDouble();
  if (config.enable_byzantine && rng.Next() % 2 == 0) {
    schedule.byzantine_device = rng.Next() % k;
  }
  if (config.enable_silent && rng.Next() % 2 == 0) {
    schedule.silent_device = rng.Next() % k;
    if (schedule.silent_device == schedule.byzantine_device) {
      schedule.silent_device = (schedule.silent_device + 1) % k;
    }
  }
  if (config.enable_partition && rng.Next() % 2 == 0) {
    schedule.partition_device = rng.Next() % k;
    if (schedule.partition_device == schedule.byzantine_device ||
        schedule.partition_device == schedule.silent_device) {
      schedule.partition_device = (schedule.partition_device + 2) % k;
    }
    schedule.partition_query = config.queries / 2;
    schedule.partition_heal_s = 0.4 + 0.4 * rng.NextDouble();
  }
  if (config.enable_kill && rng.Next() % 2 == 0) {
    schedule.kill_device = rng.Next() % k;
    schedule.kill_after_frames = 30 + rng.Next() % 120;
  }
  return schedule;
}

NetCoordinatorOptions ChaosDriverOptions(uint64_t episode_seed) {
  NetCoordinatorOptions options;
  options.rpc_deadline_s = 0.35;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 0.04;
  options.retry.backoff_factor = 2.0;
  options.retry.max_backoff_s = 0.3;
  options.backoff_jitter = 0.2;
  options.jitter_seed = episode_seed ^ 0xA5A5A5A5ULL;
  options.hedging = true;  // exercise pair hedging under loss
  options.pad_seed = episode_seed;
  options.digest_seed = episode_seed ^ 0x5F5F5F5FULL;
  options.reputation.enabled = true;
  options.max_recovery_rounds = 5;
  options.max_query_wall_s = 20.0;
  return options;
}

SocketTransportOptions ChaosTransportOptions(uint64_t episode_seed) {
  SocketTransportOptions options;
  options.channel.heartbeat_interval_s = 0.04;
  options.channel.heartbeat_miss_threshold = 3;
  options.channel.handshake_timeout_s = 0.25;
  options.channel.reconnect.max_attempts = 8;
  options.channel.reconnect.initial_backoff_s = 0.02;
  options.channel.reconnect.backoff_factor = 2.0;
  options.channel.reconnect.max_backoff_s = 0.25;
  options.channel.reconnect_jitter = 0.2;
  options.channel.reconnect_jitter_seed = episode_seed ^ 0x7E57C0DEULL;
  options.stage_timeout_s = 3.0;
  return options;
}

}  // namespace

NetChaosEpisode RunNetChaosEpisode(const NetChaosConfig& config,
                                   size_t index) {
  NetChaosEpisode episode;
  episode.seed = config.seed;
  episode.index = index;
  const Stopwatch wall;
  const uint64_t derived = EpisodeSeed(config.seed, index);
  Xoshiro256StarStar rng(derived);
  episode.schedule = DeriveSchedule(config, rng);
  const NetChaosSchedule& sched = episode.schedule;

  auto fail = [&](bool NetChaosInvariants::* member, std::string detail) {
    episode.invariants.*member = false;
    if (episode.failure.empty()) episode.failure = std::move(detail);
  };

  // Problem instance: fleet costs and data drawn from the episode stream.
  const size_t k = config.num_devices;
  DeviceFleet fleet;
  for (size_t d = 0; d < k; ++d) {
    EdgeDevice device;
    device.name = "scecd-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.5 * rng.NextDouble();
    // The masking family's fleet gets steeply rising prices, so the plan
    // leaves spare devices to guard with.
    if (config.byzantine_tolerance > 0) {
      device.costs.comm = std::ldexp(device.costs.comm, static_cast<int>(d));
    }
    fleet.Add(device);
  }
  Matrix<double> a(config.m, config.l);
  for (double& value : a.Data()) value = 2.0 * rng.NextDouble() - 1.0;

  // The masking family plans up front so its liar is a participant; every
  // fault that forces a recovery round stays out.
  std::optional<DeploymentSession<double>> session;
  if (config.byzantine_tolerance > 0) {
    McscecProblem problem;
    problem.m = config.m;
    problem.l = config.l;
    problem.fleet = fleet;
    ChaCha20Rng coding_rng(derived ^ 0xC0DEull);
    auto opened = DeploymentSession<double>::Open(problem, a, coding_rng);
    if (!opened.ok()) {
      fail(&NetChaosInvariants::liveness,
           "deployment failed: " + opened.status().message());
      return episode;
    }
    session.emplace(std::move(opened).value());
    const std::vector<size_t>& participating = session->plan().participating;
    episode.schedule.drop_prob = 0.0;
    episode.schedule.silent_device = SIZE_MAX;
    episode.schedule.partition_device = SIZE_MAX;
    episode.schedule.kill_device = SIZE_MAX;
    episode.schedule.byzantine_device =
        participating[rng.Next() % participating.size()];
  }

  // Live cluster: daemon ← proxy per device, then the socket transport.
  std::vector<std::unique_ptr<ScecDaemon>> daemons;
  std::vector<std::unique_ptr<ChaosProxy>> proxies;
  std::vector<uint16_t> ports;
  for (size_t d = 0; d < k; ++d) {
    auto daemon = std::make_unique<ScecDaemon>(ScecdOptions{d, 0});
    Status up = daemon->Start();
    if (!up.ok()) {
      fail(&NetChaosInvariants::liveness,
           "daemon " + std::to_string(d) + " failed to start: " +
               up.message());
      episode.wall_s = wall.ElapsedSeconds();
      return episode;
    }
    if (d == sched.byzantine_device) {
      daemon->SetBehavior(ScecDaemon::Behavior::kCorrupt);
    } else if (d == sched.silent_device) {
      daemon->SetBehavior(ScecDaemon::Behavior::kSilent);
    }
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = daemon->port();
    proxy_options.seed = derived ^ (0x9E3779B97F4A7C15ULL * (d + 1));
    proxy_options.drop_prob = sched.drop_prob;
    proxy_options.delay_prob = sched.delay_prob;
    proxy_options.delay_s = sched.delay_s;
    proxy_options.reorder_prob = sched.reorder_prob;
    if (d == sched.kill_device) {
      proxy_options.kill_after_frames = sched.kill_after_frames;
    }
    auto proxy = std::make_unique<ChaosProxy>(proxy_options);
    Status proxied = proxy->Start();
    if (!proxied.ok()) {
      fail(&NetChaosInvariants::liveness,
           "proxy " + std::to_string(d) + " failed to start: " +
               proxied.message());
      episode.wall_s = wall.ElapsedSeconds();
      return episode;
    }
    ports.push_back(proxy->port());
    daemons.push_back(std::move(daemon));
    proxies.push_back(std::move(proxy));
  }

  {
    auto transport = std::make_unique<SocketTransport>(
        ports, ChaosTransportOptions(derived));
    NetCoordinatorOptions options = ChaosDriverOptions(derived);
    options.byzantine_tolerance = config.byzantine_tolerance;
    NetCoordinator coordinator =
        session.has_value() ? NetCoordinator(*session, a, fleet, options)
                            : NetCoordinator(a, fleet, options);
    Status setup = coordinator.Setup(transport.get());
    episode.byzantine_effective = coordinator.byzantine_tolerance_effective();
    if (!setup.ok()) {
      fail(&NetChaosInvariants::liveness,
           "setup failed: " + setup.message());
    }

    std::thread healer;
    for (size_t q = 0; setup.ok() && q < config.queries; ++q) {
      if (q == sched.partition_query &&
          sched.partition_device != SIZE_MAX) {
        ChaosProxy* proxy = proxies[sched.partition_device].get();
        proxy->SetPartitioned(true);
        const double heal_after = sched.partition_heal_s;
        healer = std::thread([proxy, heal_after]() {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(heal_after));
          proxy->SetPartitioned(false);
        });
      }
      std::vector<double> x(config.l);
      for (double& value : x) value = 2.0 * rng.NextDouble() - 1.0;
      std::vector<double> expected(config.m);
      MatVecInto(a, std::span<const double>(x), std::span<double>(expected));

      Result<std::vector<double>> answer = coordinator.Query(x);
      if (answer.ok()) {
        ++episode.queries_answered;
        for (size_t p = 0; p < expected.size(); ++p) {
          const double tolerance =
              1e-6 * std::max(1.0, std::abs(expected[p]));
          if (std::abs((*answer)[p] - expected[p]) > tolerance) {
            fail(&NetChaosInvariants::decode_exact,
                 "query " + std::to_string(q) + " row " + std::to_string(p) +
                     ": got " + std::to_string((*answer)[p]) + ", want " +
                     std::to_string(expected[p]));
            break;
          }
        }
      } else if (answer.status().code() == ErrorCode::kInfeasible) {
        break;  // fleet collapsed below k = 2: a legitimate explicit outcome
      } else if (answer.status().code() != ErrorCode::kInternal) {
        // kInternal = recovery budget spent (explicit, legitimate);
        // anything else is a liveness/typing regression.
        fail(&NetChaosInvariants::liveness,
             "query " + std::to_string(q) +
                 " unexpected outcome: " + answer.status().message());
      }
      if (q == sched.partition_query && healer.joinable()) healer.join();
    }
    if (healer.joinable()) healer.join();

    // Invariant 2: cumulative Def. 2 ITS across every recovery round.
    if (setup.ok()) {
      const SchemeSecurityReport its = coordinator.VerifyCumulativeSecurity();
      if (!its.all_secure) {
        fail(&NetChaosInvariants::security_its,
             "cumulative view lost ITS after " +
                 std::to_string(coordinator.stats().recovery_rounds) +
                 " recovery rounds:" + its.LeakSummary());
      }
    }

    // Invariants 5 + 6 (masking family, guards provisioned).
    if (setup.ok() && episode.byzantine_effective > 0) {
      const NetCoordinatorStats& stats = coordinator.stats();
      if (stats.recovery_rounds != 0 || stats.byzantine_masked_queries == 0) {
        fail(&NetChaosInvariants::masking,
             std::to_string(stats.recovery_rounds) + " recovery rounds, " +
                 std::to_string(stats.byzantine_masked_queries) +
                 " masked queries despite guards covering the liar");
      }
      if (coordinator.reputation().standing(sched.byzantine_device) !=
          sim::DeviceStanding::kQuarantined) {
        fail(&NetChaosInvariants::quarantine,
             "lying daemon " + std::to_string(sched.byzantine_device) +
                 " was never quarantined");
      }
    }

    // Invariant 3: double-entry ledger. Drain, sweep leftover completions,
    // then reconcile driver vs transport tallies exactly.
    (void)transport->Drain(1.0);
    uint64_t swept_responses = 0;
    uint64_t swept_value_bytes = 0;
    std::vector<Completion> sweep;
    for (int empty_polls = 0; empty_polls < 2;) {
      sweep.clear();
      if (transport->PollInto(&sweep, 0.05) == 0) {
        ++empty_polls;
        continue;
      }
      empty_polls = 0;
      for (const Completion& completion : sweep) {
        if (completion.kind == Completion::Kind::kResponse) {
          ++swept_responses;
          swept_value_bytes += 8 * completion.values.size();
        }
      }
    }
    episode.driver_stats = coordinator.stats();
    episode.transport_stats = transport->stats();
    if (setup.ok()) {
      const std::string ledger =
          ReconcileLedgers(episode.driver_stats, episode.transport_stats,
                           config.l, swept_responses, swept_value_bytes);
      if (!ledger.empty()) fail(&NetChaosInvariants::ledger_balanced, ledger);
    }
    // Transport (and its loop thread) must die before the proxies and
    // daemons it points at.
  }

  for (auto& proxy : proxies) proxy->Stop();
  for (auto& daemon : daemons) daemon->Stop();

  episode.wall_s = wall.ElapsedSeconds();
  if (episode.wall_s > config.episode_wall_cap_s) {
    fail(&NetChaosInvariants::liveness,
         "episode took " + std::to_string(episode.wall_s) + "s > cap " +
             std::to_string(config.episode_wall_cap_s) + "s");
  }
  return episode;
}

NetChaosSummary RunNetChaosSoak(const NetChaosConfig& config,
                                size_t episodes) {
  NetChaosSummary summary;
  for (size_t index = 0; index < episodes; ++index) {
    NetChaosEpisode episode = RunNetChaosEpisode(config, index);
    ++summary.episodes;
    if (!episode.ok()) {
      ++summary.failures;
      if (summary.first_failure.empty()) {
        summary.first_failure = DescribeNetSchedule(episode) + " | " +
                                episode.failure + " | repro: " +
                                NetReproCommand(config, index);
      }
    }
  }
  return summary;
}

std::string DescribeNetSchedule(const NetChaosEpisode& episode) {
  std::ostringstream out;
  const NetChaosSchedule& sched = episode.schedule;
  out << "episode seed=" << episode.seed << " index=" << episode.index
      << " drop=" << sched.drop_prob << " delay_p=" << sched.delay_prob
      << " reorder=" << sched.reorder_prob;
  if (sched.byzantine_device != SIZE_MAX) {
    out << " byzantine=d" << sched.byzantine_device;
  }
  if (episode.byzantine_effective > 0) {
    out << " byz_eff=" << episode.byzantine_effective;
  }
  if (sched.silent_device != SIZE_MAX) {
    out << " silent=d" << sched.silent_device;
  }
  if (sched.partition_device != SIZE_MAX) {
    out << " partition=d" << sched.partition_device << "@q"
        << sched.partition_query << " heal=" << sched.partition_heal_s << "s";
  }
  if (sched.kill_device != SIZE_MAX) {
    out << " kill=d" << sched.kill_device << "@frame"
        << sched.kill_after_frames;
  }
  return out.str();
}

std::string NetReproCommand(const NetChaosConfig& config, size_t index) {
  std::ostringstream out;
  out << "bench/net_cluster --mode=chaos --seed=" << config.seed
      << " --episodes=1 --first_episode=" << index
      << " --devices=" << config.num_devices << " --m=" << config.m
      << " --l=" << config.l << " --queries=" << config.queries;
  if (config.byzantine_tolerance > 0) {
    out << " --byzantine_tolerance=" << config.byzantine_tolerance;
  }
  return out.str();
}

}  // namespace scec::net
