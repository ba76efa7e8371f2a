// SPDX-License-Identifier: MIT

#include "net/net_chaos.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix_ops.h"
#include "net/chaos_proxy.h"
#include "net/scecd.h"
#include "net/socket_transport.h"

namespace scec::net {
namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
  options.hedge_after_s = 0.2;  // exercise hedging under loss
  options.pad_seed = episode_seed;
  options.digest_seed = episode_seed ^ 0x5F5F5F5FULL;
  options.reputation.enabled = true;
  options.max_recovery_rounds = 5;
  options.record_trace = false;  // traces are for identity tests, not soaks
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
  const double wall_start = WallSeconds();
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
    fleet.Add(device);
  }
  Matrix<double> a(config.m, config.l);
  for (double& value : a.Data()) value = 2.0 * rng.NextDouble() - 1.0;

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
      episode.wall_s = WallSeconds() - wall_start;
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
      episode.wall_s = WallSeconds() - wall_start;
      return episode;
    }
    ports.push_back(proxy->port());
    daemons.push_back(std::move(daemon));
    proxies.push_back(std::move(proxy));
  }

  {
    auto transport = std::make_unique<SocketTransport>(
        ports, ChaosTransportOptions(derived));
    NetCoordinator coordinator(a, fleet, ChaosDriverOptions(derived));
    Status setup = coordinator.Setup(transport.get());
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

    // Invariant 3: double-entry ledger. Drain, sweep leftover completions,
    // then reconcile driver vs transport tallies exactly.
    (void)transport->Drain(1.0);
    uint64_t swept_responses = 0;
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
        }
      }
    }
    episode.driver_stats = coordinator.stats();
    episode.transport_stats = transport->stats();
    const NetCoordinatorStats& ds = episode.driver_stats;
    const NetTransportStats& ts = episode.transport_stats;
    if (setup.ok()) {
      if (ts.responses_delivered != ds.responses_seen + swept_responses) {
        fail(&NetChaosInvariants::ledger_balanced,
             "responses: transport delivered " +
                 std::to_string(ts.responses_delivered) + " != driver saw " +
                 std::to_string(ds.responses_seen) + " + swept " +
                 std::to_string(swept_responses));
      }
      if (ds.query_value_bytes != 8.0 * config.l * ds.dispatches) {
        fail(&NetChaosInvariants::ledger_balanced,
             "driver query bytes diverge from dispatches x l x 8");
      }
      if (ts.query_value_bytes_sent !=
          static_cast<uint64_t>(8 * config.l) * ts.queries_sent) {
        fail(&NetChaosInvariants::ledger_balanced,
             "transport query bytes diverge from sends x l x 8");
      }
      if (ts.queries_sent > ds.dispatches) {
        fail(&NetChaosInvariants::ledger_balanced,
             "transport sent more queries than the driver dispatched");
      }
      if (ds.response_value_bytes >
          static_cast<double>(ts.response_value_bytes_delivered)) {
        fail(&NetChaosInvariants::ledger_balanced,
             "driver used more response bytes than were delivered");
      }
    }
    // Transport (and its loop thread) must die before the proxies and
    // daemons it points at.
  }

  for (auto& proxy : proxies) proxy->Stop();
  for (auto& daemon : daemons) daemon->Stop();

  episode.wall_s = WallSeconds() - wall_start;
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
  return out.str();
}

}  // namespace scec::net
