// SPDX-License-Identifier: MIT
//
// Loopback-cluster harness for the networked coordinator: runs the SAME
// fault-free workload through the simulator transport and a live cluster of
// in-process scecd daemons and diffs the coordinator's decision traces
// byte-by-byte — the sim/socket trace-identity acceptance check.
//
// Socket chaos episodes run through bench/chaos_soak --transport=socket;
// the loopback cluster's throughput and latency are measured by the
// repository benchmark's net_loopback workload (perfbench/).

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket_transport.h"

namespace {

using scec::CliParser;
using scec::DeviceFleet;
using scec::EdgeDevice;
using scec::Matrix;
using scec::Xoshiro256StarStar;
using scec::net::NetCoordinator;
using scec::net::NetCoordinatorOptions;
using scec::net::ScecDaemon;
using scec::net::ScecdOptions;
using scec::net::SimTransport;
using scec::net::SocketTransport;
using scec::net::SocketTransportOptions;

std::vector<EdgeDevice> MakeSpecs(size_t k) {
  std::vector<EdgeDevice> specs;
  for (size_t d = 0; d < k; ++d) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.1 * static_cast<double>(d % 7);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    specs.push_back(device);
  }
  return specs;
}

Matrix<double> MakeMatrix(size_t m, size_t l, uint64_t seed) {
  Matrix<double> a(m, l);
  Xoshiro256StarStar rng(seed);
  for (double& value : a.Data()) value = 2.0 * rng.NextDouble() - 1.0;
  return a;
}

int RunIdentity(size_t devices, size_t m, size_t l, size_t queries,
                uint64_t seed) {
  const Matrix<double> a = MakeMatrix(m, l, seed);
  DeviceFleet fleet(MakeSpecs(devices));
  NetCoordinatorOptions options;
  options.rpc_deadline_s = 10.0;
  options.record_trace = true;  // the two traces are compared below

  Xoshiro256StarStar xrng(seed + 1);
  std::vector<std::vector<double>> xs;
  for (size_t q = 0; q < queries; ++q) {
    std::vector<double> x(l);
    for (double& value : x) value = 2.0 * xrng.NextDouble() - 1.0;
    xs.push_back(std::move(x));
  }

  // Arm 1: simulator transport.
  NetCoordinator sim_coord(a, fleet, options);
  SimTransport sim(MakeSpecs(devices), scec::net::SimTransportOptions{});
  if (!sim_coord.Setup(&sim).ok()) return 1;
  for (const auto& x : xs) {
    if (!sim_coord.Query(x).ok()) return 1;
  }

  // Arm 2: live loopback cluster.
  std::vector<std::unique_ptr<ScecDaemon>> daemons;
  std::vector<uint16_t> ports;
  for (size_t d = 0; d < devices; ++d) {
    auto daemon = std::make_unique<ScecDaemon>(ScecdOptions{.daemon_id = d});
    if (!daemon->Start().ok()) return 1;
    ports.push_back(daemon->port());
    daemons.push_back(std::move(daemon));
  }
  NetCoordinator net_coord(a, fleet, options);
  int rc = 0;
  {
    SocketTransport transport(ports, SocketTransportOptions{});
    if (!net_coord.Setup(&transport).ok()) rc = 1;
    if (rc == 0) {
      for (const auto& x : xs) {
        if (!net_coord.Query(x).ok()) {
          rc = 1;
          break;
        }
      }
    }
    (void)transport.Drain(2.0);
  }
  for (auto& daemon : daemons) daemon->Stop();
  if (rc != 0) return rc;

  const auto& sim_trace = sim_coord.trace();
  const auto& net_trace = net_coord.trace();
  if (sim_trace == net_trace) {
    std::cout << "IDENTICAL: " << sim_trace.size()
              << " decision-trace entries match between simulator and "
                 "socket transports\n";
    return 0;
  }
  std::cout << "MISMATCH: sim=" << sim_trace.size()
            << " entries, socket=" << net_trace.size() << "\n";
  const size_t n = std::min(sim_trace.size(), net_trace.size());
  for (size_t i = 0; i < n; ++i) {
    if (sim_trace[i] != net_trace[i]) {
      std::cout << "  first diff at entry " << i << ":\n    sim:    "
                << sim_trace[i] << "\n    socket: " << net_trace[i] << "\n";
      break;
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("net_cluster",
                "sim/socket decision-trace identity on a loopback cluster");
  uint64_t seed = 20190707;
  int64_t devices = 16;
  int64_t m = 64;
  int64_t l = 32;
  int64_t queries = 32;
  cli.AddUint("seed", &seed, "base seed");
  cli.AddInt("devices", &devices, "edge daemons in the cluster");
  cli.AddInt("m", &m, "matrix rows");
  cli.AddInt("l", &l, "matrix cols");
  cli.AddInt("queries", &queries, "queries per run");
  if (!cli.Parse(argc, argv)) return 1;
  return RunIdentity(static_cast<size_t>(devices), static_cast<size_t>(m),
                     static_cast<size_t>(l), static_cast<size_t>(queries),
                     seed);
}
