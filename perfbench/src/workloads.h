// SPDX-License-Identifier: MIT
//
// The three benchmark workloads (perfbench/README.md has the why of each).
// Every workload is a closed loop driven from one client thread, makes its
// inputs from RunConfig::seed, checks every answer outside the timed
// interval, and fills RunResult with
//
//   untraced (config.spans == null): the end-to-end metrics, and
//   traced:  the per-layer metrics of the layers on its own path, from the
//            spans and counters recorded around every call it makes, plus
//            replays of those layers' public functions at its shapes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "allocation/device.h"
#include "bench.h"
#include "core/problem.h"
#include "field/gf_prime.h"
#include "linalg/matrix.h"

namespace perfbench {

// Workload shapes. They are fixed: the seed changes the inputs (A, x, the
// pad and digest streams), never the shapes or the fleet, so eq1_cost is
// the same on every seed.
inline constexpr size_t kNetDevices = 8;
inline constexpr size_t kNetM = 1024;
inline constexpr size_t kNetL = 1024;

inline constexpr size_t kServeTenants = 8;
inline constexpr size_t kServeDevices = 8;
inline constexpr size_t kServeM = 1024;
inline constexpr size_t kServeL = 1024;
inline constexpr size_t kServeMaxBatch = 32;

inline constexpr size_t kDurableM = 64;
inline constexpr size_t kDurableL = 64;
inline constexpr size_t kDurableFleetSize = 12;
inline constexpr uint64_t kDurableFleetSeed = 20190707;
// Journaled queries between a kill and its Restart(), so every restart
// replays a journal of the same length.
inline constexpr size_t kDurableQueriesPerKill = 256;

// The loopback fleet cost recipe of bench/net_cluster: unit comm costs
// 1.0 .. 1.6 cycling over seven devices, identical compute and links.
scec::DeviceFleet LoopbackFleet(size_t devices);
// MakeCampusFleet(kDurableFleetSize) on a fixed fleet seed.
scec::DeviceFleet DurableFleet();

scec::McscecProblem MakeProblem(size_t m, size_t l, scec::DeviceFleet fleet);

// Seeded inputs: doubles uniform in [-1, 1), field elements uniform.
scec::Matrix<double> RandomDoubleMatrix(size_t rows, size_t cols,
                                        uint64_t seed);
scec::Matrix<scec::Gf61> RandomGf61Matrix(size_t rows, size_t cols,
                                          uint64_t seed);

RunResult RunNetLoopback(const RunConfig& config);
RunResult RunServeGf61(const RunConfig& config);
RunResult RunDurableJournal(const RunConfig& config);

}  // namespace perfbench
