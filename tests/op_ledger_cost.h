// SPDX-License-Identifier: MIT
//
// Eq. (1) rebuilt from a transport's op ledger (NetTransportStats::
// device_ops) at the fleet's resource prices, for tests that check the
// bill a run actually ran up against the planner's objective.
//
// A device holding V coded rows of width l was staged V·l values and
// stores l + (l+1)·V values (the input x, its coded rows, one result slot
// per row); each answer costs V·l mults, V·(l−1) adds and V values sent.
// One fault-free query therefore bills the planner's objective Σ_j V_j·c_j
// plus the fixed Σ_j l·c^s_j of the selected devices (PlannedBill).

#pragma once

#include <cstddef>

#include "allocation/device.h"
#include "core/planner.h"
#include "net/transport.h"

namespace scec {

// Σ over devices holding a share of storage, compute and communication.
inline double OpLedgerCost(const net::NetTransportStats& stats,
                           const DeviceFleet& fleet, size_t l) {
  const double width = static_cast<double>(l);
  double cost = 0.0;
  for (size_t d = 0; d < stats.device_ops.size(); ++d) {
    const net::DeviceOps& ops = stats.device_ops[d];
    if (ops.staged_values == 0) continue;
    const ResourceCosts& prices = fleet[d].costs;
    const double rows = static_cast<double>(ops.staged_values) / width;
    cost += (width + (width + 1.0) * rows) * prices.storage +
            static_cast<double>(ops.mults) * prices.mul +
            static_cast<double>(ops.adds) * prices.add +
            static_cast<double>(ops.values_returned) * prices.comm;
  }
  return cost;
}

// The planner's objective plus Eq. (1)'s fixed storage of the input x on
// every selected device.
inline double PlannedBill(const Plan& plan, const DeviceFleet& fleet,
                          size_t l) {
  double bill = plan.allocation.total_cost;
  for (size_t d : plan.participating) {
    bill += static_cast<double>(l) * fleet[d].costs.storage;
  }
  return bill;
}

}  // namespace scec
