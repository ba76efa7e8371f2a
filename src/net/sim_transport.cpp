// SPDX-License-Identifier: MIT

#include "net/sim_transport.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "linalg/matrix_ops.h"

namespace scec::net {
namespace {

// Star topology: the user is node 1, device d is node 2 + d.
constexpr sim::NodeId kUserNode = 1;
sim::NodeId DeviceNode(size_t d) { return 2 + static_cast<sim::NodeId>(d); }

}  // namespace

SimTransport::SimTransport(std::vector<EdgeDevice> fleet,
                           SimTransportOptions options)
    : options_(std::move(options)),
      straggler_rng_(options_.straggler_seed),
      loss_rng_(options_.loss_seed) {
  SCEC_CHECK(!fleet.empty());
  SCEC_CHECK(options_.loss_probability >= 0.0 &&
             options_.loss_probability < 1.0);
  devices_.reserve(fleet.size());
  stats_.device_ops.resize(fleet.size());
  for (EdgeDevice& spec : fleet) {
    const size_t d = devices_.size();
    const sim::NodeId node = DeviceNode(d);
    // User -> device rides the device's downlink, device -> user its
    // uplink.
    network_.AddLink(kUserNode, node,
                     sim::LinkSpec{spec.link_latency_s, spec.downlink_bps});
    network_.AddLink(node, kUserNode,
                     sim::LinkSpec{spec.link_latency_s, spec.uplink_bps});
    DeviceState state;
    state.spec = std::move(spec);
    devices_.push_back(std::move(state));
  }
}

Status SimTransport::StageShare(size_t device, uint64_t share_id,
                                const Matrix<double>& rows) {
  if (device >= devices_.size()) {
    return OutOfRange("device index out of range");
  }
  if (draining_) return ToStatus(NetError::kDraining, "transport draining");
  // Staging is synchronous and reliable: ship the bytes and run the
  // simulation until they land. Query events that fire meanwhile leave
  // their completions queued for the next poll.
  bool delivered = false;
  const uint64_t bytes = rows.size() * sizeof(double);
  network_.Send(kUserNode, DeviceNode(device), bytes,
                [this, device, share_id, bytes, &rows, &delivered]() {
                  devices_[device].shares[share_id] = rows;
                  stats_.staged_value_bytes += bytes;
                  stats_.device_ops[device].staged_values += rows.size();
                  delivered = true;
                });
  while (!delivered && queue_.RunOne()) {
  }
  if (!delivered) return Internal("staging transfer never delivered");
  return Status::Ok();
}

bool SimTransport::Lost() {
  return options_.loss_probability > 0.0 &&
         loss_rng_.NextDouble() < options_.loss_probability;
}

void SimTransport::Dispatch(uint64_t rpc_id, size_t device, uint64_t share_id,
                            std::vector<double> x, double deadline_s) {
  auto rpc_it = rpcs_.find(rpc_id);
  if (rpc_it == rpcs_.end()) return;  // cancelled during the start delay

  const uint64_t query_bytes = x.size() * sizeof(double);
  ++stats_.queries_sent;
  stats_.query_value_bytes_sent += query_bytes;

  // Deadline timer starts at dispatch, exactly like the socket transport.
  // The RPC stays open past it: a late answer is still delivered.
  rpc_it->second.deadline_event =
      queue_.ScheduleAfter(deadline_s, [this, rpc_id]() {
        auto it = rpcs_.find(rpc_id);
        if (it == rpcs_.end()) return;
        it->second.deadline_event = 0;
        ready_.push_back({.kind = Completion::Kind::kError, .id = rpc_id,
                          .device = it->second.device,
                          .error = NetError::kTimeout});
        ++stats_.timeouts;
      });

  if (Lost()) return;  // the deadline will fire
  network_.Send(kUserNode, DeviceNode(device), query_bytes,
                [this, rpc_id, device, share_id, x = std::move(x)]() mutable {
                  Compute(rpc_id, device, share_id, std::move(x));
                });
}

void SimTransport::Compute(uint64_t rpc_id, size_t device, uint64_t share_id,
                           std::vector<double> x) {
  DeviceState& dev = devices_[device];
  auto share_it = dev.shares.find(share_id);
  if (share_it == dev.shares.end() || x.size() != share_it->second.cols()) {
    // scecd answers a bad query with a typed error at once.
    Reply(rpc_id, device, {}, NetError::kProtocol);
    return;
  }
  // A crashed or transiently offline device never receives the query.
  if (options_.faults != nullptr &&
      !options_.faults->AcceptsQueryAt(device, queue_.now())) {
    return;
  }
  // Single-core device: queue behind the in-flight query; Eq. (1) compute
  // term V_j·l mults + V_j·(l−1) adds.
  const Matrix<double>& share = share_it->second;
  DeviceOps& ops = stats_.device_ops[device];
  ops.mults += share.rows() * share.cols();
  ops.adds += share.rows() * (share.cols() - 1);
  const double flops = static_cast<double>(
      share.rows() * share.cols() + share.rows() * (share.cols() - 1));
  const double duration = options_.straggler.Apply(
      flops / dev.spec.compute_rate_flops, straggler_rng_);
  const double done = std::max(queue_.now(), dev.busy_until) + duration;
  dev.busy_until = done;
  std::vector<double> values(share.rows());
  MatVecInto(share, std::span<const double>(x), std::span<double>(values));
  sim::ApplyByzantine(options_.byzantine, options_.byzantine_seed, device,
                      &dev.byzantine_draws, &dev.lies, &values);

  queue_.ScheduleAt(done, [this, rpc_id, device,
                           values = std::move(values)]() mutable {
    // Fail-stop mid-compute, or an omission fault: the work was done, the
    // response is withheld.
    if (options_.faults != nullptr) {
      if (!options_.faults->SendsResponseAt(device, queue_.now())) return;
      options_.faults->MaybeCorrupt(device, queue_.now(), values);
    }
    Reply(rpc_id, device, std::move(values), NetError::kOk);
  });
}

void SimTransport::Reply(uint64_t rpc_id, size_t device,
                         std::vector<double> values, NetError error) {
  if (Lost()) return;  // the deadline will fire
  const uint64_t bytes = values.size() * sizeof(double);
  network_.Send(
      DeviceNode(device), kUserNode, bytes,
      [this, rpc_id, device, error, bytes,
       values = std::move(values)]() mutable {
        auto rpc = rpcs_.find(rpc_id);
        if (rpc == rpcs_.end()) {
          // The RPC was cancelled meanwhile.
          if (error == NetError::kOk) ++stats_.stale_responses;
          return;
        }
        queue_.Cancel(rpc->second.deadline_event);  // no-op once fired
        rpcs_.erase(rpc);
        if (error != NetError::kOk) {
          ready_.push_back({.kind = Completion::Kind::kError, .id = rpc_id,
                            .device = device, .error = error});
          return;
        }
        ++stats_.responses_delivered;
        stats_.response_value_bytes_delivered += bytes;
        stats_.device_ops[device].values_returned += values.size();
        ready_.push_back({.kind = Completion::Kind::kResponse, .id = rpc_id,
                          .device = device, .values = std::move(values)});
      });
}

uint64_t SimTransport::SubmitQuery(size_t device, uint64_t share_id,
                                   const std::vector<double>& x,
                                   double deadline_s, double start_delay_s) {
  SCEC_CHECK_LT(device, devices_.size());
  SCEC_CHECK_GT(deadline_s, 0.0);
  SCEC_CHECK_GE(start_delay_s, 0.0);
  SCEC_CHECK(!draining_);
  const uint64_t rpc_id = next_id_++;
  rpcs_.emplace(rpc_id, Rpc{device, 0});
  if (start_delay_s == 0.0) {
    Dispatch(rpc_id, device, share_id, x, deadline_s);
  } else {
    queue_.ScheduleAfter(start_delay_s,
                         [this, rpc_id, device, share_id, x, deadline_s]() {
                           Dispatch(rpc_id, device, share_id, x, deadline_s);
                         });
  }
  return rpc_id;
}

uint64_t SimTransport::AddAlarm(double delay_s) {
  SCEC_CHECK_GE(delay_s, 0.0);
  const uint64_t alarm_id = next_id_++;
  alarms_[alarm_id] = queue_.ScheduleAfter(delay_s, [this, alarm_id]() {
    if (alarms_.erase(alarm_id) == 0) return;
    ready_.push_back({.kind = Completion::Kind::kAlarm, .id = alarm_id});
  });
  return alarm_id;
}

bool SimTransport::Cancel(uint64_t id) {
  auto rpc = rpcs_.find(id);
  if (rpc != rpcs_.end()) {
    queue_.Cancel(rpc->second.deadline_event);  // event ids start at 1
    rpcs_.erase(rpc);
    ++stats_.cancelled;
    return true;
  }
  auto alarm = alarms_.find(id);
  if (alarm != alarms_.end()) {
    queue_.Cancel(alarm->second);
    alarms_.erase(alarm);
    return true;
  }
  return false;
}

size_t SimTransport::PollInto(std::vector<Completion>* out,
                              double /*max_wait_s*/) {
  SCEC_CHECK(out != nullptr);
  // Advance simulated time one event at a time until something completes or
  // the simulation runs dry (every pending event fired without producing a
  // completion — only possible if the driver has nothing outstanding).
  while (ready_.empty()) {
    if (!queue_.RunOne()) break;
  }
  const size_t n = ready_.size();
  for (Completion& completion : ready_) out->push_back(std::move(completion));
  ready_.clear();
  return n;
}

Status SimTransport::Drain(double /*timeout_s*/) {
  draining_ = true;
  return Status::Ok();
}

}  // namespace scec::net
