// SPDX-License-Identifier: MIT

#include "net/sim_transport.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.h"

namespace scec::net {
namespace {

// Heap order: the later event sinks, so the heap's front is the earliest.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

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
    SCEC_CHECK_GE(spec.link_latency_s, 0.0);
    SCEC_CHECK_GT(spec.downlink_bps, 0.0);
    SCEC_CHECK_GT(spec.uplink_bps, 0.0);
    devices_.push_back(DeviceState{
        .spec = std::move(spec),
        .core = DeviceCore(devices_.size(), options_.faults)});
  }
}

void SimTransport::Schedule(double when, EventKind kind, uint64_t id) {
  SCEC_CHECK_GE(when, now_) << "cannot schedule events in the past";
  heap_.push_back(Event{when, next_seq_++, id, kind});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

double SimTransport::Transfer(double* busy_until, double bandwidth_bps,
                              double latency_s, uint64_t bytes) const {
  const double start = std::max(now_, *busy_until);
  const double last_bit_out =
      start + static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  *busy_until = last_bit_out;
  return last_bit_out + latency_s;
}

bool SimTransport::IsOpen(uint64_t id) const {
  return id >= first_id_ && id < next_id_ &&
         id_slots_[id - first_id_] != kClosed;
}

void SimTransport::CloseId(uint64_t id) {
  IdSlot(id) = kClosed;
  while (settled_prefix_ < id_slots_.size() &&
         id_slots_[settled_prefix_] == kClosed) {
    ++settled_prefix_;
  }
  // Drop the settled prefix once it is all there is, or most of a long
  // table: amortised O(1) per id, and the table stays as long as the span
  // from the oldest open id.
  if (settled_prefix_ == id_slots_.size() ||
      (settled_prefix_ >= 64 && 2 * settled_prefix_ >= id_slots_.size())) {
    id_slots_.erase(
        id_slots_.begin(),
        id_slots_.begin() + static_cast<std::ptrdiff_t>(settled_prefix_));
    first_id_ += settled_prefix_;
    settled_prefix_ = 0;
  }
}

void SimTransport::Release(uint32_t rpc) {
  if (!rpcs_[rpc].open && !rpcs_[rpc].event_pending) {
    free_rpcs_.push_back(rpc);
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
  DeviceState& dev = devices_[device];
  staging_ = Staging{device, share_id, &rows};
  Schedule(Transfer(&dev.downlink_busy_until, dev.spec.downlink_bps,
                    dev.spec.link_latency_s, rows.size() * sizeof(double)),
           EventKind::kStaged, 0);
  while (staging_.rows != nullptr && RunOne()) {
  }
  if (staging_.rows != nullptr) {
    staging_.rows = nullptr;
    return Internal("staging transfer never delivered");
  }
  return Status::Ok();
}

bool SimTransport::Lost() {
  return options_.loss_probability > 0.0 &&
         loss_rng_.NextDouble() < options_.loss_probability;
}

void SimTransport::Dispatch(uint32_t r) {
  Rpc& rpc = rpcs_[r];
  if (!rpc.open) return;  // cancelled during the start delay

  const uint64_t query_bytes = rpc.x.size() * sizeof(double);
  ++stats_.queries_sent;
  stats_.query_value_bytes_sent += query_bytes;

  // Deadline timer starts at dispatch, exactly like the socket transport.
  // The RPC stays open past it: a late answer is still delivered.
  rpc.deadline_seq = next_seq_;
  Schedule(now_ + rpc.deadline_s, EventKind::kDeadline, r);

  if (Lost()) return;  // the deadline will fire
  DeviceState& dev = devices_[rpc.device];
  Schedule(Transfer(&dev.downlink_busy_until, dev.spec.downlink_bps,
                    dev.spec.link_latency_s, query_bytes),
           EventKind::kQueryArrival, r);
  rpc.event_pending = true;
}

void SimTransport::Compute(uint32_t r) {
  Rpc& rpc = rpcs_[r];
  DeviceState& dev = devices_[rpc.device];
  const DeviceCore::Arrival arrival =
      dev.core.Compute(rpc.share_id, rpc.x, now_, &rpc.values);
  if (arrival == DeviceCore::Arrival::kMissed) return;
  if (arrival != DeviceCore::Arrival::kComputed) {
    Reply(r, NetError::kProtocol);  // as scecd refuses a bad query at once
    return;
  }
  DeviceOps& billed = stats_.device_ops[rpc.device];
  billed.mults = dev.core.ops().mults;
  billed.adds = dev.core.ops().adds;
  // Single-core device: queue behind the in-flight query.
  const size_t rows = rpc.values.size();
  const size_t cols = rpc.x.size();
  const double flops = static_cast<double>(rows * cols + rows * (cols - 1));
  const double duration = options_.straggler.Apply(
      flops / dev.spec.compute_rate_flops, straggler_rng_);
  const double done = std::max(now_, dev.busy_until) + duration;
  dev.busy_until = done;
  Schedule(done, EventKind::kComputeDone, r);
  rpc.event_pending = true;
}

void SimTransport::ComputeDone(uint32_t r) {
  Rpc& rpc = rpcs_[r];
  if (!devices_[rpc.device].core.Release(now_, &rpc.values)) return;
  Reply(r, NetError::kOk);
}

void SimTransport::Reply(uint32_t r, NetError error) {
  Rpc& rpc = rpcs_[r];
  rpc.error = error;
  if (error != NetError::kOk) rpc.values.clear();
  if (Lost()) return;  // the deadline will fire
  DeviceState& dev = devices_[rpc.device];
  Schedule(Transfer(&dev.uplink_busy_until, dev.spec.uplink_bps,
                    dev.spec.link_latency_s,
                    rpc.values.size() * sizeof(double)),
           EventKind::kReplyArrival, r);
  rpc.event_pending = true;
}

void SimTransport::Deliver(uint32_t r) {
  Rpc& rpc = rpcs_[r];
  if (!rpc.open) {
    // The RPC was cancelled meanwhile.
    if (rpc.error == NetError::kOk) ++stats_.stale_responses;
    return;
  }
  rpc.open = false;
  rpc.deadline_seq = 0;  // a pending deadline is skipped
  CloseId(rpc.id);
  if (rpc.error != NetError::kOk) {
    ready_.push_back({.kind = Completion::Kind::kError, .id = rpc.id,
                      .device = rpc.device, .error = rpc.error});
    return;
  }
  ++stats_.responses_delivered;
  stats_.response_value_bytes_delivered += rpc.values.size() * sizeof(double);
  stats_.device_ops[rpc.device].values_returned += rpc.values.size();
  ready_.push_back({.kind = Completion::Kind::kResponse, .id = rpc.id,
                    .device = rpc.device, .values = std::move(rpc.values)});
}

bool SimTransport::RunOne() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event event = heap_.back();
    heap_.pop_back();
    // Cancelled timers are dropped here, without moving the clock.
    if (event.kind == EventKind::kDeadline &&
        rpcs_[event.id].deadline_seq != event.seq) {
      continue;
    }
    if (event.kind == EventKind::kAlarm && !IsOpen(event.id)) continue;
    now_ = event.when;
    const auto r = static_cast<uint32_t>(event.id);
    switch (event.kind) {
      case EventKind::kDeadline: {
        Rpc& rpc = rpcs_[r];
        rpc.deadline_seq = 0;
        ready_.push_back({.kind = Completion::Kind::kError, .id = rpc.id,
                          .device = rpc.device, .error = NetError::kTimeout});
        ++stats_.timeouts;
        break;
      }
      case EventKind::kAlarm:
        CloseId(event.id);
        ready_.push_back({.kind = Completion::Kind::kAlarm, .id = event.id});
        break;
      case EventKind::kStaged: {
        const Matrix<double>& rows = *staging_.rows;
        DeviceCore& core = devices_[staging_.device].core;
        std::ranges::copy(
            rows.Data(),
            core.Stage(staging_.share_id, rows.rows(), rows.cols()).begin());
        stats_.staged_value_bytes += rows.size() * sizeof(double);
        stats_.device_ops[staging_.device].staged_values =
            core.ops().staged_values;
        staging_.rows = nullptr;
        break;
      }
      case EventKind::kStart:
      case EventKind::kQueryArrival:
      case EventKind::kComputeDone:
      case EventKind::kReplyArrival:
        // One step of the RPC's chain; it schedules the next, if any.
        rpcs_[r].event_pending = false;
        if (event.kind == EventKind::kStart) Dispatch(r);
        if (event.kind == EventKind::kQueryArrival) Compute(r);
        if (event.kind == EventKind::kComputeDone) ComputeDone(r);
        if (event.kind == EventKind::kReplyArrival) Deliver(r);
        Release(r);
        break;
    }
    return true;
  }
  return false;
}

uint64_t SimTransport::SubmitQuery(size_t device, uint64_t share_id,
                                   const std::vector<double>& x,
                                   double deadline_s, double start_delay_s) {
  SCEC_CHECK_LT(device, devices_.size());
  SCEC_CHECK_GT(deadline_s, 0.0);
  SCEC_CHECK_GE(start_delay_s, 0.0);
  SCEC_CHECK(!draining_);
  if (free_rpcs_.empty()) {
    free_rpcs_.push_back(static_cast<uint32_t>(rpcs_.size()));
    rpcs_.emplace_back();
  }
  const uint32_t r = free_rpcs_.back();
  free_rpcs_.pop_back();
  Rpc& rpc = rpcs_[r];
  rpc.id = next_id_++;
  rpc.device = device;
  rpc.share_id = share_id;
  rpc.deadline_s = deadline_s;
  rpc.open = true;
  rpc.event_pending = false;
  rpc.deadline_seq = 0;
  rpc.error = NetError::kOk;
  rpc.x.assign(x.begin(), x.end());
  id_slots_.push_back(r);
  if (start_delay_s == 0.0) {
    Dispatch(r);
  } else {
    Schedule(now_ + start_delay_s, EventKind::kStart, r);
    rpc.event_pending = true;
  }
  return rpc.id;
}

uint64_t SimTransport::AddAlarm(double delay_s) {
  SCEC_CHECK_GE(delay_s, 0.0) << "cannot schedule an alarm in the past";
  const uint64_t alarm_id = next_id_++;
  id_slots_.push_back(kAlarmOpen);
  Schedule(now_ + delay_s, EventKind::kAlarm, alarm_id);
  return alarm_id;
}

bool SimTransport::Cancel(uint64_t id) {
  if (!IsOpen(id)) return false;
  const uint32_t slot = IdSlot(id);
  CloseId(id);
  if (slot == kAlarmOpen) return true;  // its event is skipped
  Rpc& rpc = rpcs_[slot];
  rpc.open = false;
  rpc.deadline_seq = 0;
  ++stats_.cancelled;
  Release(slot);
  return true;
}

size_t SimTransport::PollInto(std::vector<Completion>* out,
                              double /*max_wait_s*/) {
  SCEC_CHECK(out != nullptr);
  // Advance simulated time one event at a time until something completes or
  // the simulation runs dry (every pending event fired without producing a
  // completion — only possible if the driver has nothing outstanding).
  while (ready_.empty()) {
    if (!RunOne()) break;
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
