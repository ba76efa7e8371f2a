// SPDX-License-Identifier: MIT

#include "sim/protocol.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace scec::sim {

namespace {
// Sim-time trace track for protocol-level (non-device) events: one past the
// last device index, so it gets its own row in the viewer.
uint64_t ProtocolTid(size_t num_devices) { return num_devices; }
}  // namespace

ScecProtocol::ScecProtocol(const Deployment<double>* deployment,
                           std::vector<EdgeDevice> fleet_specs,
                           SimOptions options)
    : deployment_(deployment),
      specs_(std::move(fleet_specs)),
      options_(options),
      straggler_rng_(options.straggler_seed) {
  SCEC_CHECK(deployment_ != nullptr);
  SCEC_CHECK_EQ(specs_.size(), deployment_->shares.size())
      << "one device spec per participating device required";
  BuildTopology();
}

void ScecProtocol::BuildTopology() {
  // Star topology around the user, plus cloud links for staging.
  for (size_t d = 0; d < specs_.size(); ++d) {
    const EdgeDevice& spec = specs_[d];
    const NodeId node = DeviceNode(d);
    network_.AddLink(kCloudNode, node,
                     LinkSpec{spec.link_latency_s, spec.downlink_bps});
    network_.AddLink(node, kCloudNode,
                     LinkSpec{spec.link_latency_s, spec.uplink_bps});
    network_.AddLink(kUserNode, node,
                     LinkSpec{spec.link_latency_s, spec.downlink_bps});
    network_.AddLink(node, kUserNode,
                     LinkSpec{spec.link_latency_s, spec.uplink_bps});

    devices_.push_back(std::make_unique<EdgeDeviceActor>(
        d, spec, &queue_, &network_, &options_, &straggler_rng_,
        [this](size_t device, std::vector<double> response) {
          if (obs::Tracer::Enabled()) {
            obs::Tracer::Global().RecordSimSpan(
                "device_response", query_start_, queue_.now() - query_start_,
                /*tid=*/device);
          }
          inbox_[device].emplace_back(queue_.now(), std::move(response));
        }));
  }
}

void ScecProtocol::Stage() {
  SCEC_CHECK(!staged_) << "Stage() must run exactly once";
  for (size_t d = 0; d < devices_.size(); ++d) {
    const Matrix<double>& share = deployment_->shares[d].coded_rows;
    const uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(share.size()) * options_.value_bytes);
    EdgeDeviceActor* device = devices_[d].get();
    network_.Send(kCloudNode, DeviceNode(d), bytes,
                  [device, share]() { device->OnShareDelivered(share); });
  }
  const SimTime stage_start = queue_.now();
  queue_.RunUntilEmpty();
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimSpan("stage", stage_start,
                                        queue_.now() - stage_start,
                                        ProtocolTid(devices_.size()));
  }
  staged_ = true;
  for (const auto& device : devices_) {
    SCEC_CHECK(device->HasShare());
  }
}

std::vector<double> ScecProtocol::RunQuery(const std::vector<double>& x) {
  return RunQueryStream({x}).decoded[0];
}

ScecProtocol::StreamResult ScecProtocol::RunQueryStream(
    const std::vector<std::vector<double>>& xs) {
  SCEC_CHECK(staged_) << "RunQueryStream() requires Stage() first";
  const size_t num_queries = xs.size();
  SCEC_CHECK_GE(num_queries, 1u);
  for (const auto& x : xs) SCEC_CHECK_EQ(x.size(), deployment_->l);

  const SimTime start = queue_.now();
  query_start_ = start;
  const size_t devices = devices_.size();

  inbox_.assign(devices, {});

  const uint64_t x_bytes = static_cast<uint64_t>(
      static_cast<double>(deployment_->l) * options_.value_bytes);
  for (size_t q = 0; q < num_queries; ++q) {
    const std::vector<double>& x = xs[q];
    for (size_t d = 0; d < devices; ++d) {
      EdgeDeviceActor* device = devices_[d].get();
      network_.Send(kUserNode, DeviceNode(d), x_bytes,
                    [device, x]() { device->OnQueryDelivered(x); });
    }
  }
  queue_.RunUntilEmpty();

  // Phase 3 per query: decode, exactly m subtractions (§IV-B).
  StreamResult result;
  result.decoded.reserve(num_queries);
  result.completion_times.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<std::vector<double>> responses(devices);
    SimTime last_arrival = 0.0;
    for (size_t d = 0; d < devices; ++d) {
      SCEC_CHECK_EQ(inbox_[d].size(), num_queries)
          << "device " << d << " answered a different number of queries";
      last_arrival = std::max(last_arrival, inbox_[d][q].first);
      responses[d] = std::move(inbox_[d][q].second);
    }
    const std::vector<double> y =
        ConcatenateResponses(deployment_->plan.scheme, responses);
    result.decoded.push_back(
        SubtractionDecode(deployment_->code, std::span<const double>(y)));
    result.completion_times.push_back(last_arrival - start);
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimSpan("query", start, last_arrival - start,
                                          ProtocolTid(devices));
    }
  }
  result.makespan = queue_.now() - start;
  return result;
}

}  // namespace scec::sim
