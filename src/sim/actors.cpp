// SPDX-License-Identifier: MIT

#include "sim/actors.h"

#include <algorithm>
#include <utility>

#include "linalg/matrix_ops.h"
#include "sim/faults.h"

namespace scec::sim {

void ApplyByzantine(const std::vector<ByzantineSpec>& specs, uint64_t seed,
                    size_t device, uint64_t* draws, std::vector<size_t>* lies,
                    std::vector<double>* response) {
  if (response->empty()) return;
  // Configurable models (element / magnitude / probability / lie budget);
  // coins are deterministic per (seed, device, draw index).
  lies->resize(specs.size(), 0);
  for (size_t s = 0; s < specs.size(); ++s) {
    const ByzantineSpec& spec = specs[s];
    if (spec.device != device || (*lies)[s] >= spec.max_lies) continue;
    if (spec.probability < 1.0) {
      SplitMix64 mix(seed ^
                     (static_cast<uint64_t>(device) * 0x9E3779B97F4A7C15ull) ^
                     (++*draws * 0xBF58476D1CE4E5B9ull));
      const double coin = static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
      if (coin >= spec.probability) continue;
    }
    (*response)[spec.element % response->size()] += spec.magnitude;
    ++(*lies)[s];
  }
}

EdgeDeviceActor::EdgeDeviceActor(size_t index, const EdgeDevice& spec,
                                 EventQueue* queue, Network* network,
                                 const SimOptions* options,
                                 Xoshiro256StarStar* straggler_rng,
                                 ResponseSink respond)
    : index_(index),
      spec_(spec),
      queue_(queue),
      network_(network),
      options_(options),
      straggler_rng_(straggler_rng),
      respond_(std::move(respond)) {
  SCEC_CHECK(queue_ != nullptr);
  SCEC_CHECK(network_ != nullptr);
  SCEC_CHECK(options_ != nullptr);
  SCEC_CHECK(straggler_rng_ != nullptr);
  SCEC_CHECK(respond_ != nullptr);
}

void EdgeDeviceActor::OnShareDelivered(Matrix<double> share) {
  SCEC_CHECK(!has_share_) << "device " << index_ << " staged twice";
  share_ = std::move(share);
  has_share_ = true;
}

void EdgeDeviceActor::OnQueryDelivered(std::vector<double> x) {
  SCEC_CHECK(has_share_) << "query before staging on device " << index_;
  SCEC_CHECK_EQ(x.size(), share_.cols());

  // A crashed or transiently offline device never receives the query; a
  // caller with a deadline+retry loop can re-deliver after the outage.
  if (options_->faults != nullptr &&
      !options_->faults->AcceptsQueryAt(index_, queue_->now())) {
    return;
  }

  // Eq. (1) computation term: V_j·l multiplications, V_j·(l−1) additions.
  const uint64_t l = share_.cols();
  const uint64_t v = share_.rows();
  const double flops = static_cast<double>(v * l + v * (l - 1));
  const double nominal = flops / spec_.compute_rate_flops;
  const double duration = options_->straggler.Apply(nominal, *straggler_rng_);
  // Single-core device: this query starts after any in-flight one finishes.
  const SimTime start = std::max(queue_->now(), busy_until_);
  const SimTime done = start + duration;
  busy_until_ = done;
  const double wait = done - queue_->now();

  std::vector<double> response(share_.rows());
  MatVecInto(share_, std::span<const double>(x), std::span<double>(response));
  // A byzantine_nodes device silently corrupts its first value.
  for (size_t byzantine : options_->byzantine_nodes) {
    if (byzantine == index_ && !response.empty()) response[0] += 1.0;
  }
  ApplyByzantine(options_->byzantine, options_->byzantine_seed, index_,
                 &byzantine_draws_, &byzantine_lies_, &response);

  queue_->ScheduleAfter(wait, [this, response = std::move(response)]() mutable {
    // Fail-stop mid-compute, or an omission fault (the work above was done
    // and billed, the response is silently withheld).
    if (options_->faults != nullptr &&
        !options_->faults->SendsResponseAt(index_, queue_->now())) {
      return;
    }
    if (options_->faults != nullptr) {
      options_->faults->MaybeCorrupt(index_, queue_->now(), response);
    }
    const uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(response.size()) * options_->value_bytes);
    network_->Send(DeviceNode(index_), kUserNode, bytes,
                   [this, response]() { respond_(index_, response); });
  });
}

}  // namespace scec::sim
