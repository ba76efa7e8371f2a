// SPDX-License-Identifier: MIT

#include "net/device_core.h"

#include "linalg/matrix_ops.h"

namespace scec::net {

std::span<double> DeviceCore::Stage(uint64_t share_id, size_t rows,
                                    size_t cols) {
  Matrix<double>& share = shares_[share_id];
  share.Resize(rows, cols);
  ops_.staged_values += share.size();
  return share.Data();
}

DeviceCore::Arrival DeviceCore::Compute(uint64_t share_id,
                                        std::span<const double> x, double now,
                                        std::vector<double>* values) {
  const auto it = shares_.find(share_id);
  if (it == shares_.end()) return Arrival::kUnknownShare;
  const Matrix<double>& share = it->second;
  if (x.size() != share.cols()) return Arrival::kWrongLength;
  if (faults_ != nullptr && !faults_->AcceptsQueryAt(device_, now)) {
    return Arrival::kMissed;
  }
  // Eq. (1) compute term: V_j·l mults + V_j·(l−1) adds.
  ops_.mults += share.rows() * share.cols();
  ops_.adds += share.rows() * (share.cols() - 1);
  values->resize(share.rows());
  MatVecInto(share, x, std::span<double>(*values));
  return Arrival::kComputed;
}

bool DeviceCore::Release(double now, std::vector<double>* values) {
  if (faults_ != nullptr) {
    if (!faults_->SendsResponseAt(device_, now)) return false;
    faults_->MaybeCorrupt(device_, now, *values);
  }
  ops_.values_returned += values->size();
  return true;
}

}  // namespace scec::net
