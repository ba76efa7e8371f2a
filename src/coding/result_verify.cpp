// SPDX-License-Identifier: MIT

#include "coding/result_verify.h"

#include <cmath>

#include "field/gf_prime.h"
#include "linalg/matrix_ops.h"

namespace scec {
namespace {

// Exact fields compare exactly; doubles need a tolerance scaled by the
// magnitude of the accumulated terms (the honest identity holds to a few
// ulps, injected corruptions sit many orders of magnitude above it).
template <typename T>
bool ProbesAgree(T lhs, T rhs, double magnitude) {
  if constexpr (FieldTraits<T>::is_exact) {
    (void)magnitude;
    return lhs == rhs;
  } else {
    const double scale = magnitude < 1.0 ? 1.0 : magnitude;
    return std::fabs(static_cast<double>(lhs - rhs)) <= 1e-9 * scale;
  }
}

template <typename T>
double MagnitudeOf(T value) {
  if constexpr (FieldTraits<T>::is_exact) {
    (void)value;
    return 0.0;
  } else {
    return std::fabs(static_cast<double>(value));
  }
}

}  // namespace

template <typename T>
ResultVerifier<T> ResultVerifier<T>::Create(
    const std::vector<DeviceShare<T>>& shares, ChaCha20Rng& rng,
    size_t num_digests) {
  std::vector<size_t> row_counts;
  row_counts.reserve(shares.size());
  for (const DeviceShare<T>& share : shares) {
    row_counts.push_back(share.coded_rows.rows());
  }
  ResultVerifier verifier = DrawWeights(row_counts, rng, num_digests);
  for (size_t device = 0; device < shares.size(); ++device) {
    verifier.SetDigests(device, shares[device].coded_rows);
  }
  return verifier;
}

template <typename T>
ResultVerifier<T> ResultVerifier<T>::DrawWeights(
    std::span<const size_t> row_counts, ChaCha20Rng& rng,
    size_t num_digests) {
  SCEC_CHECK_GE(num_digests, 1u);
  ResultVerifier verifier;
  verifier.num_digests_ = num_digests;
  verifier.entries_.resize(row_counts.size());
  // Draw order (per device, then per probe, then per row) keeps d = 1
  // bit-identical to the historical single-digest construction for any
  // given rng state.
  for (size_t device = 0; device < row_counts.size(); ++device) {
    std::vector<Probe>& probes = verifier.entries_[device].probes;
    probes.resize(num_digests);
    for (Probe& probe : probes) {
      probe.weights.reserve(row_counts[device]);
      for (size_t row = 0; row < row_counts[device]; ++row) {
        probe.weights.push_back(FieldTraits<T>::Random(rng));
      }
    }
  }
  return verifier;
}

template <typename T>
void ResultVerifier<T>::SetDigests(size_t device, const Matrix<T>& share) {
  SCEC_CHECK_LT(device, entries_.size());
  for (Probe& probe : entries_[device].probes) {
    SCEC_CHECK_EQ(share.rows(), probe.weights.size());
    // u = wᵀ·S — one pass over the share, done once at staging time.
    probe.digest.assign(share.cols(), FieldTraits<T>::Zero());
    for (size_t row = 0; row < share.rows(); ++row) {
      const T w = probe.weights[row];
      auto coded = share.Row(row);
      for (size_t col = 0; col < share.cols(); ++col) {
        probe.digest[col] += w * coded[col];
      }
    }
  }
}

template <typename T>
size_t ResultVerifier<T>::DigestValues() const {
  size_t total = 0;
  for (const Entry& entry : entries_) {
    for (const Probe& probe : entry.probes) total += probe.digest.size();
  }
  return total;
}

template <typename T>
bool ResultVerifier<T>::Check(size_t device, std::span<const T> x,
                              std::span<const T> response) const {
  SCEC_CHECK_LT(device, entries_.size());
  const Entry& entry = entries_[device];
  for (const Probe& probe : entry.probes) {
    if (response.size() != probe.weights.size()) return false;
    SCEC_CHECK_EQ(x.size(), probe.digest.size());

    if constexpr (FieldTraits<T>::is_exact) {
      // Hot path: the delayed-reduction dot product (field/accumulator.h) —
      // exact fields need no magnitude tracking.
      const T lhs = Dot(std::span<const T>(probe.weights), response);
      const T rhs = Dot(std::span<const T>(probe.digest), x);
      if (!ProbesAgree(lhs, rhs, 0.0)) return false;
    } else {
      T lhs = FieldTraits<T>::Zero();
      T rhs = FieldTraits<T>::Zero();
      double magnitude = 0.0;
      for (size_t row = 0; row < response.size(); ++row) {
        const T term = probe.weights[row] * response[row];
        lhs += term;
        magnitude += MagnitudeOf(term);
      }
      for (size_t col = 0; col < x.size(); ++col) {
        const T term = probe.digest[col] * x[col];
        rhs += term;
        magnitude += MagnitudeOf(term);
      }
      if (!ProbesAgree(lhs, rhs, magnitude)) return false;
    }
  }
  return true;
}

template class ResultVerifier<double>;
template class ResultVerifier<Gf61>;
template class ResultVerifier<Gf256>;

}  // namespace scec
