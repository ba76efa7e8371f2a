// SPDX-License-Identifier: MIT
//
// Freivalds-style probabilistic verification of device responses.
//
// Problem: the user receives y_j claimed to equal S_j·x where S_j = B_j·T is
// device j's coded share — but the user never sees S_j (it contains the
// pads). A Byzantine device can therefore return garbage that decodes into a
// silently wrong A·x.
//
// Fix (classic Freivalds, adapted to the SCEC trust model): at staging time
// the *cloud* — which knows S_j — draws one secret weight w per coded row
// and ships the user, per device, the l-vector digest
//
//     u_j = w_jᵀ · S_j .
//
// On a response y_j the user checks  w_jᵀ · y_j == u_j · x  in O(V_j + l).
// If y_j = S_j·x the check always passes. If y_j ≠ S_j·x, the error
// e = y_j − S_j·x is nonzero and w was drawn independently of e, so over
// GF(q) the check passes with probability exactly 1/q (the hyperplane
// wᵀe = 0 has q^{V_j−1} of q^{V_j} points) — with q = 2^61 − 1 that is
// ≈ 4.3·10⁻¹⁹ per response. Over doubles the same identity is tested with a
// relative tolerance; a perturbation far above the accumulation noise is
// caught with probability 1 up to measure-zero weight draws.
//
// Small fields need REPETITION: over GF(256) a single digest false-accepts
// with probability 1/256 — material under sustained Byzantine load. The
// `num_digests` knob draws d independent weight vectors per device (d
// digests shipped, d probes checked), driving the false-accept rate to
// q^−d: GF(256) at d = 2 is ≈ 1.5·10⁻⁵, at d = 4 ≈ 2.3·10⁻¹⁰. Cost scales
// linearly (d·l digest values shipped, O(d·(V_j + l)) per check).
//
// Security: w and u_j live at the trusted user and are never shown to
// devices, so Def. 2 ITS for the devices is untouched. (u_j itself is one
// extra padded linear combination of T's rows; handing it to the *user* is
// fine — the user is the party the result A·x is for.)
//
// Used by the fault-tolerant simulator protocol and by the plain in-process
// pipeline (core/pipeline.h, QueryVerified).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "coding/encoder.h"
#include "common/rng.h"
#include "field/field_traits.h"

namespace scec {

template <typename T>
class ResultVerifier {
 public:
  ResultVerifier() = default;

  // Cloud-side construction: `num_digests` independent secret weights per
  // coded row, digests precomputed against the actual shares. `rng` must be
  // the cryptographically strong generator — predictable weights let a
  // Byzantine device craft an undetectable corruption (a response error e
  // with wᵀe = 0 passes every probe; see tests/test_result_verify.cpp).
  static ResultVerifier Create(const std::vector<DeviceShare<T>>& shares,
                               ChaCha20Rng& rng, size_t num_digests = 1);

  // Create in two phases, for a caller that holds one share at a time.
  // DrawWeights draws every device's weights for shares of `row_counts`
  // rows, in Create's order (device, then probe, then row), so it leaves
  // `rng` where Create does. SetDigests then computes one device's digests
  // from its share; once every device has them the verifier equals
  // Create's.
  static ResultVerifier DrawWeights(std::span<const size_t> row_counts,
                                    ChaCha20Rng& rng, size_t num_digests = 1);
  void SetDigests(size_t device, const Matrix<T>& share);

  size_t num_devices() const { return entries_.size(); }
  size_t num_digests() const { return num_digests_; }

  // Number of scalar values the cloud ships to the user (the digests; the
  // weights stay wherever the check runs).
  size_t DigestValues() const;

  // User-side check of one response in O(d·(V_j + l)). `x` is the query,
  // `response` the claimed S_j·x. All d probes must agree.
  bool Check(size_t device, std::span<const T> x,
             std::span<const T> response) const;

  // Same weights and digests.
  bool operator==(const ResultVerifier&) const = default;

 private:
  struct Probe {
    std::vector<T> weights;  // w_j, one per coded row of device j (secret)
    std::vector<T> digest;   // u_j = w_jᵀ·S_j, length l
    bool operator==(const Probe&) const = default;
  };
  struct Entry {
    std::vector<Probe> probes;  // num_digests_ independent probes
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries_;
  size_t num_digests_ = 1;
};

}  // namespace scec
