// SPDX-License-Identifier: MIT
//
// Verification of the paper's two conditions for an LCEC:
//
//   Availability (Def. 1): B is full rank ⇒ the user can decode A·x.
//   Security (Def. 2, ITS): H(A | B_j·T) = H(A) for every device, which by
//   [Cai & Chan 2011] is equivalent to dim( L(B_j) ∩ L([E_m | 0]) ) = 0.
//
// Both are decided exactly. Every row of Eq. (8) — and every row a device
// accumulates across recovery rounds — is e_data + e_pad with either part
// possibly absent and both coefficients 1. For such rows the span facts
// hold over any field: with f(row) = e_data (0 for a pure pad row),
//
//   L(rows) ∩ L([E_m | 0]) = span{ f(u) − f(v) : u, v share a pad column }
//                          + span{ f(u) : u has no pad column },
//   rank(rows)             = dim(that intersection) + #distinct pad columns.
//
// So a union-find over the data columns plus one "ground" vertex (the zero
// vector) decides both in near-linear time: the intersection dimension is
// the number of unions that merge two components. The dense exact-rank
// elimination over GF(2^61−1) (VerifyEncodingMatrix) stays as the oracle
// the tests compare against, and for blocks that are not of this shape.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coding/encoding_matrix.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "field/gf_prime.h"
#include "linalg/matrix.h"

namespace scec {

struct DeviceSecurityReport {
  size_t device = 0;
  size_t rows = 0;                 // V(B_j)
  size_t rank = 0;                 // rank(B_j)
  size_t intersection_dim = 0;     // dim(L(B_j) ∩ L(λ̄)); 0 ⇔ ITS holds
  bool secure() const { return intersection_dim == 0; }
};

struct SchemeSecurityReport {
  bool available = false;          // B full rank
  bool all_secure = false;         // every device passes ITS
  size_t b_rank = 0;
  std::vector<DeviceSecurityReport> devices;

  bool Valid() const { return available && all_secure; }
  std::string Summary() const;
  // " [device j leaks dim=d]" for every insecure device; "" when all pass.
  std::string LeakSummary() const;
};

// One coefficient row of a device's view: e_{data_col} + e_{pad_col}, all
// coefficients 1. data_col < m indexes a row of A; pad_col only names a pad
// column (rows are compared by equality of pad_col alone). Either part may
// be kNoColumn.
inline constexpr size_t kNoColumn = SIZE_MAX;
struct ViewRow {
  size_t data_col = kNoColumn;
  size_t pad_col = kNoColumn;
};

// Exact Def. 2 for one view given as structured rows (see the lemma above);
// same fields as the dense exact-rank check, in O(m + rows) time.
DeviceSecurityReport VerifyViewRows(std::span<const ViewRow> rows, size_t m);

// Verifies the structured Eq. (8) code under the given scheme, from its
// RowSpec alone (no dense B): the global availability rank and the k
// per-device ITS checks.
SchemeSecurityReport VerifyStructuredScheme(const StructuredCode& code,
                                            const LcecScheme& scheme);

// Verifies an arbitrary encoding matrix `b` ((m+r)×(m+r) over GF(2^61−1))
// partitioned by `row_counts` (must sum to m+r). `m` identifies the data
// span [E_m | 0]. Dense exact-rank elimination, O((m+r)^3): the oracle for
// the structured checks and the check for randomized (collusion) codes. The
// k per-device rank checks and the availability rank are independent; with
// a pool they run in parallel and produce the identical report.
SchemeSecurityReport VerifyEncodingMatrix(
    const Matrix<Gf61>& b, size_t m, const std::vector<size_t>& row_counts,
    ThreadPool* pool = nullptr);

// Convenience: Status form for call sites that want to propagate failure.
Status CheckSchemeSecure(const StructuredCode& code, const LcecScheme& scheme);

// Def. 2 for one device's CUMULATIVE view: when recovery re-encoding ships a
// device additional coded rows (see net/driver.h), its
// knowledge is the stack of every coefficient row it ever held, expressed
// over the extended basis [A_1…A_m | pads of every encoding round]. ITS
// holds for the device iff that stacked span still meets the data span
// [E_m | 0] only at 0 — which is exactly why recovery must draw FRESH pads:
// reusing a pad column lets (old row − new row) cancel the pad and expose a
// difference of data rows. `block` is rows × width with width ≥ m. A block
// whose every row has at most one nonzero in [0, m), at most one in
// [m, width), and only One() entries takes the structured check; any other
// block takes dense exact-rank elimination.
DeviceSecurityReport VerifyCumulativeView(const Matrix<Gf61>& block, size_t m);

// Aggregate form over every device's cumulative block (same width for all).
// `available` is set to true unconditionally: availability is a per-round
// property of each encoding's B and is checked at (re-)encode time, not here.
SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<Matrix<Gf61>>& blocks, size_t m);

// The same aggregate over views given as structured rows; report index i is
// views[i] (an empty view is trivially secure).
SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<std::vector<ViewRow>>& views, size_t m);

}  // namespace scec
