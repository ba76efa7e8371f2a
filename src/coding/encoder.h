// SPDX-License-Identifier: MIT
//
// Cloud-side encoder: generates the r random rows and produces each device's
// coded matrix B_j·T without materialising B (structural encoding: every
// coded row is either R_q or A_p + R_{p mod r}, so the whole encode is
// O((m+r)·l) additions).
//
// Randomness: the pads default to ChaCha20 (see rng.h) — ITS requires
// uniform, unpredictable pad rows.

#pragma once

#include <span>
#include <vector>

#include "coding/encoding_matrix.h"
#include "coding/lcec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "field/field_traits.h"
#include "linalg/matrix.h"

namespace scec {

// The coded payload shipped to one device.
template <typename T>
struct DeviceShare {
  size_t device = 0;        // index within the scheme (0-based)
  Matrix<T> coded_rows;     // B_j · T, V(B_j) × l
};

// Generates r uniformly random pad rows of width l: row-major, each element
// FieldTraits<T>::Random(rng) in turn, with the keystream drawn in bulk.
template <typename T>
Matrix<T> GeneratePadRows(size_t r, size_t l, ChaCha20Rng& rng) {
  Matrix<T> pads(r, l);
  FieldTraits<T>::FillRandom(rng, pads.Data());
  return pads;
}

// Encodes one coded row given the spec (A_p + R_q or R_q) into a
// caller-owned buffer (allocation-free form).
template <typename T>
void EncodeRowInto(const Matrix<T>& a, const Matrix<T>& pads,
                   const CodedRowSpec& spec, std::span<T> row) {
  const size_t l = a.cols();
  SCEC_CHECK_EQ(pads.cols(), l);
  SCEC_CHECK_EQ(row.size(), l);
  auto pad = pads.Row(spec.random_row);
  if (spec.data_row.has_value()) {
    auto data = a.Row(*spec.data_row);
    for (size_t col = 0; col < l; ++col) row[col] = data[col] + pad[col];
  } else {
    for (size_t col = 0; col < l; ++col) row[col] = pad[col];
  }
}

// Encodes one coded row given the spec (A_p + R_q or R_q).
template <typename T>
std::vector<T> EncodeRow(const Matrix<T>& a, const Matrix<T>& pads,
                         const CodedRowSpec& spec) {
  std::vector<T> row(a.cols());
  EncodeRowInto(a, pads, spec, std::span<T>(row));
  return row;
}

// Encodes the out.rows() coded rows of B from global row `first_row` on
// into `out` (a device's share B_j·T when `first_row` is its first row).
// `data_rows`, when not empty, maps each data position of the code to the
// row of `a` that holds it, so a subset of A encodes without a gathered
// copy; empty means position p is row p.
template <typename T>
void EncodeShareInto(const StructuredCode& code, size_t first_row,
                     const Matrix<T>& a, std::span<const size_t> data_rows,
                     const Matrix<T>& pads, Matrix<T>& out) {
  for (size_t row = 0; row < out.rows(); ++row) {
    CodedRowSpec spec = code.RowSpec(first_row + row);
    if (spec.data_row.has_value() && !data_rows.empty()) {
      spec.data_row = data_rows[*spec.data_row];
    }
    EncodeRowInto(a, pads, spec, out.Row(row));
  }
}

// Full encode: all device shares for a scheme. `a` is the m×l data matrix.
// With a pool, devices are encoded in parallel: each device's share is a
// pure function of (a, pads, scheme), so the result is bit-identical to the
// serial encode for every pool size. Each share is allocated by the thread
// that encodes it, so its first-touch page faults run in parallel too.
template <typename T>
std::vector<DeviceShare<T>> EncodeShares(const StructuredCode& code,
                                         const LcecScheme& scheme,
                                         const Matrix<T>& a,
                                         const Matrix<T>& pads,
                                         ThreadPool* pool = nullptr) {
  code.CheckScheme(scheme);
  SCEC_CHECK_EQ(a.rows(), code.m());
  SCEC_CHECK_EQ(pads.rows(), code.r());
  SCEC_CHECK_EQ(pads.cols(), a.cols());
  const size_t num_devices = scheme.num_devices();
  std::vector<DeviceShare<T>> shares(num_devices);
  // Device row offsets into B's global row numbering.
  std::vector<size_t> starts(num_devices);
  size_t next_row = 0;
  for (size_t device = 0; device < num_devices; ++device) {
    starts[device] = next_row;
    next_row += scheme.row_counts[device];
    shares[device].device = device;
  }
  SCEC_CHECK_EQ(next_row, code.total_rows());
  auto encode_device = [&](size_t device) {
    Matrix<T>& out = shares[device].coded_rows;
    out = Matrix<T>(scheme.row_counts[device], a.cols());
    EncodeShareInto(code, starts[device], a, {}, pads, out);
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_devices > 1) {
    pool->ParallelFor(0, num_devices, encode_device);
  } else {
    for (size_t device = 0; device < num_devices; ++device) {
      encode_device(device);
    }
  }
  return shares;
}

// Convenience: encode with freshly generated pads.
template <typename T>
struct EncodedDeployment {
  Matrix<T> pads;                        // R (r × l) — stays at the cloud
  std::vector<DeviceShare<T>> shares;    // one per participating device
};

// Pad generation stays serial (one RNG stream, reproducibility); only the
// pure per-device encoding fans out across the pool.
template <typename T>
EncodedDeployment<T> EncodeDeployment(const StructuredCode& code,
                                      const LcecScheme& scheme,
                                      const Matrix<T>& a, ChaCha20Rng& rng,
                                      ThreadPool* pool = nullptr) {
  EncodedDeployment<T> out;
  out.pads = GeneratePadRows<T>(code.r(), a.cols(), rng);
  out.shares = EncodeShares(code, scheme, a, out.pads, pool);
  return out;
}

}  // namespace scec
