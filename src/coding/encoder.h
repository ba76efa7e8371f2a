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

// Full encode: all device shares for a scheme. `a` is the m×l data matrix.
// With a pool, devices are encoded in parallel: each device's share is a
// pure function of (a, pads, scheme), so the result is bit-identical to the
// serial encode for every pool size.
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
    shares[device].coded_rows =
        Matrix<T>(scheme.row_counts[device], a.cols());
  }
  SCEC_CHECK_EQ(next_row, code.total_rows());
  auto encode_device = [&](size_t device) {
    DeviceShare<T>& share = shares[device];
    const size_t count = scheme.row_counts[device];
    for (size_t row = 0; row < count; ++row) {
      const CodedRowSpec spec = code.RowSpec(starts[device] + row);
      EncodeRowInto(a, pads, spec, share.coded_rows.Row(row));
    }
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
