// SPDX-License-Identifier: MIT
//
// A coded segment: one encoding round of the runtime protocols. It encodes
// a subset of A's rows with its own structured Eq. (8) code and FRESH pads
// onto fleet devices, one per scheme slot: round 0 covers all m rows, a
// recovery round the rows evicted devices took with them, and a Byzantine
// guard or straggler hedge is a two-slot pair (pad block, mixed block).
// The protocol driver (net::NetCoordinator) plans, encodes, decodes and
// audits every round through this module. Data row p decodes as
// A_p·x = y[r+p] − y[p mod r], each coded row's (slot, offset) resolved
// once at construction. CumulativeViews stacks every row a device ever
// received over [A | pads of every round] and decides Def. 2 on the stack:
// a reused pad would let (old row − new row) cancel it and expose a
// difference of data rows, so pad streams are never rewound.

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "allocation/device.h"
#include "coding/encoder.h"
#include "coding/encoding_matrix.h"
#include "coding/lcec.h"
#include "coding/security_check.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/planner.h"
#include "linalg/matrix.h"
#include "recovery/journal.h"

namespace scec {

// Where data position p of a segment decodes from: the pad row y[p mod r]
// and the mixed row y[r+p], each as (slot, offset within that slot's
// response).
struct RowPath {
  size_t pad_slot = 0;
  size_t pad_offset = 0;
  size_t mixed_slot = 0;
  size_t mixed_offset = 0;

  bool Uses(size_t slot) const {
    return pad_slot == slot || mixed_slot == slot;
  }
};

class CodedSegment {
 public:
  // `data_rows[p]` is the row of A at data position p (size code.m());
  // `devices[j]` the fleet device holding scheme slot j.
  CodedSegment(std::vector<size_t> data_rows, StructuredCode code,
               LcecScheme scheme, std::vector<size_t> devices);

  const std::vector<size_t>& data_rows() const { return data_rows_; }
  const StructuredCode& code() const { return code_; }
  const LcecScheme& scheme() const { return scheme_; }
  const std::vector<size_t>& devices() const { return devices_; }
  size_t num_slots() const { return devices_.size(); }
  // Decode path per data position, parallel to data_rows().
  const std::vector<RowPath>& paths() const { return paths_; }

 private:
  std::vector<size_t> data_rows_;
  StructuredCode code_;
  LcecScheme scheme_;
  std::vector<size_t> devices_;
  std::vector<RowPath> paths_;
};

// 0, 1, …, m−1: the data rows of a segment covering all of A.
std::vector<size_t> AllRows(size_t m);

// Plans `data_rows` with `algorithm` over the fleet devices for which
// `usable` holds, checks availability and Def. 2 of the result, and maps
// each slot to its fleet device. kInfeasible when fewer than 2 devices are
// usable; otherwise the planner's or the check's status on failure.
// `plan_cost`, when given, receives the allocation's Eq. (1) total.
Result<CodedSegment> PlanSegment(std::vector<size_t> data_rows, size_t l,
                                 const DeviceFleet& fleet,
                                 const std::function<bool(size_t)>& usable,
                                 TaAlgorithm algorithm,
                                 double* plan_cost = nullptr);

// The minimal ITS-secure segment: s = |rows| fresh pads, the pad block on
// `pad_device`, the mixed block on `mixed_device` (Lemma 1: V = s <= r = s).
// The two devices must differ, or one device could subtract the pads away.
CodedSegment PairSegment(std::vector<size_t> rows, size_t pad_device,
                         size_t mixed_device);

// Encodes slot `slot` of `seg` into `out`, resized to the slot's rows × l:
// the share EncodeSegment gives that slot when `pads` are the pads it drew.
// A's rows are read in place, so a subset of A needs no gathered copy.
template <typename T>
void EncodeSlotInto(const CodedSegment& seg, const Matrix<T>& a,
                    const Matrix<T>& pads, size_t slot, Matrix<T>* out) {
  out->Resize(seg.scheme().row_counts[slot], a.cols());
  EncodeShareInto(seg.code(), seg.scheme().BlockStart(slot), a,
                  std::span<const size_t>(seg.data_rows()), pads, *out);
}

// Encodes the segment's rows of `a`, one share per slot (pads drawn from
// `rng`).
template <typename T>
EncodedDeployment<T> EncodeSegment(const CodedSegment& seg,
                                   const Matrix<T>& a, ChaCha20Rng& rng) {
  EncodedDeployment<T> out;
  out.pads = GeneratePadRows<T>(seg.code().r(), a.cols(), rng);
  out.shares.resize(seg.num_slots());
  for (size_t slot = 0; slot < seg.num_slots(); ++slot) {
    out.shares[slot].device = slot;
    EncodeSlotInto(seg, a, out.pads, slot, &out.shares[slot].coded_rows);
  }
  return out;
}

// One query's verified answer per slot (nullopt: the slot did not answer).
template <typename T>
using SlotResponses = std::vector<std::optional<std::vector<T>>>;

// A_p·x for data position p, or nullopt when the pad or the mixed slot did
// not answer.
template <typename T>
std::optional<T> DecodeRow(const CodedSegment& seg, size_t p,
                           const SlotResponses<T>& responses) {
  const RowPath& path = seg.paths()[p];
  const auto& mixed = responses[path.mixed_slot];
  const auto& pad = responses[path.pad_slot];
  if (!mixed.has_value() || !pad.has_value()) return std::nullopt;
  return (*mixed)[path.mixed_offset] - (*pad)[path.pad_offset];
}

// Decodes every row of `seg` that `decoded` (indexed by row of A) still
// lacks and `responses` yields. Returns the number of rows decoded.
template <typename T>
size_t DecodeSegment(const CodedSegment& seg,
                     const SlotResponses<T>& responses,
                     std::vector<std::optional<T>>* decoded) {
  size_t count = 0;
  for (size_t p = 0; p < seg.data_rows().size(); ++p) {
    std::optional<T>& out = (*decoded)[seg.data_rows()[p]];
    if (out.has_value()) continue;
    out = DecodeRow(seg, p, responses);
    if (out.has_value()) ++count;
  }
  return count;
}

// Rows of A not decoded yet, ascending.
template <typename T>
std::vector<size_t> MissingRows(const std::vector<std::optional<T>>& decoded) {
  std::vector<size_t> missing;
  for (size_t row = 0; row < decoded.size(); ++row) {
    if (!decoded[row].has_value()) missing.push_back(row);
  }
  return missing;
}

// Every coefficient row each fleet device ever received, over the extended
// basis [A_1..A_m | pad columns of every segment, in Add order].
class CumulativeViews {
 public:
  CumulativeViews() = default;
  CumulativeViews(size_t num_devices, size_t m)
      : m_(m), views_(num_devices) {}

  void Add(const CodedSegment& seg) { AddStaged(seg, seg.num_slots()); }
  // Records the rows of slots [0, staged_slots) — the shares that reached
  // their devices — and spends all of the segment's pad columns.
  void AddStaged(const CodedSegment& seg, size_t staged_slots);

  // Exact Def. 2 per device; report index = fleet device.
  SchemeSecurityReport Verify() const {
    return VerifyCumulativeViews(views_, m_);
  }

  const std::vector<ViewRow>& view(size_t device) const {
    return views_[device];
  }
  size_t pad_columns() const { return pad_cols_; }

 private:
  size_t m_ = 0;
  std::vector<std::vector<ViewRow>> views_;
  size_t pad_cols_ = 0;
};

// Journal form of a segment's shape (never its pads): a restarted
// coordinator rebuilds the segment from it to re-add its views.
recovery::JournalSegmentRecord SegmentRecord(const CodedSegment& seg,
                                             size_t index);
CodedSegment SegmentFromRecord(const recovery::JournalSegmentRecord& record);

}  // namespace scec
