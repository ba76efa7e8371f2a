// SPDX-License-Identifier: MIT

#include "core/segment.h"

#include <numeric>
#include <utility>

#include "common/check.h"
#include "core/problem.h"

namespace scec {

CodedSegment::CodedSegment(std::vector<size_t> data_rows, StructuredCode code,
                           LcecScheme scheme, std::vector<size_t> devices)
    : data_rows_(std::move(data_rows)),
      code_(code),
      scheme_(std::move(scheme)),
      devices_(std::move(devices)) {
  scheme_.Validate();
  SCEC_CHECK_EQ(data_rows_.size(), code_.m());
  SCEC_CHECK_EQ(scheme_.m, code_.m());
  SCEC_CHECK_EQ(scheme_.r, code_.r());
  SCEC_CHECK_EQ(devices_.size(), scheme_.num_devices());

  // Slot and offset of every coded row of B, in row order.
  std::vector<std::pair<size_t, size_t>> holder;
  holder.reserve(code_.total_rows());
  for (size_t slot = 0; slot < num_slots(); ++slot) {
    for (size_t offset = 0; offset < scheme_.row_counts[slot]; ++offset) {
      holder.emplace_back(slot, offset);
    }
  }
  const size_t r = code_.r();
  paths_.reserve(code_.m());
  for (size_t p = 0; p < code_.m(); ++p) {
    const auto [pad_slot, pad_offset] = holder[p % r];
    const auto [mixed_slot, mixed_offset] = holder[r + p];
    paths_.push_back(RowPath{pad_slot, pad_offset, mixed_slot, mixed_offset});
  }
}

std::vector<size_t> AllRows(size_t m) {
  std::vector<size_t> rows(m);
  std::iota(rows.begin(), rows.end(), size_t{0});
  return rows;
}

Result<CodedSegment> PlanSegment(std::vector<size_t> data_rows, size_t l,
                                 const DeviceFleet& fleet,
                                 const std::function<bool(size_t)>& usable,
                                 TaAlgorithm algorithm, double* plan_cost) {
  McscecProblem problem;
  problem.m = data_rows.size();
  problem.l = l;
  std::vector<size_t> candidates;  // survivor index -> fleet device
  for (size_t d = 0; d < fleet.size(); ++d) {
    if (!usable(d)) continue;
    candidates.push_back(d);
    problem.fleet.Add(fleet[d]);
  }
  if (candidates.size() < 2) {
    return Infeasible("fewer than 2 devices survive; MCSCEC requires k >= 2");
  }
  Result<Plan> planned = PlanMcscec(problem, algorithm);
  SCEC_RETURN_IF_ERROR(planned.status());
  const Plan& plan = planned.value();

  StructuredCode code(problem.m, plan.allocation.r);
  SCEC_RETURN_IF_ERROR(CheckSchemeSecure(code, plan.scheme));
  std::vector<size_t> devices = plan.participating;
  for (size_t& device : devices) device = candidates[device];
  if (plan_cost != nullptr) *plan_cost = plan.allocation.total_cost;
  return CodedSegment(std::move(data_rows), code, plan.scheme,
                      std::move(devices));
}

CodedSegment PairSegment(std::vector<size_t> rows, size_t pad_device,
                         size_t mixed_device) {
  SCEC_CHECK_NE(pad_device, mixed_device);
  const size_t s = rows.size();
  StructuredCode code(s, s);
  LcecScheme scheme = SchemeFromRowCounts(s, s, {s, s});
  const Status secure = CheckSchemeSecure(code, scheme);
  SCEC_CHECK(secure.ok()) << secure.message();
  return CodedSegment(std::move(rows), code, std::move(scheme),
                      {pad_device, mixed_device});
}

void CumulativeViews::AddStaged(const CodedSegment& seg, size_t staged_slots) {
  SCEC_CHECK_LE(staged_slots, seg.num_slots());
  const StructuredCode& code = seg.code();
  size_t row = 0;
  for (size_t slot = 0; slot < staged_slots; ++slot) {
    const size_t device = seg.devices()[slot];
    SCEC_CHECK_LT(device, views_.size());
    for (size_t k = 0; k < seg.scheme().row_counts[slot]; ++k, ++row) {
      const CodedRowSpec spec = code.RowSpec(row);
      ViewRow view;
      if (spec.data_row.has_value()) {
        view.data_col = seg.data_rows()[*spec.data_row];
      }
      view.pad_col = pad_cols_ + spec.random_row;
      views_[device].push_back(view);
    }
  }
  pad_cols_ += code.r();
}

recovery::JournalSegmentRecord SegmentRecord(const CodedSegment& seg,
                                             size_t index) {
  return {index, seg.code().m(), seg.code().r(), seg.scheme().row_counts,
          seg.devices(), seg.data_rows()};
}

CodedSegment SegmentFromRecord(const recovery::JournalSegmentRecord& record) {
  return CodedSegment(record.data_rows, StructuredCode(record.m, record.r),
                      LcecScheme{record.m, record.r, record.row_counts},
                      record.phys);
}

}  // namespace scec
