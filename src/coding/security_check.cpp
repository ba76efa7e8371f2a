// SPDX-License-Identifier: MIT

#include "coding/security_check.h"

#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "linalg/elimination.h"
#include "obs/trace.h"

namespace scec {
namespace {

// Union-find over the data columns [0, m) plus the ground vertex m, which
// stands for the zero vector f(pure pad row).
class DataColumnForest {
 public:
  explicit DataColumnForest(size_t m) : parent_(m + 1) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }

  // True iff a and b were in different components (the union adds one
  // dimension to the span of edge vectors e_a − e_b).
  bool Unite(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  size_t Find(size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  std::vector<size_t> parent_;
};

// Eq. (8)'s rows in the structured form; pad q is column m + q, as in DenseB.
std::vector<ViewRow> StructuredRows(const StructuredCode& code) {
  std::vector<ViewRow> rows(code.total_rows());
  for (size_t index = 0; index < rows.size(); ++index) {
    const CodedRowSpec spec = code.RowSpec(index);
    if (spec.data_row.has_value()) rows[index].data_col = *spec.data_row;
    rows[index].pad_col = code.m() + spec.random_row;
  }
  return rows;
}

// The structured form of a dense block, or nullopt when some row has two
// data entries, two pad entries, or an entry other than One().
std::optional<std::vector<ViewRow>> AsViewRows(const Matrix<Gf61>& block,
                                               size_t m) {
  std::vector<ViewRow> rows(block.rows());
  for (size_t row = 0; row < block.rows(); ++row) {
    const std::span<const Gf61> entries = block.Row(row);
    for (size_t col = 0; col < entries.size(); ++col) {
      const Gf61 entry = entries[col];
      if (entry == Gf61::Zero()) continue;
      if (entry != Gf61::One()) return std::nullopt;
      size_t& slot = col < m ? rows[row].data_col : rows[row].pad_col;
      if (slot != kNoColumn) return std::nullopt;
      slot = col;
    }
  }
  return rows;
}

SchemeSecurityReport CumulativeReport(std::vector<DeviceSecurityReport> devs) {
  SchemeSecurityReport report;
  report.available = true;  // per-round property, see header
  report.all_secure = true;
  for (size_t device = 0; device < devs.size(); ++device) {
    devs[device].device = device;
    if (!devs[device].secure()) report.all_secure = false;
  }
  report.devices = std::move(devs);
  return report;
}

}  // namespace

std::string SchemeSecurityReport::Summary() const {
  std::ostringstream os;
  os << "availability=" << (available ? "OK" : "FAIL") << " (rank(B)="
     << b_rank << "), security=" << (all_secure ? "OK" : "FAIL")
     << LeakSummary();
  return os.str();
}

std::string SchemeSecurityReport::LeakSummary() const {
  std::ostringstream os;
  for (const DeviceSecurityReport& d : devices) {
    if (!d.secure()) {
      os << " [device " << d.device << " leaks dim=" << d.intersection_dim
         << "]";
    }
  }
  return os.str();
}

SchemeSecurityReport VerifyEncodingMatrix(
    const Matrix<Gf61>& b, size_t m, const std::vector<size_t>& row_counts,
    ThreadPool* pool) {
  SCEC_CHECK_EQ(b.rows(), b.cols());
  size_t total = 0;
  for (size_t count : row_counts) total += count;
  SCEC_CHECK_EQ(total, b.rows());
  SCEC_CHECK_LE(m, b.cols());
  const size_t n = b.rows();
  const size_t num_devices = row_counts.size();

  SchemeSecurityReport report;
  report.devices.resize(num_devices);

  // Data span basis λ̄ = [E_m | O].
  Matrix<Gf61> lambda(m, n);
  for (size_t row = 0; row < m; ++row) lambda(row, row) = Gf61::One();

  std::vector<size_t> starts(num_devices);
  size_t start = 0;
  for (size_t device = 0; device < num_devices; ++device) {
    starts[device] = start;
    start += row_counts[device];
  }

  // Task 0 is the global availability rank; tasks 1..k the per-device ITS
  // checks. All are independent exact-rank computations writing disjoint
  // slots, so the report is identical for every pool size.
  auto run_check = [&](size_t task) {
    obs::SpanGuard span(
        [&] {
          return task == 0 ? std::string("its_check/availability_rank")
                           : "its_check/device " + std::to_string(task - 1);
        },
        "security");
    if (task == 0) {
      report.b_rank = RankOf(b);
      return;
    }
    const size_t device = task - 1;
    const size_t count = row_counts[device];
    const Matrix<Gf61> block = b.RowSlice(starts[device], count);
    DeviceSecurityReport& dev = report.devices[device];
    dev.device = device;
    dev.rows = count;
    dev.rank = RankOf(block);
    dev.intersection_dim = SpanIntersectionDim(block, lambda);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(0, num_devices + 1, run_check, /*grain=*/1);
  } else {
    for (size_t task = 0; task <= num_devices; ++task) run_check(task);
  }

  report.available = report.b_rank == n;
  report.all_secure = true;
  for (const DeviceSecurityReport& dev : report.devices) {
    if (!dev.secure()) report.all_secure = false;
  }
  return report;
}

DeviceSecurityReport VerifyViewRows(std::span<const ViewRow> rows, size_t m) {
  DeviceSecurityReport report;
  report.rows = rows.size();
  if (rows.empty()) return report;
  const size_t ground = m;
  DataColumnForest forest(m);
  // First row seen per pad column: every later row sharing that pad adds
  // the edge f(anchor) − f(row).
  std::unordered_map<size_t, size_t> pad_anchor;
  pad_anchor.reserve(rows.size());
  for (const ViewRow& row : rows) {
    size_t vertex = ground;
    if (row.data_col != kNoColumn) {
      SCEC_CHECK_LT(row.data_col, m);
      vertex = row.data_col;
    }
    if (row.pad_col == kNoColumn) {
      if (forest.Unite(vertex, ground)) ++report.intersection_dim;
      continue;
    }
    const auto [anchor, first] = pad_anchor.emplace(row.pad_col, vertex);
    if (!first && forest.Unite(anchor->second, vertex)) {
      ++report.intersection_dim;
    }
  }
  report.rank = report.intersection_dim + pad_anchor.size();
  return report;
}

SchemeSecurityReport VerifyStructuredScheme(const StructuredCode& code,
                                            const LcecScheme& scheme) {
  code.CheckScheme(scheme);
  const std::vector<ViewRow> rows = StructuredRows(code);
  const std::span<const ViewRow> all(rows);
  const size_t num_devices = scheme.num_devices();

  SchemeSecurityReport report;
  {
    obs::SpanGuard span("its_check/availability_rank", "security");
    report.b_rank = VerifyViewRows(all, code.m()).rank;
  }
  report.devices.resize(num_devices);
  size_t start = 0;
  for (size_t device = 0; device < num_devices; ++device) {
    obs::SpanGuard span(
        [&] { return "its_check/device " + std::to_string(device); },
        "security");
    const size_t count = scheme.row_counts[device];
    DeviceSecurityReport& dev = report.devices[device];
    dev = VerifyViewRows(all.subspan(start, count), code.m());
    dev.device = device;
    start += count;
  }

  report.available = report.b_rank == code.total_rows();
  report.all_secure = true;
  for (const DeviceSecurityReport& dev : report.devices) {
    if (!dev.secure()) report.all_secure = false;
  }
  return report;
}

DeviceSecurityReport VerifyCumulativeView(const Matrix<Gf61>& block,
                                          size_t m) {
  SCEC_CHECK_LE(m, block.cols());
  if (const auto rows = AsViewRows(block, m)) return VerifyViewRows(*rows, m);

  Matrix<Gf61> lambda(m, block.cols());
  for (size_t row = 0; row < m; ++row) lambda(row, row) = Gf61::One();
  DeviceSecurityReport report;
  report.rows = block.rows();
  report.rank = RankOf(block);
  report.intersection_dim = SpanIntersectionDim(block, lambda);
  return report;
}

SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<Matrix<Gf61>>& blocks, size_t m) {
  std::vector<DeviceSecurityReport> devs;
  devs.reserve(blocks.size());
  for (const Matrix<Gf61>& block : blocks) {
    devs.push_back(VerifyCumulativeView(block, m));
  }
  return CumulativeReport(std::move(devs));
}

SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<std::vector<ViewRow>>& views, size_t m) {
  std::vector<DeviceSecurityReport> devs;
  devs.reserve(views.size());
  for (const std::vector<ViewRow>& view : views) {
    devs.push_back(VerifyViewRows(view, m));
  }
  return CumulativeReport(std::move(devs));
}

Status CheckSchemeSecure(const StructuredCode& code,
                         const LcecScheme& scheme) {
  const SchemeSecurityReport report = VerifyStructuredScheme(code, scheme);
  if (!report.available) {
    return DecodeFailure("availability violated: B not full rank");
  }
  if (!report.all_secure) {
    return SecurityViolation(report.Summary());
  }
  return Status::Ok();
}

}  // namespace scec
