// SPDX-License-Identifier: MIT

#include "check.h"

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "field/field_traits.h"
#include "linalg/matrix_ops.h"

namespace perfbench {

using scec::Gf61;

bool CloseToMatVec(const scec::Matrix<double>& a, std::span<const double> x,
                   std::span<const double> y, double tolerance) {
  if (y.size() != a.rows() || x.size() != a.cols()) return false;
  const std::vector<double> want = scec::MatVec(a, x);
  for (size_t i = 0; i < want.size(); ++i) {
    // Written so a NaN in y fails the check.
    if (!(std::fabs(y[i] - want[i]) <= tolerance)) return false;
  }
  return true;
}

bool ExactMatVec(const scec::Matrix<Gf61>& a, std::span<const Gf61> x,
                 std::span<const Gf61> y) {
  if (y.size() != a.rows() || x.size() != a.cols()) return false;
  const std::vector<Gf61> want = scec::MatVec(a, x);
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(y[i] == want[i])) return false;
  }
  return true;
}

bool BitEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Gf61Projection::Gf61Projection(const scec::Matrix<Gf61>& a, uint64_t seed)
    : u_(a.rows()), w_(a.cols(), scec::FieldTraits<Gf61>::Zero()) {
  scec::ChaCha20Rng rng(seed);
  for (Gf61& value : u_) value = scec::FieldTraits<Gf61>::Random(rng);
  for (size_t row = 0; row < a.rows(); ++row) {
    const auto arow = a.Row(row);
    for (size_t col = 0; col < a.cols(); ++col) w_[col] += u_[row] * arow[col];
  }
}

bool Gf61Projection::Check(std::span<const Gf61> x,
                           std::span<const Gf61> y) const {
  if (x.size() != w_.size() || y.size() != u_.size()) return false;
  Gf61 lhs = scec::FieldTraits<Gf61>::Zero();
  for (size_t i = 0; i < y.size(); ++i) lhs += u_[i] * y[i];
  Gf61 rhs = scec::FieldTraits<Gf61>::Zero();
  for (size_t j = 0; j < x.size(); ++j) rhs += w_[j] * x[j];
  return lhs == rhs;
}

}  // namespace perfbench
