// SPDX-License-Identifier: MIT
//
// Dense row-major matrix, templated over a scalar satisfying FieldTraits.
//
// This is deliberately a small, predictable container — not a BLAS. The SCEC
// hot paths never materialise large dense products (the coding matrix is
// block-sparse and handled structurally by the encoder/decoder); Matrix is
// the substrate for verification (rank / span computations), the general
// Gaussian decoder, and the examples.

#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace scec {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;

  Matrix(size_t rows, size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Construction from nested initializer lists (tests, examples):
  //   Matrix<double> m{{1, 2}, {3, 4}};
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      SCEC_CHECK_EQ(row.size(), cols_) << "ragged initializer list";
      for (const T& v : row) data_.push_back(v);
    }
  }

  static Matrix Identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  static Matrix Zero(size_t rows, size_t cols) { return Matrix(rows, cols); }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  size_t size() const { return data_.size(); }

  T& operator()(size_t row, size_t col) {
    SCEC_CHECK_LT(row, rows_);
    SCEC_CHECK_LT(col, cols_);
    return data_[row * cols_ + col];
  }
  const T& operator()(size_t row, size_t col) const {
    SCEC_CHECK_LT(row, rows_);
    SCEC_CHECK_LT(col, cols_);
    return data_[row * cols_ + col];
  }

  std::span<T> Row(size_t row) {
    SCEC_CHECK_LT(row, rows_);
    return std::span<T>(data_.data() + row * cols_, cols_);
  }
  std::span<const T> Row(size_t row) const {
    SCEC_CHECK_LT(row, rows_);
    return std::span<const T>(data_.data() + row * cols_, cols_);
  }

  // Reshapes to rows × cols for the caller to overwrite. The storage keeps
  // its capacity, so a buffer reused for smaller and then larger shapes
  // within that capacity allocates (and first-touches) nothing new.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  std::span<T> Data() { return data_; }
  std::span<const T> Data() const { return data_; }

  void SetRow(size_t row, std::span<const T> values) {
    SCEC_CHECK_EQ(values.size(), cols_);
    auto dst = Row(row);
    for (size_t col = 0; col < cols_; ++col) dst[col] = values[col];
  }

  // Copies rows [first, first + count) into a new matrix.
  Matrix RowSlice(size_t first, size_t count) const {
    SCEC_CHECK_LE(first + count, rows_);
    Matrix out(count, cols_);
    for (size_t row = 0; row < count; ++row) out.SetRow(row, Row(first + row));
    return out;
  }

  // Copies the rectangular block starting at (row0, col0).
  Matrix Block(size_t row0, size_t col0, size_t rows, size_t cols) const {
    SCEC_CHECK_LE(row0 + rows, rows_);
    SCEC_CHECK_LE(col0 + cols, cols_);
    Matrix out(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) out(r, c) = (*this)(row0 + r, col0 + c);
    }
    return out;
  }

  // Stacks `other` below this matrix (column counts must match).
  Matrix VStack(const Matrix& other) const {
    if (empty()) return other;
    if (other.empty()) return *this;
    SCEC_CHECK_EQ(cols_, other.cols_);
    Matrix out(rows_ + other.rows_, cols_);
    for (size_t row = 0; row < rows_; ++row) out.SetRow(row, Row(row));
    for (size_t row = 0; row < other.rows_; ++row) {
      out.SetRow(rows_ + row, other.Row(row));
    }
    return out;
  }

  // Concatenates `other` to the right (row counts must match).
  Matrix HStack(const Matrix& other) const {
    if (empty()) return other;
    if (other.empty()) return *this;
    SCEC_CHECK_EQ(rows_, other.rows_);
    Matrix out(rows_, cols_ + other.cols_);
    for (size_t row = 0; row < rows_; ++row) {
      for (size_t col = 0; col < cols_; ++col) out(row, col) = (*this)(row, col);
      for (size_t col = 0; col < other.cols_; ++col) {
        out(row, cols_ + col) = other(row, col);
      }
    }
    return out;
  }

  Matrix Transposed() const {
    Matrix out(cols_, rows_);
    for (size_t row = 0; row < rows_; ++row) {
      for (size_t col = 0; col < cols_; ++col) out(col, row) = (*this)(row, col);
    }
    return out;
  }

  void SwapRows(size_t a, size_t b) {
    SCEC_CHECK_LT(a, rows_);
    SCEC_CHECK_LT(b, rows_);
    if (a == b) return;
    for (size_t col = 0; col < cols_; ++col) {
      std::swap(data_[a * cols_ + col], data_[b * cols_ + col]);
    }
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }
  friend bool operator!=(const Matrix& a, const Matrix& b) {
    return !(a == b);
  }

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    os << "[" << m.rows_ << "x" << m.cols_ << "]\n";
    for (size_t row = 0; row < m.rows_; ++row) {
      os << "  ";
      for (size_t col = 0; col < m.cols_; ++col) {
        if (col > 0) os << ' ';
        os << m(row, col);
      }
      os << '\n';
    }
    return os;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

template <typename T>
using Vector = std::vector<T>;

}  // namespace scec
