// SPDX-License-Identifier: MIT
//
// Answer checks. Every answer the benchmark receives is checked outside the
// timed interval; a wrong answer counts as a failed query and makes the run
// exit non-zero.
//
//   net_loopback     max_i |y_i - (A·x)_i| <= kDoubleTolerance against a
//                    reference MatVec in double (the decode subtracts two
//                    coded-row products, so it carries rounding error).
//   serve_gf61       exact in GF(2^61-1): a seeded projection
//                    u^T y == (u^T A)·x on every answer, and y == A·x in
//                    full on every kFullCheckEvery-th answer.
//   durable_journal  bit equality with the in-process decode of the same
//                    deployment (scec::Query), and with the journal's replay.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "field/gf_prime.h"
#include "linalg/matrix.h"

namespace perfbench {

inline constexpr double kDoubleTolerance = 1e-9;
// One full check per window of serve_gf61 answers.
inline constexpr size_t kFullCheckEvery = 256;

bool CloseToMatVec(const scec::Matrix<double>& a, std::span<const double> x,
                   std::span<const double> y,
                   double tolerance = kDoubleTolerance);

bool ExactMatVec(const scec::Matrix<scec::Gf61>& a,
                 std::span<const scec::Gf61> x, std::span<const scec::Gf61> y);

bool BitEqual(std::span<const double> a, std::span<const double> b);

// u^T y == w·x with w = u^T A precomputed once per matrix, u seeded.
class Gf61Projection {
 public:
  Gf61Projection(const scec::Matrix<scec::Gf61>& a, uint64_t seed);
  bool Check(std::span<const scec::Gf61> x,
             std::span<const scec::Gf61> y) const;

 private:
  std::vector<scec::Gf61> u_;  // length m
  std::vector<scec::Gf61> w_;  // u^T A, length l
};

}  // namespace perfbench
