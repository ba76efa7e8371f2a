// SPDX-License-Identifier: MIT
//
// ResultVerifier repetition (`num_digests`) and the predictable-RNG attack:
// the per-response false-accept rate is q^-d, and an adversary who can
// reproduce the weight draws crafts corruptions that pass every probe —
// which is why Create() demands the cryptographically strong generator.

#include "coding/result_verify.h"

#include <gtest/gtest.h>

#include <vector>

#include "coding/encoder.h"
#include "field/gf256.h"
#include "field/gf_prime.h"

namespace scec {
namespace {

template <typename T>
std::vector<DeviceShare<T>> OneRandomShare(size_t rows, size_t cols,
                                           ChaCha20Rng& rng) {
  DeviceShare<T> share;
  share.device = 0;
  share.coded_rows = Matrix<T>(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      share.coded_rows(r, c) = FieldTraits<T>::Random(rng);
    }
  }
  return {std::move(share)};
}

template <typename T>
std::vector<T> HonestResponse(const Matrix<T>& s, const std::vector<T>& x) {
  std::vector<T> y(s.rows(), FieldTraits<T>::Zero());
  for (size_t r = 0; r < s.rows(); ++r) {
    for (size_t c = 0; c < s.cols(); ++c) y[r] += s(r, c) * x[c];
  }
  return y;
}

// --- GF(256) accept-rate under repetition --------------------------------

// A fixed single-element corruption e = (delta, 0, …) passes one probe iff
// its weight on that row is zero: probability exactly 1/256 per probe,
// (1/256)^d for d independent probes. Measured over many independently
// seeded verifiers, d = 1 must sit near 1/256 and d = 2 must collapse it.
// (Deterministic seeds: this "statistical" test cannot flake.)
TEST(ResultVerifierRepetition, Gf256FalseAcceptRateDropsFromDigest1To2) {
  constexpr size_t kTrials = 4096;
  ChaCha20Rng data_rng(2026);
  const auto shares = OneRandomShare<Gf256>(4, 3, data_rng);
  std::vector<Gf256> x(3);
  for (auto& value : x) value = FieldTraits<Gf256>::Random(data_rng);
  const std::vector<Gf256> honest =
      HonestResponse(shares[0].coded_rows, x);

  size_t accepts_d1 = 0;
  size_t accepts_d2 = 0;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    std::vector<Gf256> corrupted = honest;
    corrupted[0] += Gf256::One();
    {
      ChaCha20Rng rng(1000 + trial);
      const auto verifier =
          ResultVerifier<Gf256>::Create(shares, rng, /*num_digests=*/1);
      ASSERT_TRUE(verifier.Check(0, std::span<const Gf256>(x),
                                 std::span<const Gf256>(honest)))
          << "honest responses must always verify, trial " << trial;
      if (verifier.Check(0, std::span<const Gf256>(x),
                         std::span<const Gf256>(corrupted))) {
        ++accepts_d1;
      }
    }
    {
      ChaCha20Rng rng(1000 + trial);
      const auto verifier =
          ResultVerifier<Gf256>::Create(shares, rng, /*num_digests=*/2);
      if (verifier.Check(0, std::span<const Gf256>(x),
                         std::span<const Gf256>(corrupted))) {
        ++accepts_d2;
      }
    }
  }
  // Expected d=1 accepts: 4096/256 = 16; d=2: 4096/65536 ≈ 0.06.
  EXPECT_GE(accepts_d1, 4u) << "rate far below 1/256";
  EXPECT_LE(accepts_d1, 40u) << "rate far above 1/256";
  EXPECT_LE(accepts_d2, 1u) << "d = 2 must collapse the false-accept rate";
  EXPECT_LT(accepts_d2, accepts_d1);
}

TEST(ResultVerifierRepetition, DigestValuesScaleLinearlyWithRepetition) {
  ChaCha20Rng data_rng(7);
  const auto shares = OneRandomShare<Gf61>(5, 4, data_rng);
  ChaCha20Rng rng1(1);
  ChaCha20Rng rng2(1);
  const auto d1 = ResultVerifier<Gf61>::Create(shares, rng1, 1);
  const auto d2 = ResultVerifier<Gf61>::Create(shares, rng2, 2);
  EXPECT_EQ(d1.num_digests(), 1u);
  EXPECT_EQ(d2.num_digests(), 2u);
  EXPECT_EQ(d1.DigestValues(), 4u) << "l values per probe";
  EXPECT_EQ(d2.DigestValues(), 8u) << "cost scales linearly in d";
}

// --- Two-phase construction ----------------------------------------------

// DrawWeights then SetDigests per device equals Create, for every field and
// repetition count, and leaves the rng where Create does, even when a
// caller stops before the last device (a staging failure at that slot).
template <typename T>
void ExpectTwoPhaseEqualsCreate() {
  ChaCha20Rng data_rng(31);
  std::vector<DeviceShare<T>> shares;
  std::vector<size_t> row_counts;
  for (size_t rows : {3u, 1u, 5u, 2u}) {
    shares.push_back(OneRandomShare<T>(rows, 6, data_rng)[0]);
    shares.back().device = shares.size() - 1;
    row_counts.push_back(rows);
  }
  for (size_t d = 1; d <= 3; ++d) {
    ChaCha20Rng create_rng(500 + d);
    const auto created = ResultVerifier<T>::Create(shares, create_rng, d);
    const uint64_t after_create = create_rng.NextUint64();
    for (size_t stop = 0; stop <= shares.size(); ++stop) {
      ChaCha20Rng rng(500 + d);
      auto verifier = ResultVerifier<T>::DrawWeights(row_counts, rng, d);
      for (size_t device = 0; device < stop; ++device) {
        verifier.SetDigests(device, shares[device].coded_rows);
      }
      EXPECT_EQ(rng.NextUint64(), after_create) << "d=" << d << " stop=" << stop;
      EXPECT_EQ(verifier == created, stop == shares.size())
          << "d=" << d << " stop=" << stop;
    }
  }
}

TEST(ResultVerifierTwoPhase, EqualsCreateInWeightsDigestsAndRngState) {
  ExpectTwoPhaseEqualsCreate<double>();
  ExpectTwoPhaseEqualsCreate<Gf61>();
  ExpectTwoPhaseEqualsCreate<Gf256>();
}

// --- Predictable-RNG negative test ---------------------------------------

// An adversary who can REPRODUCE the weight stream (predictable seed) reads
// off w and returns y + e with e = (w1, −w0, 0, …): wᵀe = w0·w1 − w1·w0 = 0,
// so every probe of the predictable verifier passes while the corruption is
// plainly nonzero. The same response against an independently (secretly)
// seeded verifier is caught. This is the reason Create() takes ChaCha20 and
// the protocol driver treats `digest_seed` as a secret.
TEST(ResultVerifierPredictableRng, KnownSeedAdmitsCraftedCorruption) {
  ChaCha20Rng data_rng(99);
  const auto shares = OneRandomShare<Gf61>(4, 3, data_rng);
  std::vector<Gf61> x(3);
  for (auto& value : x) value = FieldTraits<Gf61>::Random(data_rng);
  const std::vector<Gf61> honest = HonestResponse(shares[0].coded_rows, x);

  constexpr uint64_t kLeakedSeed = 0xBADull;
  ChaCha20Rng predictable_rng(kLeakedSeed);
  const auto predictable =
      ResultVerifier<Gf61>::Create(shares, predictable_rng, 1);

  // The attacker replays Create()'s draw order (per device, per probe, per
  // row) on the leaked seed to recover the secret weights.
  ChaCha20Rng attacker_rng(kLeakedSeed);
  std::vector<Gf61> w;
  for (size_t row = 0; row < 4; ++row) {
    w.push_back(FieldTraits<Gf61>::Random(attacker_rng));
  }

  std::vector<Gf61> crafted = honest;
  crafted[0] += w[1];
  crafted[1] += -w[0];
  ASSERT_NE(crafted, honest) << "the corruption must be real";
  EXPECT_TRUE(predictable.Check(0, std::span<const Gf61>(x),
                                std::span<const Gf61>(crafted)))
      << "wᵀe = 0 by construction: the predictable verifier is blind";

  ChaCha20Rng secret_rng(0x5EC12E7ull);
  const auto secret = ResultVerifier<Gf61>::Create(shares, secret_rng, 1);
  EXPECT_TRUE(secret.Check(0, std::span<const Gf61>(x),
                           std::span<const Gf61>(honest)));
  EXPECT_FALSE(secret.Check(0, std::span<const Gf61>(x),
                            std::span<const Gf61>(crafted)))
      << "an independent secret seed catches the same corruption";
}

}  // namespace
}  // namespace scec
