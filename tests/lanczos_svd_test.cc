// Tests for the Golub–Kahan–Lanczos bidiagonalization SVD: agreement with
// the one-sided Jacobi solver, truncation, and — critically for the sparse
// ISVD path — the Krylov-breakdown restart treatment on rank-deficient
// operators (a regression guard next to the symmetric-Lanczos one in
// lanczos_test.cc).

#include "linalg/lanczos_svd.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "linalg/svd.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::MaxAbsDiff;
using ::ivmf::testing::OrthonormalityError;
using ::ivmf::testing::RandomMatrix;

TEST(LanczosSvdTest, FullDecompositionMatchesJacobiSvd) {
  Rng rng(11);
  const Matrix a = RandomMatrix(14, 9, rng, -2.0, 2.0);
  const SvdResult gkl = ComputeLanczosSvd(a, 0);
  const SvdResult jacobi = ComputeSvd(a);
  ASSERT_EQ(gkl.sigma.size(), jacobi.sigma.size());
  for (size_t j = 0; j < gkl.sigma.size(); ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  // Random spectra are simple, so canonicalized factors agree columnwise.
  EXPECT_LT(MaxAbsDiff(gkl.u, jacobi.u), 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.v, jacobi.v), 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), a), 1e-9);
}

TEST(LanczosSvdTest, WideMatrixMatchesJacobiSvd) {
  Rng rng(12);
  const Matrix a = RandomMatrix(8, 17, rng, -1.0, 1.0);
  const SvdResult gkl = ComputeLanczosSvd(a, 0);
  const SvdResult jacobi = ComputeSvd(a);
  ASSERT_EQ(gkl.sigma.size(), 8u);
  for (size_t j = 0; j < gkl.sigma.size(); ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), a), 1e-9);
  EXPECT_LT(OrthonormalityError(gkl.u), 1e-9);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-9);
}

TEST(LanczosSvdTest, TruncatedRankMatchesLeadingJacobiTriplets) {
  Rng rng(13);
  // Exactly rank-5 matrix: the truncated solver must nail the spectrum.
  const Matrix b = RandomMatrix(30, 5, rng);
  const Matrix c = RandomMatrix(5, 18, rng);
  const Matrix a = b * c;
  const SvdResult gkl = ComputeLanczosSvd(a, 3);
  const SvdResult jacobi = ComputeSvd(a, 3);
  ASSERT_EQ(gkl.sigma.size(), 3u);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-8);
  EXPECT_LT(MaxAbsDiff(gkl.u, jacobi.u), 1e-7);
  EXPECT_LT(MaxAbsDiff(gkl.v, jacobi.v), 1e-7);
}

TEST(LanczosSvdTest, BreakdownRestartDeliversRequestedCountBeyondRank) {
  // Regression guard for the Krylov-breakdown restart: an exactly rank-3
  // matrix asked for 7 triplets breaks down once the singular-invariant
  // subspace is exhausted and must restart until the full count exists —
  // the ISVD0/ISVD1 lower/upper pairing depends on it. Zero-sigma U columns
  // are zero vectors (the ComputeSvd convention), so orthonormality is
  // checked on the genuine triplets and on V (whose columns stay unit).
  Rng rng(14);
  const Matrix a = RandomMatrix(25, 3, rng) * RandomMatrix(3, 16, rng);
  const SvdResult gkl = ComputeLanczosSvd(a, 7);
  const SvdResult jacobi = ComputeSvd(a, 7);
  ASSERT_EQ(gkl.sigma.size(), 7u);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-8);
  // The zero tail is a sqrt of eps-level Ritz mass: O(sqrt(eps) * sigma_0).
  for (size_t j = 3; j < 7; ++j) EXPECT_NEAR(gkl.sigma[j], 0.0, 1e-6);
  EXPECT_LT(OrthonormalityError(gkl.u.ColBlock(0, 3)), 1e-8);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-8);
}

TEST(LanczosSvdTest, ZeroOperatorRestartsToFullRequestedBasis) {
  // The all-zero matrix (the lower endpoint of [0, x] interval data): every
  // left step breaks down immediately; the restart path must still hand
  // back the requested width — zero singular values, zero U columns (the
  // ComputeSvd convention) and an orthonormal V.
  const Matrix a(20, 12);
  const SvdResult gkl = ComputeLanczosSvd(a, 5);
  ASSERT_EQ(gkl.sigma.size(), 5u);
  for (const double s : gkl.sigma) EXPECT_NEAR(s, 0.0, 1e-12);
  EXPECT_LT(gkl.u.MaxAbs(), 1e-10);
  EXPECT_LT(OrthonormalityError(gkl.v), 1e-10);
}

TEST(LanczosSvdTest, DuplicateSingularValuesReconstructExactly) {
  // diag(A, A) duplicates every singular value; the per-cluster basis is
  // not unique, so compare the (invariant) reconstruction and the values.
  Rng rng(15);
  const Matrix a = RandomMatrix(7, 5, rng, -1.5, 1.5);
  Matrix block(14, 10);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      block(i, j) = a(i, j);
      block(7 + i, 5 + j) = a(i, j);
    }
  }
  const SvdResult gkl = ComputeLanczosSvd(block, 0);
  const SvdResult jacobi = ComputeSvd(block);
  ASSERT_EQ(gkl.sigma.size(), 10u);
  for (size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(gkl.sigma[j], jacobi.sigma[j], 1e-9);
  EXPECT_LT(MaxAbsDiff(gkl.Reconstruct(), block), 1e-8);
}

TEST(LanczosSvdTest, ShardedEndpointMapMatchesDenseOperator) {
  // The three Parts of ShardedEndpointMap — what the sparse ISVD0/ISVD1
  // decompose, over a zero-copy view of the CSR matrix — act exactly like
  // the materialized endpoint / midpoint matrices.
  Rng rng(16);
  IntervalMatrix dense(9, 13);
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = 0; j < 13; ++j) {
      if (rng.Uniform() < 0.5) continue;
      const double base = rng.Uniform(-1.0, 1.0);
      dense.Set(i, j, Interval(base, base + rng.Uniform(0.0, 0.5)));
    }
  }
  const ShardedSparseIntervalMatrix view = ShardedSparseIntervalMatrix::View(
      std::make_shared<const SparseIntervalMatrix>(
          SparseIntervalMatrix::FromDense(dense)),
      4);

  const Matrix mid = dense.Mid();
  const struct {
    ShardedEndpointMap::Part part;
    const Matrix& reference;
  } cases[] = {
      {ShardedEndpointMap::Part::kLower, dense.lower()},
      {ShardedEndpointMap::Part::kUpper, dense.upper()},
      {ShardedEndpointMap::Part::kMid, mid},
  };
  std::vector<double> x(13), xt(9), y, y_ref;
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);
  for (const auto& c : cases) {
    const ShardedEndpointMap map(view, c.part);
    const DenseLinearMap ref(c.reference);
    map.Apply(x, y);
    ref.Apply(x, y_ref);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
    map.ApplyTranspose(xt, y);
    ref.ApplyTranspose(xt, y_ref);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
  }
}

TEST(LanczosSvdTest, DeterministicForSeed) {
  Rng rng(17);
  const Matrix a = RandomMatrix(12, 8, rng);
  const SvdResult first = ComputeLanczosSvd(a, 4);
  const SvdResult second = ComputeLanczosSvd(a, 4);
  EXPECT_EQ(0.0, MaxAbsDiff(first.u, second.u));
  EXPECT_EQ(0.0, MaxAbsDiff(first.v, second.v));
}

TEST(LanczosSvdTest, RestartExhaustionIsSurfacedAsTruncation) {
  // Same regression as the eigensolver's (see lanczos_test.cc): breakdown
  // on an exactly rank-2 matrix with an unsatisfiable restart threshold
  // used to silently shorten the returned triplet list.
  Rng rng(400);
  const Matrix left = RandomMatrix(14, 2, rng);
  const Matrix right = RandomMatrix(9, 2, rng);
  const Matrix a = left * right.Transpose();  // rank 2, 14 x 9

  LanczosOptions strict;
  strict.restart_tolerance = 1e9;
  const SvdResult truncated = ComputeLanczosSvd(a, 5, strict);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_LT(truncated.sigma.size(), 5u);
  const SvdResult exact = ComputeSvd(a, 2);
  ASSERT_GE(truncated.sigma.size(), 2u);
  EXPECT_NEAR(truncated.sigma[0], exact.sigma[0], 1e-8);
  EXPECT_NEAR(truncated.sigma[1], exact.sigma[1], 1e-8);

  const SvdResult full = ComputeLanczosSvd(a, 5);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.sigma.size(), 5u);
}

TEST(LanczosSvdTest, WarmStartFromRightBasisConvergesNoSlower) {
  Rng rng(401);
  const Matrix left = RandomMatrix(50, 5, rng);
  const Matrix right = RandomMatrix(30, 5, rng);
  Matrix a = left * right.Transpose();

  LanczosOptions cold;
  cold.convergence_tol = 1e-10;
  const SvdResult first = ComputeLanczosSvd(a, 3, cold);
  ASSERT_EQ(first.sigma.size(), 3u);

  Rng perturb(402);
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) a(i, j) += perturb.Uniform(0.0, 1e-3);

  const SvdResult recold = ComputeLanczosSvd(a, 3, cold);
  LanczosOptions warm = cold;
  warm.start_basis = first.v;  // previous right singular vectors
  const SvdResult rewarm = ComputeLanczosSvd(a, 3, warm);

  EXPECT_LE(rewarm.iterations, recold.iterations);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(rewarm.sigma[j], recold.sigma[j],
                1e-8 * (recold.sigma[0] + 1.0));
  }
}

}  // namespace
}  // namespace ivmf
