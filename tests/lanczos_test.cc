#include "linalg/lanczos.h"

#include <cmath>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "linalg/svd.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::OrthonormalityError;
using ::ivmf::testing::RandomMatrix;
using ::ivmf::testing::RandomSymmetric;

TEST(TridiagonalQLTest, DiagonalInput) {
  std::vector<double> diag{3, 1, 2};
  std::vector<double> off{0, 0};
  Matrix z = Matrix::Identity(3);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  EXPECT_NEAR(diag[0], 1.0, 1e-12);
  EXPECT_NEAR(diag[1], 2.0, 1e-12);
  EXPECT_NEAR(diag[2], 3.0, 1e-12);
}

TEST(TridiagonalQLTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] -> eigenvalues 1, 3.
  std::vector<double> diag{2, 2};
  std::vector<double> off{1};
  Matrix z = Matrix::Identity(2);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  EXPECT_NEAR(diag[0], 1.0, 1e-12);
  EXPECT_NEAR(diag[1], 3.0, 1e-12);
  // Eigenvectors: (1,-1)/sqrt2 and (1,1)/sqrt2 up to sign.
  EXPECT_NEAR(std::abs(z(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(z(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(TridiagonalQLTest, MatchesJacobiOnRandomTridiagonal) {
  Rng rng(1);
  const size_t n = 12;
  std::vector<double> diag(n), off(n - 1);
  for (double& d : diag) d = rng.Uniform(-2, 2);
  for (double& o : off) o = rng.Uniform(-1, 1);

  // Build the dense tridiagonal and solve with Jacobi as an oracle.
  Matrix dense(n, n);
  for (size_t i = 0; i < n; ++i) dense(i, i) = diag[i];
  for (size_t i = 0; i + 1 < n; ++i) {
    dense(i, i + 1) = off[i];
    dense(i + 1, i) = off[i];
  }
  const EigResult jacobi = ComputeSymmetricEig(dense);

  Matrix z = Matrix::Identity(n);
  ASSERT_TRUE(TridiagonalQL(diag, off, &z));
  for (size_t i = 0; i < n; ++i) {
    // QL sorts ascending, Jacobi descending.
    EXPECT_NEAR(diag[i], jacobi.eigenvalues[n - 1 - i], 1e-9);
  }
  EXPECT_LT(OrthonormalityError(z), 1e-9);
}

TEST(TridiagonalQLTest, SingleElement) {
  std::vector<double> diag{5.0};
  std::vector<double> off;
  ASSERT_TRUE(TridiagonalQL(diag, off, nullptr));
  EXPECT_DOUBLE_EQ(diag[0], 5.0);
}

TEST(LanczosTest, TopEigenvaluesMatchJacobi) {
  // PSD Gram-style matrix — the shape ISVD actually feeds to the solver.
  Rng rng(2);
  const Matrix base = RandomMatrix(40, 40, rng);
  const Matrix a = base * base.Transpose();
  const EigResult jacobi = ComputeSymmetricEig(a, 5);
  const EigResult lanczos = ComputeLanczosEig(a, 5);
  ASSERT_EQ(lanczos.eigenvalues.size(), 5u);
  const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale,
                jacobi.eigenvalues[j] / scale, 1e-6);
}

TEST(LanczosTest, EigenpairsSatisfyDefiningEquation) {
  Rng rng(3);
  const Matrix base = RandomMatrix(30, 30, rng);
  const Matrix a = base * base.Transpose();  // PSD, well-separated spectrum
  const EigResult result = ComputeLanczosEig(a, 6);
  const double scale = std::abs(result.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < result.eigenvalues.size(); ++j) {
    const std::vector<double> v = result.eigenvectors.Col(j);
    double err = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
      double av = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) av += a(i, k) * v[k];
      const double r = av - result.eigenvalues[j] * v[i];
      err += r * r;
    }
    EXPECT_LT(std::sqrt(err) / scale, 1e-6);
  }
}

TEST(LanczosTest, RitzVectorsAreOrthonormal) {
  Rng rng(4);
  const Matrix a = RandomSymmetric(25, rng);
  const EigResult result = ComputeLanczosEig(a, 8);
  EXPECT_LT(OrthonormalityError(result.eigenvectors), 1e-8);
}

TEST(LanczosTest, FullRankFallsBackToJacobi) {
  Rng rng(5);
  const Matrix a = RandomSymmetric(10, rng);
  const EigResult full = ComputeLanczosEig(a, 0);
  const EigResult jacobi = ComputeSymmetricEig(a);
  ASSERT_EQ(full.eigenvalues.size(), jacobi.eigenvalues.size());
  for (size_t j = 0; j < full.eigenvalues.size(); ++j)
    EXPECT_NEAR(full.eigenvalues[j], jacobi.eigenvalues[j], 1e-10);
}

TEST(LanczosTest, GramMatrixSingularValuesMatchSvd) {
  Rng rng(6);
  const Matrix m = RandomMatrix(20, 35, rng);
  const Matrix gram = m.Transpose() * m;  // 35 x 35
  const EigResult lanczos = ComputeLanczosEig(gram, 4);
  const SvdResult svd = ComputeSvd(m, 4);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(std::sqrt(std::max(0.0, lanczos.eigenvalues[j])),
                svd.sigma[j], 1e-7);
  }
}

TEST(LanczosTest, DeterministicForSeed) {
  Rng rng(7);
  const Matrix a = RandomSymmetric(20, rng);
  const EigResult r1 = ComputeLanczosEig(a, 4);
  const EigResult r2 = ComputeLanczosEig(a, 4);
  EXPECT_TRUE(r1.eigenvectors == r2.eigenvectors);
}

TEST(LanczosTest, LowRankMatrixTerminatesEarly) {
  // Rank-2 PSD matrix: Krylov space exhausts after ~2 steps.
  Rng rng(8);
  const Matrix f = RandomMatrix(20, 2, rng);
  const Matrix a = f * f.Transpose();
  const EigResult result = ComputeLanczosEig(a, 2);
  const EigResult jacobi = ComputeSymmetricEig(a, 2);
  for (size_t j = 0; j < 2; ++j)
    EXPECT_NEAR(result.eigenvalues[j], jacobi.eigenvalues[j], 1e-7);
}

TEST(LanczosTest, BreakdownRestartDeliversRequestedCountBeyondRank) {
  // Regression guard for the Krylov-breakdown restart path introduced in
  // PR 2: a rank-3 Gram operator asked for 6 eigenpairs exhausts its
  // invariant subspace after ~3 steps and must restart with fresh random
  // directions until the requested count exists — the sparse ISVD
  // lower/upper eigenpair pairing aborts on a short answer.
  Rng rng(71);
  const Matrix f = RandomMatrix(20, 3, rng);
  const Matrix a = f * f.Transpose();
  const DenseSymmetricOperator op(a);
  const EigResult lanczos = ComputeLanczosEig(op, 6);
  const EigResult jacobi = ComputeSymmetricEig(a, 6);
  ASSERT_EQ(lanczos.eigenvalues.size(), 6u);
  ASSERT_EQ(lanczos.eigenvectors.cols(), 6u);
  const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale, jacobi.eigenvalues[j] / scale,
                1e-8);
  }
  for (size_t j = 3; j < 6; ++j)
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale, 0.0, 1e-8);
  EXPECT_LT(OrthonormalityError(lanczos.eigenvectors), 1e-8);
  // The genuine eigenvectors (sign-canonicalized by both solvers) agree.
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(lanczos.eigenvectors(i, j), jacobi.eigenvectors(i, j), 1e-6);
    }
  }
}

TEST(LanczosTest, ZeroOperatorRestartsToFullRequestedBasis) {
  // The extreme breakdown case (the Gram of an all-zero endpoint matrix):
  // the very first step stalls, and every subsequent vector comes from the
  // random restart — the caller still gets an orthonormal basis of the
  // requested width with zero Ritz values.
  const Matrix a(15, 15);
  const DenseSymmetricOperator op(a);
  const EigResult result = ComputeLanczosEig(op, 4);
  ASSERT_EQ(result.eigenvalues.size(), 4u);
  for (const double lambda : result.eigenvalues)
    EXPECT_NEAR(lambda, 0.0, 1e-12);
  EXPECT_LT(OrthonormalityError(result.eigenvectors), 1e-10);
}

class LanczosRankTest : public ::testing::TestWithParam<int> {};

TEST_P(LanczosRankTest, AgreesWithJacobiAcrossRanks) {
  const int rank = GetParam();
  Rng rng(100 + rank);
  const Matrix base = RandomMatrix(50, 50, rng);
  const Matrix a = base * base.Transpose();
  const EigResult jacobi = ComputeSymmetricEig(a, rank);
  const EigResult lanczos = ComputeLanczosEig(a, rank);
  for (int j = 0; j < rank; ++j) {
    const double scale = std::abs(jacobi.eigenvalues[0]) + 1.0;
    EXPECT_NEAR(lanczos.eigenvalues[j] / scale,
                jacobi.eigenvalues[j] / scale, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, LanczosRankTest,
                         ::testing::Values(1, 2, 4, 8, 12));

TEST(LanczosTest, RestartExhaustionIsSurfacedAsTruncation) {
  // Regression for the silent invariant-subspace restart failure: the loop
  // used to `break` after three failed random-direction attempts with no
  // signal, so a rank-deficient operator could deliver fewer eigenpairs
  // than requested and crash the ISVD endpoint pairing downstream with an
  // opaque shape error. Provoked here by making the restart acceptance
  // threshold unsatisfiable: on a rank-2 Gram, the first breakdown then
  // exhausts the restart attempts and the basis stops growing.
  Rng rng(300);
  const Matrix base = RandomMatrix(12, 2, rng);
  const Matrix a = base * base.Transpose();  // rank 2, 12 x 12

  LanczosOptions strict;
  strict.restart_tolerance = 1e9;  // no random unit direction passes
  const EigResult truncated = ComputeLanczosEig(DenseSymmetricOperator(a), 6,
                                                strict);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_LT(truncated.eigenvalues.size(), 6u);
  EXPECT_GT(truncated.iterations, 0u);
  // What was delivered is still correct: the leading eigenvalues match.
  const EigResult jacobi = ComputeSymmetricEig(a, 2);
  ASSERT_GE(truncated.eigenvalues.size(), 2u);
  EXPECT_NEAR(truncated.eigenvalues[0], jacobi.eigenvalues[0], 1e-8);
  EXPECT_NEAR(truncated.eigenvalues[1], jacobi.eigenvalues[1], 1e-8);

  // Default options on the same operator restart fine: full count, no flag.
  const EigResult full = ComputeLanczosEig(DenseSymmetricOperator(a), 6);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.eigenvalues.size(), 6u);
}

TEST(LanczosTest, WarmStartFromRitzBasisConvergesNoSlower) {
  // With the convergence-based early exit on, starting from the previous
  // Ritz basis must never need more steps than the random cold start — the
  // warm-start contract the streaming ISVD driver relies on.
  Rng rng(301);
  const Matrix base = RandomMatrix(60, 6, rng);
  Matrix a = base * base.Transpose();

  LanczosOptions cold;
  cold.convergence_tol = 1e-10;
  const EigResult first = ComputeLanczosEig(DenseSymmetricOperator(a), 4, cold);
  ASSERT_EQ(first.eigenvalues.size(), 4u);

  // Perturb the operator slightly (a streaming-style small change).
  Rng perturb(302);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double d = perturb.Uniform(0.0, 1e-3);
    a(i, i) += d;
  }
  const EigResult recold = ComputeLanczosEig(DenseSymmetricOperator(a), 4, cold);
  LanczosOptions warm = cold;
  warm.start_basis = first.eigenvectors;
  const EigResult rewarm = ComputeLanczosEig(DenseSymmetricOperator(a), 4, warm);

  EXPECT_LE(rewarm.iterations, recold.iterations);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(rewarm.eigenvalues[j], recold.eigenvalues[j],
                1e-8 * (std::abs(recold.eigenvalues[0]) + 1.0));
  }
}

TEST(LanczosTest, ConvergenceExitMatchesFullCapRun) {
  Rng rng(303);
  const Matrix base = RandomMatrix(80, 8, rng);
  const Matrix a = base * base.Transpose();

  const EigResult cap = ComputeLanczosEig(DenseSymmetricOperator(a), 3);
  LanczosOptions early;
  early.convergence_tol = 1e-11;
  const EigResult exited = ComputeLanczosEig(DenseSymmetricOperator(a), 3, early);
  EXPECT_LE(exited.iterations, cap.iterations);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(exited.eigenvalues[j], cap.eigenvalues[j],
                1e-8 * (std::abs(cap.eigenvalues[0]) + 1.0));
  }
}

// Death tests fork, which ThreadSanitizer instrumentation does not support.
#if defined(__SANITIZE_THREAD__)
#define IVMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IVMF_TSAN_BUILD 1
#endif
#endif

#ifndef IVMF_TSAN_BUILD
// A warm basis is the solver's own carried state, so one whose row count
// is not the operator dimension means the caller captured the wrong factor
// (V for U); it must abort rather than quietly start cold.
TEST(LanczosDeathTest, WarmBasisOfWrongDimensionAborts) {
  Rng rng(304);
  const Matrix base = RandomMatrix(30, 5, rng);
  const Matrix a = base * base.Transpose();
  LanczosOptions options;
  options.start_basis = RandomMatrix(29, 3, rng);
  EXPECT_DEATH(ComputeLanczosEig(DenseSymmetricOperator(a), 3, options),
               "warm-start basis dimension");
  std::vector<double> v(30);
  EXPECT_DEATH(lanczos_internal::WarmStartVector(RandomMatrix(31, 3, rng), 30,
                                                 v),
               "warm-start basis dimension");
  // An absent basis is a cold start, not an error.
  EXPECT_FALSE(lanczos_internal::WarmStartVector(Matrix(), 30, v));
}
#endif

}  // namespace
}  // namespace ivmf
