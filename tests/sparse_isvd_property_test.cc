// Property tests for the sparse matrix-free ISVD path: decomposing through
// the sparse route (Lanczos on the midpoint Gram for ISVD0 and on the
// per-endpoint Grams for ISVD1, the Lanczos Gram operator or the
// four-product signed Gram for ISVD2–ISVD4) must agree with the dense
// pipeline to 1e-8 — for every strategy 0–4, every decomposition target
// (a, b, c), and both sign regimes (entrywise non-negative and signed).
// Reconstructions are compared (they are invariant to the eigenvector
// sign/permutation freedom the factor matrices themselves carry), together
// with the interval core. Rank-deficient inputs (exactly low-rank factors,
// all-zero endpoints) exercise the Krylov breakdown-restart paths;
// duplicate-singular-value inputs pin the degenerate-cluster behavior
// through the rotation-invariant reconstruction. The block-row store runs
// the same family at 32-row shards, memory- and mmap-backed, against the
// CSR entry point; and ISVD0/ISVD1 hold recorded values on a fixture whose
// trailing triplets depend on the Krylov start vector.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/isvd.h"
#include "core/sparse_isvd.h"
#include "data/ratings.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"
#include "test_util.h"

namespace ivmf {
namespace {

using ::ivmf::testing::ReconstructionChecksum;

// A random exactly-rank-K entrywise non-negative interval matrix: a shared
// non-negative left factor U and two ordered right factors V_lo <= V_hi, so
// lower = U V_loᵀ <= upper = U V_hiᵀ elementwise and both endpoints have
// rank exactly K.
IntervalMatrix RandomLowRankIntervalMatrix(size_t n, size_t m, size_t k,
                                           Rng& rng) {
  Matrix u(n, k), v_lo(m, k), v_hi(m, k);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < k; ++j) u(i, j) = rng.Uniform(0.1, 1.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      v_lo(i, j) = rng.Uniform(0.1, 1.0);
      v_hi(i, j) = v_lo(i, j) + rng.Uniform(0.0, 0.4);
    }
  }
  return IntervalMatrix(u * v_lo.Transpose(), u * v_hi.Transpose());
}

// A random exactly-rank-K *signed* interval matrix: the shared left factor
// stays non-negative so the ordered right factors V_lo <= V_hi still give
// lower <= upper elementwise, but V ranges over negative values, so the
// matrix entries carry both signs and the four-product Gram route engages.
IntervalMatrix RandomSignedLowRankIntervalMatrix(size_t n, size_t m, size_t k,
                                                 Rng& rng) {
  Matrix u(n, k), v_lo(m, k), v_hi(m, k);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < k; ++j) u(i, j) = rng.Uniform(0.1, 1.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      v_lo(i, j) = rng.Uniform(-1.0, 0.6);
      v_hi(i, j) = v_lo(i, j) + rng.Uniform(0.0, 0.4);
    }
  }
  return IntervalMatrix(u * v_lo.Transpose(), u * v_hi.Transpose());
}

void ExpectResultsAgree(const IsvdResult& dense, const IsvdResult& sparse,
                        double tol) {
  ASSERT_EQ(dense.rank(), sparse.rank());
  for (size_t j = 0; j < dense.rank(); ++j) {
    EXPECT_NEAR(dense.sigma[j].lo, sparse.sigma[j].lo, tol);
    EXPECT_NEAR(dense.sigma[j].hi, sparse.sigma[j].hi, tol);
  }
  const IntervalMatrix recon_dense = dense.Reconstruct();
  const IntervalMatrix recon_sparse = sparse.Reconstruct();
  EXPECT_TRUE(recon_sparse.ApproxEquals(recon_dense, tol))
      << "max lower diff "
      << (recon_sparse.lower() - recon_dense.lower()).MaxAbs()
      << ", max upper diff "
      << (recon_sparse.upper() - recon_dense.upper()).MaxAbs();
}

// The full strategy-family harness: (strategy 0..4) x (target a, b, c) x
// (non-negative, signed). The dense reference runs the exact solvers
// (one-sided Jacobi SVD / Jacobi eig); the sparse route runs matrix-free
// (Lanczos on the midpoint or endpoint Grams for 0–1, the Lanczos Gram
// operator for 2–4 on non-negative data, the four-product signed Gram
// otherwise). Inputs are
// exactly rank-k, so they double as rank-deficient coverage: the Krylov
// bases break down before reaching their cap and must restart cleanly.
class SparseDenseAgreement
    : public ::testing::TestWithParam<::testing::tuple<int, int, bool>> {};

TEST_P(SparseDenseAgreement, SparseStrategyMatchesDenseSibling) {
  const int strategy = ::testing::get<0>(GetParam());
  const DecompositionTarget target =
      static_cast<DecompositionTarget>(::testing::get<1>(GetParam()));
  const bool signed_entries = ::testing::get<2>(GetParam());

  Rng rng(1000 + 100 * static_cast<int>(signed_entries) + 10 * strategy +
          static_cast<int>(target));
  const size_t n = 40, m = 25, k = 4;
  const IntervalMatrix dense =
      signed_entries ? RandomSignedLowRankIntervalMatrix(n, m, k, rng)
                     : RandomLowRankIntervalMatrix(n, m, k, rng);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);
  ASSERT_EQ(sparse.IsNonNegative(), !signed_entries);

  IsvdOptions dense_options;
  dense_options.target = target;
  dense_options.eig_solver = EigSolver::kJacobi;

  IsvdOptions sparse_options = dense_options;
  sparse_options.eig_solver = EigSolver::kLanczos;

  const IsvdResult from_dense = RunIsvd(strategy, dense, k, dense_options);
  const IsvdResult from_sparse = RunIsvd(strategy, sparse, k, sparse_options);
  ExpectResultsAgree(from_dense, from_sparse, 1e-8);
  // Non-negative input on kMtM runs ISVD2-4 matrix-free: no Gram is formed
  // and no transpose is built, so there is nothing to charge to preprocess.
  if (strategy >= 2 && !signed_entries) {
    EXPECT_EQ(from_sparse.timings.preprocess, 0.0);
  }
}

// The same agreement on a wide input with GramSide::kAuto on both sides:
// both resolve to kMMt, so the sparse ISVD2-4 run on a view of the
// transpose and swap their factors back, and ISVD3/4 solve V from U.
TEST_P(SparseDenseAgreement, WideSparseStrategyMatchesDenseSibling) {
  const int strategy = ::testing::get<0>(GetParam());
  const DecompositionTarget target =
      static_cast<DecompositionTarget>(::testing::get<1>(GetParam()));
  const bool signed_entries = ::testing::get<2>(GetParam());

  Rng rng(3000 + 100 * static_cast<int>(signed_entries) + 10 * strategy +
          static_cast<int>(target));
  const size_t n = 25, m = 40, k = 4;
  const IntervalMatrix dense =
      signed_entries ? RandomSignedLowRankIntervalMatrix(n, m, k, rng)
                     : RandomLowRankIntervalMatrix(n, m, k, rng);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);
  ASSERT_EQ(sparse.IsNonNegative(), !signed_entries);
  ASSERT_EQ(ResolveGramSide(sparse, GramSide::kAuto), GramSide::kMMt);

  IsvdOptions dense_options;
  dense_options.target = target;
  dense_options.eig_solver = EigSolver::kJacobi;
  dense_options.gram_side = GramSide::kAuto;

  IsvdOptions sparse_options = dense_options;
  sparse_options.eig_solver = EigSolver::kLanczos;

  const IsvdResult from_dense = RunIsvd(strategy, dense, k, dense_options);
  const IsvdResult from_sparse = RunIsvd(strategy, sparse, k, sparse_options);
  ExpectResultsAgree(from_dense, from_sparse, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTargetsAndSigns, SparseDenseAgreement,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0, 1, 2),  // targets a, b, c
                       ::testing::Bool()));

TEST(SparseIsvdFamilyTest, RequestBeyondRankStillPairsAndAgrees) {
  // Rank-3 data asked for rank 6: every Krylov basis must restart to
  // deliver the full count (zero tail singular values), and the sparse and
  // dense routes must still agree. Two scoping notes. Tolerance: a Krylov
  // solver's "zero" Ritz values carry O(eps * lambda_max) mass, and the
  // ISVD core takes square roots, so the zero tail lands at
  // O(sqrt(eps) * sigma_0) ~ 1e-7 — the 1e-6 bound is the tight one for
  // this case, not a loose family bound (the exact-rank harness above
  // holds 1e-8). Strategies: only 0–2, whose math stays well-defined at
  // zero core entries (zero-sigma columns recover as zero vectors); ISVD3/4
  // invert Σ† and the averaged factors, which is ill-posed beyond the
  // matrix rank and amplifies solver-level noise in BOTH pipelines — the
  // paper's solve/recompute strategies assume rank <= rank(M†).
  Rng rng(55);
  const IntervalMatrix dense = RandomLowRankIntervalMatrix(30, 18, 3, rng);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);
  IsvdOptions dense_options;
  dense_options.eig_solver = EigSolver::kJacobi;
  IsvdOptions sparse_options = dense_options;
  sparse_options.eig_solver = EigSolver::kLanczos;
  for (const int strategy : {0, 1, 2}) {
    const IsvdResult from_dense = RunIsvd(strategy, dense, 6, dense_options);
    const IsvdResult from_sparse = RunIsvd(strategy, sparse, 6, sparse_options);
    ASSERT_EQ(from_sparse.rank(), 6u) << "strategy " << strategy;
    ExpectResultsAgree(from_dense, from_sparse, 1e-6);
    for (size_t j = 3; j < 6; ++j) {
      EXPECT_NEAR(from_sparse.sigma[j].hi, 0.0, 1e-6)
          << "strategy " << strategy;
    }
  }
}

TEST(SparseIsvdFamilyTest, DuplicateSingularValuesAgreeOnReconstruction) {
  // diag(A, A) over a signed scalar block duplicates every singular value.
  // Factors inside a degenerate cluster are only defined up to rotation, so
  // the solvers may legitimately differ there — but the requested rank (4)
  // covers whole clusters, making the reconstruction and the core
  // rotation-invariant. This pins the degenerate-cluster behavior of every
  // strategy without over-constraining the bases.
  Rng rng(77);
  const Matrix a = ivmf::testing::RandomMatrix(12, 8, rng, -1.0, 1.0);
  Matrix block(24, 16);
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      block(i, j) = a(i, j);
      block(12 + i, 8 + j) = a(i, j);
    }
  }
  const IntervalMatrix dense = IntervalMatrix::FromScalar(block);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);

  IsvdOptions dense_options;
  dense_options.eig_solver = EigSolver::kJacobi;
  IsvdOptions sparse_options = dense_options;
  sparse_options.eig_solver = EigSolver::kLanczos;
  for (const int strategy : {0, 1, 2, 3, 4}) {
    const IsvdResult from_dense = RunIsvd(strategy, dense, 4, dense_options);
    const IsvdResult from_sparse = RunIsvd(strategy, sparse, 4, sparse_options);
    SCOPED_TRACE(::testing::Message() << "strategy " << strategy);
    ExpectResultsAgree(from_dense, from_sparse, 1e-8);
    // Duplicated spectrum: the four kept values come in equal pairs.
    EXPECT_NEAR(from_sparse.sigma[0].hi, from_sparse.sigma[1].hi, 1e-8);
    EXPECT_NEAR(from_sparse.sigma[2].hi, from_sparse.sigma[3].hi, 1e-8);
  }
}

TEST(SparseIsvdFamilyTest, SignedJacobiRouteMatchesDenseExactly) {
  // EigSolver::kJacobi on signed sparse input: the four-product Gram
  // endpoints are accumulated in the same term order the dense
  // IntervalMatMul uses, so the whole pipeline agrees to roundoff.
  Rng rng(78);
  const IntervalMatrix dense = RandomSignedLowRankIntervalMatrix(35, 14, 5, rng);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);
  ASSERT_FALSE(sparse.IsNonNegative());

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kJacobi;
  for (const int strategy : {2, 3, 4}) {
    const IsvdResult from_dense = RunIsvd(strategy, dense, 5, options);
    const IsvdResult from_sparse = RunIsvd(strategy, sparse, 5, options);
    SCOPED_TRACE(::testing::Message() << "strategy " << strategy);
    ExpectResultsAgree(from_dense, from_sparse, 1e-10);
  }
}

TEST(SparseIsvdTest, TruncatedLanczosAgreesOnWideLowRankMatrix) {
  // cols large enough that the Krylov space is a strict subspace: the
  // truncated solver must still nail an exactly low-rank spectrum.
  Rng rng(31);
  const size_t n = 60, m = 200, k = 5;
  const IntervalMatrix dense = RandomLowRankIntervalMatrix(n, m, k, rng);
  const SparseIntervalMatrix sparse = SparseIntervalMatrix::FromDense(dense);

  IsvdOptions dense_options;
  dense_options.target = DecompositionTarget::kB;
  dense_options.eig_solver = EigSolver::kJacobi;
  dense_options.gram_side = GramSide::kAuto;  // resolves to kMMt (m > n)

  IsvdOptions sparse_options = dense_options;
  sparse_options.eig_solver = EigSolver::kLanczos;

  const IsvdResult from_dense = Isvd4(dense, k, dense_options);
  const IsvdResult from_sparse = RunIsvd(4, sparse, k, sparse_options);
  ExpectResultsAgree(from_dense, from_sparse, 1e-8);
}

TEST(SparseIsvdTest, SparseJacobiRouteMatchesDenseJacobi) {
  // EigSolver::kJacobi on the sparse path accumulates dense Grams from the
  // sparse rows — bit-comparable to the dense route on non-negative input.
  Rng rng(32);
  RatingsConfig config;
  config.num_users = 80;
  config.num_items = 30;
  config.fill = 0.3;
  config.seed = 33;
  const SparseRatingsData data = GenerateSparseRatings(config);
  const SparseIntervalMatrix sparse = SparseCfIntervalMatrix(data, 0.3);
  const IntervalMatrix dense = sparse.ToDense();

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kJacobi;

  const IsvdResult from_dense = Isvd3(dense, 6, options);
  const IsvdResult from_sparse = RunIsvd(3, sparse, 6, options);
  ExpectResultsAgree(from_dense, from_sparse, 1e-8);
}

TEST(SparseIsvdTest, CfMatrixSparseLanczosMatchesDenseLanczos) {
  // A genuinely sparse (not low-rank) recommender matrix: both routes run
  // the same Lanczos algorithm, one matrix-free, one on the materialized
  // Gram matrix.
  Rng rng(34);
  RatingsConfig config;
  config.num_users = 150;
  config.num_items = 60;
  config.fill = 0.15;
  config.seed = 35;
  const SparseRatingsData data = GenerateSparseRatings(config);
  const SparseIntervalMatrix sparse = SparseCfIntervalMatrix(data, 0.3);
  const IntervalMatrix dense = sparse.ToDense();

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kLanczos;

  const IsvdResult from_dense = Isvd4(dense, 8, options);
  const IsvdResult from_sparse = RunIsvd(4, sparse, 8, options);
  ExpectResultsAgree(from_dense, from_sparse, 1e-6);
}

TEST(SparseIsvdTest, RankDeficientLowerEndpointStillDeliversRequestedRank) {
  // [0, x] intervals: the lower endpoint matrix is identically zero, so its
  // Gram operator has rank 0 and Lanczos breaks down immediately. The
  // restart logic must still deliver the requested eigenpair count or the
  // lower/upper pairing inside ISVD aborts.
  Rng rng(40);
  const size_t n = 30, m = 20, k = 5;
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!rng.Bernoulli(0.4)) continue;
      triplets.push_back({i, j, Interval(0.0, rng.Uniform(0.5, 1.0))});
    }
  }
  const SparseIntervalMatrix sparse =
      SparseIntervalMatrix::FromTriplets(n, m, std::move(triplets));

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kLanczos;
  // ISVD1–ISVD4 all decompose the zero lower endpoint; ISVD0 is excluded
  // (its midpoint matrix is non-zero, so its scalar core has no zero side).
  for (const int strategy : {1, 2, 3, 4}) {
    const IsvdResult result = RunIsvd(strategy, sparse, k, options);
    EXPECT_EQ(result.rank(), k) << "strategy " << strategy;
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(result.sigma[j].lo, 0.0, 1e-9)
          << "strategy " << strategy;  // zero endpoint
      EXPECT_GE(result.sigma[j].hi, 0.0) << "strategy " << strategy;
    }
  }
}

// The block-row store end to end: RunIsvd over a matrix copied into 32-row
// shards, memory- or mmap-backed, must agree with the CSR entry point — the
// same code on a zero-copy view whose partition ViewShardRows picks — for
// every strategy 0-4 and both sign regimes. Only the reduction grouping of
// the Gram/transpose applies differs (roundoff, amplified through the
// eigensolve; compared at the sparse-vs-dense agreement bound). The CSR
// reference pins GramSide::kMtM because the store overloads have no MMᵀ
// side (no transposed store exists). The mmap pass is the out-of-core
// decompose path, which must be numerically indistinguishable from the
// in-memory one.
SparseIntervalMatrix MakeSparseFixture(size_t rows, size_t cols, double fill,
                                       bool signed_values, uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Uniform() >= fill) continue;
      const double a =
          signed_values ? rng.Uniform(-2.0, 2.0) : rng.Uniform(0.5, 4.0);
      triplets.push_back({i, j, Interval(a, a + rng.Uniform())});
    }
  }
  return SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
}

class ShardedStoreAgreement
    : public ::testing::TestWithParam<::testing::tuple<int, bool, bool>> {};

TEST_P(ShardedStoreAgreement, ShardedStrategyMatchesCsrEntryPoint) {
  const int strategy = ::testing::get<0>(GetParam());
  const bool signed_values = ::testing::get<1>(GetParam());
  const bool mmap = ::testing::get<2>(GetParam());

  const size_t rows = 120, cols = 40, rank = 5;
  const SparseIntervalMatrix csr = MakeSparseFixture(
      rows, cols, 0.2, signed_values,
      900 + 10 * static_cast<uint64_t>(strategy) + signed_values);
  ASSERT_EQ(csr.IsNonNegative(), !signed_values);

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kLanczos;
  options.gram_side = GramSide::kMtM;

  const IsvdResult reference = RunIsvd(strategy, csr, rank, options);

  // Unaligned partition: 120 rows in shards of 32 leaves a 24-row tail.
  const ShardedSparseIntervalMatrix store =
      ShardedSparseIntervalMatrix::FromCsr(
          csr, 32, mmap ? BackingPolicy::Mmap() : BackingPolicy::Memory());
  ASSERT_EQ(store.mmap_backed(), mmap);
  ExpectResultsAgree(reference, RunIsvd(strategy, store, rank, options),
                     1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesSignsAndBackings, ShardedStoreAgreement,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ShardedStoreAgreement::ParamType>&
           info) {
      return "Isvd" + std::to_string(::testing::get<0>(info.param)) +
             (::testing::get<1>(info.param) ? "_Signed" : "_NonNegative") +
             (::testing::get<2>(info.param) ? "_Mmap" : "_Memory");
    });

void ExpectRelativelyNear(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-10 * std::fabs(want)) << what;
}

// Recorded values of one strategy and target on PinnedCfFixture at rank 10:
// σ₁–σ₁₀ and the ReconstructionChecksum of both reconstruction endpoints.
struct Pinned {
  int strategy;
  DecompositionTarget target;
  double sigma[10][2];  // (lo, hi)
  double checksum[2];   // lower, upper reconstruction
};

// A 400 x 150 CF fixture on which the default Lanczos step cap leaves the
// trailing triplets unconverged (σ₁₀ sits ~4e-7 relative off a
// full-dimension solve), so the values move with the start vector and with
// every step after the eigensolve.
SparseIntervalMatrix PinnedCfFixture() {
  RatingsConfig config;
  config.num_users = 400;
  config.num_items = 150;
  config.fill = 0.2;
  config.seed = 41;
  return SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
}

void ExpectPinned(const std::vector<Pinned>& pins) {
  const SparseIntervalMatrix m = PinnedCfFixture();
  ASSERT_EQ(m.nnz(), 12032u);
  for (const Pinned& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "strategy " << pin.strategy << ", target "
                 << static_cast<int>(pin.target));
    IsvdOptions options;
    options.target = pin.target;
    options.eig_solver = EigSolver::kLanczos;
    const IsvdResult result = RunIsvd(pin.strategy, m, 10, options);
    ASSERT_EQ(result.rank(), 10u);
    for (size_t j = 0; j < 10; ++j) {
      const std::string what = "sigma " + std::to_string(j);
      ExpectRelativelyNear(result.sigma[j].lo, pin.sigma[j][0], what + ".lo");
      ExpectRelativelyNear(result.sigma[j].hi, pin.sigma[j][1], what + ".hi");
    }
    const IntervalMatrix recon = result.Reconstruct();
    ExpectRelativelyNear(ReconstructionChecksum(recon.lower()),
                         pin.checksum[0], "checksum.lo");
    ExpectRelativelyNear(ReconstructionChecksum(recon.upper()),
                         pin.checksum[1], "checksum.hi");
  }
}

// ISVD0/ISVD1 start each Gram solve from Golub–Kahan's start vector
// v₀ = Mᵀr / ‖Mᵀr‖, r drawn over the rows from Rng(lanczos.seed), so they
// reproduce the values of the Golub–Kahan–Lanczos SVD they replaced; a
// solve from any other start vector lands elsewhere. The values are those
// of the Golub–Kahan route at %.17g; they hold at 1e-10 relative.
TEST(SparseIsvdFamilyTest, Isvd01KeepTheGolubKahanStartVector) {
  ExpectPinned({
      {0, DecompositionTarget::kB,
       {{151.5890054361559, 151.5890054361559},
        {40.665173204577457, 40.665173204577457},
        {40.071940614869419, 40.071940614869419},
        {39.208151662386761, 39.208151662386761},
        {38.50769691917727, 38.50769691917727},
        {38.256457827014366, 38.256457827014366},
        {38.041376690227438, 38.041376690227438},
        {37.943499186076984, 37.943499186076984},
        {37.695913787737219, 37.695913787737219},
        {37.166550082886353, 37.166550082886353}},
       {144893.77401077122, 144893.77401077122}},
      {1, DecompositionTarget::kB,
       {{139.0030375994458, 164.17416540223965},
        {36.703963540194138, 42.363509305628561},
        {35.997960610191235, 41.534683886535561},
        {35.947960110082107, 41.825175718014208},
        {35.305329235627276, 41.131223918238561},
        {34.97550399683707, 40.73284078500896},
        {32.879492127381162, 38.19462336778755},
        {31.320563506553853, 36.432461328872641},
        {32.544980379961196, 37.775052549611814},
        {33.452782763175506, 38.90294367199953}},
       {132646.895940455, 157124.51065973245}},
  });
}

// ISVD2–4 finish in the body they share with the dense path
// (core/isvd_internal.h), so a change to it moves the dense and the sparse
// results together, which no dense/sparse agreement test can see. These
// are the values of the matrix-free route (kLanczos on non-negative input)
// for every target, recorded at %.17g before the sparse and dense bodies
// were merged; they hold at 1e-10 relative.
TEST(SparseIsvdFamilyTest, Isvd234KeepTheirValues) {
  ExpectPinned({
      {2, DecompositionTarget::kA,
       {{139.00816136256611, 164.18021699325917},
        {37.786653069743195, 43.61314350139947},
        {37.219942480101473, 42.944614610984161},
        {36.257884410278258, 42.18577026288677},
        {35.584711961580254, 41.456708872178673},
        {35.358898254579906, 41.179345797317495},
        {35.214649707781788, 40.907272737430965},
        {35.106263541012581, 40.836041658172064},
        {34.893569304880451, 40.501066415271474},
        {34.37785677922416, 39.978696436306855}},
       {114652.66679558586, 173892.46750570004}},
      {2, DecompositionTarget::kB,
       {{139.00303759944504, 164.17416540223894},
        {36.703963540194771, 42.363509305629215},
        {35.997960610196394, 41.534683886541508},
        {35.947960109127905, 41.825175716904148},
        {35.305329252057149, 41.131223937380696},
        {34.975524652165994, 40.732864856941447},
        {32.879539496146954, 38.194680362042448},
        {31.320659919788785, 36.432580520901652},
        {32.544824662075953, 37.774871741990147},
        {33.453582385451163, 38.903839278985949}},
       {132646.81747744285, 157124.37061416253}},
      {2, DecompositionTarget::kC,
       {{151.588601500842, 151.588601500842},
        {39.533736422912, 39.533736422912},
        {38.766322248368958, 38.766322248368958},
        {38.88656791301603, 38.88656791301603},
        {38.218276594718922, 38.218276594718922},
        {37.854194754553724, 37.854194754553724},
        {35.537109929094704, 35.537109929094704},
        {33.876620220345217, 33.876620220345217},
        {35.159848202033047, 35.159848202033047},
        {36.178710832218563, 36.178710832218563}},
       {144885.59404580333, 144885.59404580333}},
      {3, DecompositionTarget::kA,
       {{139.00816136256611, 164.18021699325917},
        {37.786653069743195, 43.61314350139947},
        {37.219942480101473, 42.944614610984161},
        {36.257884410278258, 42.18577026288677},
        {35.584711961580254, 41.456708872178673},
        {35.358898254579906, 41.179345797317495},
        {35.214649707781788, 40.907272737430965},
        {35.106263541012581, 40.836041658172064},
        {34.893569304880451, 40.501066415271474},
        {34.37785677922416, 39.978696436306855}},
       {108804.57901268051, 183042.27472222529}},
      {3, DecompositionTarget::kB,
       {{139.00339768254531, 164.17459069037281},
        {37.75771241806325, 43.579740363195832},
        {37.215043776280723, 42.938962454273067},
        {36.247770466222256, 42.174002766593546},
        {35.580337882032964, 41.451613005656789},
        {35.351236281851115, 41.170422583075442},
        {35.257237438970336, 40.956744986891202},
        {35.103399196868054, 40.832709817497182},
        {34.950933599281605, 40.567649317040754},
        {34.374525503489615, 39.974822429204188}},
       {132620.02104769953, 157174.17673634665}},
      {3, DecompositionTarget::kC,
       {{151.58899418645908, 151.58899418645908},
        {40.668726390629544, 40.668726390629544},
        {40.077003115276895, 40.077003115276895},
        {39.210886616407898, 39.210886616407898},
        {38.51597544384488, 38.51597544384488},
        {38.260829432463282, 38.260829432463282},
        {38.106991212930772, 38.106991212930772},
        {37.968054507182622, 37.968054507182622},
        {37.759291458161179, 37.759291458161179},
        {37.174673966346901, 37.174673966346901}},
       {144897.09889202233, 144897.09889202233}},
      {4, DecompositionTarget::kA,
       {{139.00816136256611, 164.18021699325917},
        {37.786653069743195, 43.61314350139947},
        {37.219942480101473, 42.944614610984161},
        {36.257884410278258, 42.18577026288677},
        {35.584711961580254, 41.456708872178673},
        {35.358898254579906, 41.179345797317495},
        {35.214649707781788, 40.907272737430965},
        {35.106263541012581, 40.836041658172064},
        {34.893569304880451, 40.501066415271474},
        {34.37785677922416, 39.978696436306855}},
       {110363.24316791393, 187721.66682432216}},
      {4, DecompositionTarget::kB,
       {{139.00340630909176, 164.17460087904269},
        {37.757968116154387, 43.580035488501615},
        {37.215143163864099, 42.939077128320925},
        {36.247822672031369, 42.174063507651809},
        {35.58039653123241, 41.451681332830262},
        {35.351285502342137, 41.170479905778365},
        {35.257439405685908, 40.956979602529479},
        {35.103892104827978, 40.833283174156499},
        {34.951178482362927, 40.567933553538715},
        {34.374617004267648, 39.974928837286939}},
       {132621.19607835173, 157175.58808111283}},
      {4, DecompositionTarget::kC,
       {{151.58900359406724, 151.58900359406724},
        {40.669001802328005, 40.669001802328005},
        {40.077110146092515, 40.077110146092515},
        {39.210943089841592, 39.210943089841592},
        {38.516038932031343, 38.516038932031343},
        {38.260882704060251, 38.260882704060251},
        {38.107209504107693, 38.107209504107693},
        {37.968587639492242, 37.968587639492242},
        {37.759556017950821, 37.759556017950821},
        {37.174772920777301, 37.174772920777301}},
       {144898.39207973506, 144898.39207973506}},
  });
}

}  // namespace
}  // namespace ivmf
