#include "core/sparse_isvd.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/stopwatch.h"
#include "core/isvd_internal.h"
#include "linalg/lanczos.h"

namespace ivmf {

using Endpoint = ShardedSparseIntervalMatrix::Endpoint;

// The three products of the shared ISVD bodies (core/isvd_internal.h) on
// the block-row store: shard-parallel sparse x dense kernels, with the
// transposed product run as a shard scatter reduction.
namespace isvd_internal {

Matrix EndpointTimes(const ShardedSparseIntervalMatrix& m, bool upper,
                     const Matrix& b) {
  return m.MultiplyDense(upper ? Endpoint::kUpper : Endpoint::kLower, b);
}

IntervalMatrix IntervalTimes(const ShardedSparseIntervalMatrix& m,
                             const Matrix& b) {
  return m.IntervalMultiplyDense(b);
}

// (S M†)ᵀ = M†ᵀ Sᵀ: one transposed sparse interval product with the same
// mixed-product semantics as the dense IntervalMatMul(S, M†).
IntervalMatrix LeftTimesTransposed(const Matrix& s,
                                   const ShardedSparseIntervalMatrix& m) {
  return m.IntervalMultiplyDenseTranspose(s.Transpose());
}

}  // namespace isvd_internal

namespace {

using isvd_internal::EndpointLanczos;
using isvd_internal::ScaleColumnsByInverseSigma;
using isvd_internal::SqrtClamped;

// ISVD0/1's Krylov options for the Gram of M_p, the midpoint matrix
// (`endpoint` empty) or an endpoint matrix. A carried warm basis wins;
// otherwise the solve starts where Golub–Kahan bidiagonalization of M_p
// starts, from v₀ = M_pᵀr / ‖M_pᵀr‖ with r drawn over the rows from
// Rng(lanczos.seed). Lanczos on M_pᵀM_p from v₀ then builds Golub–Kahan's
// Krylov space (its tridiagonal is B_kᵀB_k), so the Ritz values and right
// Ritz vectors are the bidiagonalization's, and v₀ lies in the row space,
// so no step is spent on the nullspace. When M_pᵀr ≈ 0 the one-column
// basis is rejected by the solver, which then draws its own random start.
LanczosOptions RowSpaceStart(const ShardedSparseIntervalMatrix& m,
                             std::optional<Endpoint> endpoint,
                             const IsvdOptions& options) {
  LanczosOptions lanczos =
      EndpointLanczos(options, endpoint == Endpoint::kUpper);
  if (lanczos.start_basis.cols() > 0) return lanczos;
  Rng rng(lanczos.seed);
  std::vector<double> r(m.rows()), v;
  for (double& x : r) x = rng.Normal();
  if (endpoint) {
    m.MultiplyTranspose(*endpoint, r, v);
  } else {
    m.MultiplyTransposeMid(r, v);
  }
  lanczos.start_basis = Matrix(v.size(), 1);
  for (size_t i = 0; i < v.size(); ++i) lanczos.start_basis(i, 0) = v[i];
  return lanczos;
}

// Lanczos on the per-endpoint Grams M_eᵀM_e, both endpoints in parallel
// and one ShardedGramOperator each: ISVD1's decomposition, and the
// matrix-free ISVD2-4 route on non-negative input, where these are the
// Algorithm-1 Gram endpoints. The caller times it.
GramEig EndpointGramEig(const ShardedSparseIntervalMatrix& m, size_t r,
                        const LanczosOptions& lo, const LanczosOptions& hi) {
  GramEig gram;
  ParallelFor(0, 2, [&](size_t side) {
    const bool upper = side == 1;
    const ShardedGramOperator op(m, upper ? Endpoint::kUpper
                                          : Endpoint::kLower);
    (upper ? gram.hi : gram.lo) = ComputeLanczosEig(op, r, upper ? hi : lo);
  });
  gram.iterations = gram.lo.iterations + gram.hi.iterations;
  isvd_internal::CheckSpectraComplete(gram);
  return gram;
}

// ISVD0 (midpoint SVD) without materializing the midpoint matrix: Lanczos
// on M_midᵀM_mid, M_mid = (M_* + M^*) / 2 applied fused over the shared
// sparse pattern, then U = M_mid V Σ⁻¹ (timed as solve). Always target c.
IsvdResult Isvd0(const ShardedSparseIntervalMatrix& m, size_t r,
                 const IsvdOptions& options) {
  PhaseTimings timings;  // nothing to preprocess: no transpose is built

  // The midpoint SVD's V and σ² are the top eigenpairs of M_midᵀM_mid.
  Stopwatch sw;
  const EigResult eig =
      ComputeLanczosEig(ShardedGramOperator::Mid(m), r,
                        RowSpaceStart(m, std::nullopt, options));
  timings.decompose = sw.Seconds();
  IVMF_CHECK_MSG(!eig.truncated,
                 "Lanczos truncated the midpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");

  // U = M_mid V Σ⁻¹, with M_mid V the mean of the endpoint products.
  sw.Restart();
  const std::vector<double> sigma = SqrtClamped(eig.eigenvalues);
  Matrix u = m.MultiplyDense(Endpoint::kLower, eig.eigenvectors);
  u += m.MultiplyDense(Endpoint::kUpper, eig.eigenvectors);
  u *= 0.5;
  ScaleColumnsByInverseSigma(u, sigma);
  timings.solve = sw.Seconds();

  IsvdResult result;
  result.iterations = eig.iterations;
  result.target = DecompositionTarget::kC;  // ISVD0 is inherently scalar.
  result.u = IntervalMatrix::FromScalar(u);
  result.v = IntervalMatrix::FromScalar(eig.eigenvectors);
  result.sigma.resize(sigma.size());
  for (size_t j = 0; j < sigma.size(); ++j)
    result.sigma[j] = Interval::Scalar(sigma[j]);
  result.timings = timings;
  return result;
}

// ISVD1 (endpoint SVDs + ILSA): the endpoint SVDs' V_e and σ_e² are the top
// eigenpairs of the per-endpoint Grams M_eᵀM_e — not ComputeGramEig's,
// which on signed input are the four-product Algorithm-1 endpoints. From
// there ISVD1 finishes as ISVD2 does: U_e = M_e V_e Σ_e⁻¹, ILSA on V,
// BuildResult.
IsvdResult Isvd1(const ShardedSparseIntervalMatrix& m, size_t r,
                 const IsvdOptions& options) {
  Stopwatch sw;
  GramEig gram =
      EndpointGramEig(m, r, RowSpaceStart(m, Endpoint::kLower, options),
                      RowSpaceStart(m, Endpoint::kUpper, options));
  gram.decompose_seconds = sw.Seconds();
  return isvd_internal::Isvd2FromGram(m, gram, options);
}

// The Algorithm-1 Gram endpoints' top-r eigenpairs (ISVD2–4). Signed input
// needs the dense Gram endpoints: they are elementwise min/max over four
// products and have no operator form, so they are accumulated from the
// sparse rows (never densifying M†) — term-for-term identical to
// IntervalMatMul(M†ᵀ, M†). Non-negative input forms them only on the exact
// Jacobi route, where they are M_*ᵀM_* and M^*ᵀM^*. Otherwise the route is
// matrix-free: each Lanczos step is one fused shard-parallel pass over the
// store, and there is no preprocess phase to charge.
GramEig ComputeGramEig(const ShardedSparseIntervalMatrix& m, size_t r,
                       const IsvdOptions& options) {
  bool use_lanczos = options.eig_solver != EigSolver::kJacobi;
  if (options.eig_solver == EigSolver::kAuto) {
    use_lanczos = 4 * r < m.cols();
  }

  const bool non_negative = m.IsNonNegative();
  Stopwatch sw;
  GramEig result;
  if (non_negative && use_lanczos) {
    result = EndpointGramEig(m, r, EndpointLanczos(options, false),
                             EndpointLanczos(options, true));
    result.decompose_seconds = sw.Seconds();
    return result;
  }

  result.gram =
      non_negative
          ? IntervalMatrix(
                ShardedSparseIntervalMatrix::DenseGram(m, Endpoint::kLower),
                ShardedSparseIntervalMatrix::DenseGram(m, Endpoint::kUpper))
          : ShardedSparseIntervalMatrix::DenseGramEndpoints(m);
  result.preprocess_seconds = sw.Seconds();
  sw.Restart();
  isvd_internal::EigGramEndpoints(result, r, use_lanczos, options);
  result.decompose_seconds = sw.Seconds();
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// The strategy family over the block-row store.
//
// All O(nnz) work runs through the shard-parallel kernels, which stream
// mmap'd segments when the store is disk-backed. The Gram is always MᵀM
// (ShardedGramOperator is M_pᵀ(M_p x) by construction), and transposed
// products run as shard scatter reductions, so nothing here ever builds a
// transposed store. The CSR overload below reaches the MMᵀ side of ISVD2–4
// by running this code on a view of the transpose.
// ---------------------------------------------------------------------------

IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options) {
  IVMF_CHECK_MSG(strategy >= 0 && strategy <= 4, "ISVD strategy must be 0..4");
  // Degenerate 0 x m / n x 0 shapes: the empty decomposition, factors
  // shaped to match, so CLI and streaming callers fed an empty matrix get a
  // well-formed rank-0 result instead of an abort.
  if (m.rows() == 0 || m.cols() == 0) {
    IsvdResult result;
    result.target = strategy == 0 ? DecompositionTarget::kC : options.target;
    result.u = IntervalMatrix(m.rows(), 0);
    result.v = IntervalMatrix(m.cols(), 0);
    return result;
  }
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);
  if (strategy == 0) return Isvd0(m, r, options);
  if (strategy == 1) return Isvd1(m, r, options);
  const GramEig gram = ComputeGramEig(m, r, options);
  if (strategy == 2) return isvd_internal::Isvd2FromGram(m, gram, options);
  return isvd_internal::Isvd34FromGram(m, gram, options,
                                       /*recompute=*/strategy == 4);
}

GramSide ResolveGramSide(const SparseIntervalMatrix& m, GramSide side) {
  if (side != GramSide::kAuto) return side;
  return m.cols() <= m.rows() ? GramSide::kMtM : GramSide::kMMt;
}

IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options) {
  IVMF_CHECK_MSG(strategy >= 0 && strategy <= 4, "ISVD strategy must be 0..4");
  if (strategy < 2 || ResolveGramSide(m, options.gram_side) == GramSide::kMtM) {
    return RunIsvd(strategy, ShardedSparseIntervalMatrix::BorrowedView(m),
                   rank, options);
  }
  // kMMt: the same code on a view that owns m.Transpose(), the only
  // transpose in the family, charged to preprocess; the factors swap back.
  Stopwatch sw;
  const ShardedSparseIntervalMatrix work = ShardedSparseIntervalMatrix::View(
      std::make_shared<const SparseIntervalMatrix>(m.Transpose()),
      ShardedSparseIntervalMatrix::ViewShardRows(m.cols()));
  const double transpose_seconds = sw.Seconds();
  IsvdResult result = RunIsvd(strategy, work, rank, options);
  result.timings.preprocess += transpose_seconds;
  std::swap(result.u, result.v);
  return result;
}

}  // namespace ivmf
