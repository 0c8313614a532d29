#include "core/sparse_isvd.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/stopwatch.h"
#include "core/isvd_internal.h"
#include "interval/interval_ops.h"
#include "linalg/lanczos.h"
#include "linalg/pinv.h"

namespace ivmf {
namespace {

using isvd_internal::AlignMinSide;
using isvd_internal::BuildResult;
using isvd_internal::MakeIntervalDiag;
using isvd_internal::ScaleColumnsByInverseSigma;
using isvd_internal::SqrtClamped;

using Endpoint = ShardedSparseIntervalMatrix::Endpoint;

// Per-endpoint Krylov options: the shared policy plus the endpoint's
// warm-start basis (when the streaming driver carried one).
LanczosOptions SideLanczos(const IsvdOptions& options, bool upper) {
  LanczosOptions lanczos = options.lanczos;
  const Matrix& warm = upper ? options.warm_basis_hi : options.warm_basis_lo;
  if (warm.cols() > 0) lanczos.start_basis = warm;
  return lanczos;
}

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
      SideLanczos(options, endpoint == Endpoint::kUpper);
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

void CheckSpectraComplete(const GramEig& gram) {
  IVMF_CHECK_MSG(!gram.lo.truncated && !gram.hi.truncated,
                 "Lanczos truncated a Gram endpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");
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
  CheckSpectraComplete(gram);
  return gram;
}

// Degenerate 0 x m / n x 0 shapes: the empty decomposition, factors shaped
// to match. The dense path never hits this (dense constructions always have
// cells); the sparse entry points guard it so CLI / streaming callers fed an
// empty matrix get a well-formed rank-0 result instead of an abort.
bool DegenerateShape(const ShardedSparseIntervalMatrix& m) {
  return m.rows() == 0 || m.cols() == 0;
}

IsvdResult EmptyResult(const ShardedSparseIntervalMatrix& m,
                       DecompositionTarget target) {
  IsvdResult result;
  result.target = target;
  result.u = IntervalMatrix(m.rows(), 0);
  result.v = IntervalMatrix(m.cols(), 0);
  return result;
}

// Sparse counterpart of the SVD identity U = M V Σ⁻¹.
Matrix RecoverLeftFactor(const ShardedSparseIntervalMatrix& m, Endpoint e,
                         const Matrix& v, const std::vector<double>& sigma) {
  Matrix u = m.MultiplyDense(e, v);  // n x r
  ScaleColumnsByInverseSigma(u, sigma);
  return u;
}

// The shared ISVD3/ISVD4 front half on the sparse path (mirrors the dense
// SolveLeftFactor in core/isvd.cc).
struct SolvedLeft {
  IntervalMatrix u;
  IntervalMatrix v;
  std::vector<Interval> sigma;
  Matrix sigma_inv;
  PhaseTimings timings;
};

SolvedLeft SolveLeftFactor(const ShardedSparseIntervalMatrix& work,
                           const GramEig& gram, const IsvdOptions& options) {
  SolvedLeft out;
  out.timings.preprocess = gram.preprocess_seconds;
  out.timings.decompose = gram.decompose_seconds;

  Matrix v_lo = gram.lo.eigenvectors;
  const Matrix& v_hi = gram.hi.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);
  const std::vector<double> s_hi = SqrtClamped(gram.hi.eigenvalues);

  Stopwatch sw;
  const IlsaResult ilsa = ComputeIlsa(v_lo, v_hi, options.ilsa);
  AlignMinSide(ilsa, /*u_lo=*/nullptr, &v_lo, &s_lo);
  out.timings.align = sw.Seconds();

  out.v = IntervalMatrix(std::move(v_lo), v_hi);
  out.sigma = MakeIntervalDiag(s_lo, s_hi);

  // U† = M† ((V†)ᵀ)⁻¹ (Σ†)⁻¹ (Section 4.4.2): the inverses act on the small
  // averaged r-column factor; the only O(nnz) work is the final sparse
  // interval product.
  sw.Restart();
  const Matrix v_avg = out.v.Mid();
  const Matrix vt_inv =
      RobustInverse(v_avg.Transpose(), options.cond_threshold);  // m x r
  out.sigma_inv = Matrix::Diagonal(InverseIntervalDiagonal(out.sigma));
  out.u = work.IntervalMultiplyDense(vt_inv * out.sigma_inv);
  out.timings.solve = sw.Seconds();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// The strategy family over the block-row store.
//
// All O(nnz) work runs through the shard-parallel kernels, which stream
// mmap'd segments when the store is disk-backed. The Gram is always MᵀM
// (ShardedGramOperator is M_pᵀ(M_p x) by construction), and transposed
// products run as shard scatter reductions, so nothing here ever builds a
// transposed store. The CSR overloads at the bottom reach the MMᵀ side of
// ISVD2–4 by running this code on a view of the transpose.
// ---------------------------------------------------------------------------

IsvdResult Isvd0(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  if (DegenerateShape(m)) return EmptyResult(m, DecompositionTarget::kC);
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);
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

IsvdResult Isvd1(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  if (DegenerateShape(m)) return EmptyResult(m, options.target);
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);

  // The endpoint SVDs' V_e and σ_e² are the top eigenpairs of the
  // per-endpoint Grams M_eᵀM_e — not ComputeGramEig's, which on signed
  // input are the four-product Algorithm-1 endpoints. From there ISVD1
  // finishes as ISVD2 does: U_e = M_e V_e Σ_e⁻¹, ILSA on V, BuildResult.
  Stopwatch sw;
  GramEig gram =
      EndpointGramEig(m, r, RowSpaceStart(m, Endpoint::kLower, options),
                      RowSpaceStart(m, Endpoint::kUpper, options));
  gram.decompose_seconds = sw.Seconds();
  return Isvd2(m, r, gram, options);
}

GramEig ComputeGramEig(const ShardedSparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  GramEig result;
  if (DegenerateShape(m)) return result;  // rank-0 eigendecomposition
  const size_t r = isvd_internal::ClampRank(m.rows(), m.cols(), rank);

  bool use_lanczos = options.eig_solver != EigSolver::kJacobi;
  if (options.eig_solver == EigSolver::kAuto) {
    use_lanczos = 4 * r < m.cols();
  }

  // Signed input needs the dense Gram endpoints: the Algorithm-1 endpoints
  // are elementwise min/max over four products and have no operator form,
  // so they are accumulated from the sparse rows (never densifying M†) —
  // term-for-term identical to IntervalMatMul(M†ᵀ, M†). Non-negative input
  // forms them only on the exact Jacobi route for narrow matrices, where
  // they are M_*ᵀM_* and M^*ᵀM^*. Otherwise the route is matrix-free: each
  // Lanczos step is one fused shard-parallel pass over the store, and there
  // is no preprocess phase to charge.
  const bool non_negative = m.IsNonNegative();
  Stopwatch sw;
  if (non_negative && use_lanczos) {
    result = EndpointGramEig(m, r, SideLanczos(options, false),
                             SideLanczos(options, true));
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
  ParallelFor(0, 2, [&](size_t side) {
    const bool upper = side == 1;
    const Matrix& endpoint = upper ? result.gram.upper() : result.gram.lower();
    (upper ? result.hi : result.lo) =
        use_lanczos
            ? ComputeLanczosEig(endpoint, r, SideLanczos(options, upper))
            : ComputeSymmetricEig(endpoint, r, options.eig);
  });
  result.iterations = result.lo.iterations + result.hi.iterations;
  CheckSpectraComplete(result);
  result.decompose_seconds = sw.Seconds();
  return result;
}

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  if (DegenerateShape(m)) return EmptyResult(m, options.target);
  (void)rank;  // rank is baked into `gram`
  PhaseTimings timings;
  timings.preprocess = gram.preprocess_seconds;
  timings.decompose = gram.decompose_seconds;

  Matrix v_lo = gram.lo.eigenvectors;
  Matrix v_hi = gram.hi.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);
  std::vector<double> s_hi = SqrtClamped(gram.hi.eigenvalues);

  Stopwatch sw;
  Matrix u_lo = RecoverLeftFactor(m, Endpoint::kLower, v_lo, s_lo);
  Matrix u_hi = RecoverLeftFactor(m, Endpoint::kUpper, v_hi, s_hi);
  timings.solve = sw.Seconds();

  sw.Restart();
  const IlsaResult ilsa = ComputeIlsa(v_lo, v_hi, options.ilsa);
  AlignMinSide(ilsa, &u_lo, &v_lo, &s_lo);
  timings.align = sw.Seconds();

  IsvdResult result =
      BuildResult(IntervalMatrix(std::move(u_lo), std::move(u_hi)),
                  MakeIntervalDiag(s_lo, s_hi),
                  IntervalMatrix(std::move(v_lo), std::move(v_hi)),
                  options.target, timings);
  result.iterations = gram.iterations;
  return result;
}

IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  if (DegenerateShape(m)) return EmptyResult(m, options.target);
  (void)rank;
  SolvedLeft solved = SolveLeftFactor(m, gram, options);
  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma),
                  std::move(solved.v), options.target, solved.timings);
  result.iterations = gram.iterations;
  return result;
}

IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  if (DegenerateShape(m)) return EmptyResult(m, options.target);
  (void)rank;
  SolvedLeft solved = SolveLeftFactor(m, gram, options);

  // Recompute V† from the solved U† (Section 4.5.1). The scalar prefix
  // S = Σ†⁻¹ (U†ᵀ)⁻¹ is r x n, so V† = (S M†)ᵀ is evaluated as M†ᵀ Sᵀ —
  // one transposed sparse interval product, run as a shard scatter
  // reduction, matching the dense mixed-product semantics.
  Stopwatch sw;
  const Matrix u_avg = solved.u.Mid();  // n x r
  const Matrix u_inv = RobustInverse(u_avg, options.cond_threshold);  // r x n
  const Matrix s_t = (solved.sigma_inv * u_inv).Transpose();          // n x r
  const IntervalMatrix v_recomputed = m.IntervalMultiplyDenseTranspose(s_t);
  solved.timings.recompute = sw.Seconds();

  IsvdResult result =
      BuildResult(std::move(solved.u), std::move(solved.sigma), v_recomputed,
                  options.target, solved.timings);
  result.iterations = gram.iterations;
  return result;
}

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd2(m, rank, ComputeGramEig(m, rank, options), options);
}

IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd3(m, rank, ComputeGramEig(m, rank, options), options);
}

IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd4(m, rank, ComputeGramEig(m, rank, options), options);
}

IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options) {
  switch (strategy) {
    case 0:
      return Isvd0(m, rank, options);
    case 1:
      return Isvd1(m, rank, options);
    case 2:
      return Isvd2(m, rank, options);
    case 3:
      return Isvd3(m, rank, options);
    case 4:
      return Isvd4(m, rank, options);
    default:
      IVMF_CHECK_MSG(false, "ISVD strategy must be 0..4");
      return {};
  }
}

// ---------------------------------------------------------------------------
// CSR overloads: forwards through a zero-copy view.
// ---------------------------------------------------------------------------

namespace {

// The kMMt work store: a view that owns m.Transpose(), the only transpose
// in the family. Callers charge its time to preprocess.
ShardedSparseIntervalMatrix TransposedView(const SparseIntervalMatrix& m) {
  return ShardedSparseIntervalMatrix::View(
      std::make_shared<const SparseIntervalMatrix>(m.Transpose()),
      ShardedSparseIntervalMatrix::ViewShardRows(m.cols()));
}

// ISVD2–4 on a CSR matrix. The strategy runs on the work store of the Gram
// side — `gram`'s, or the resolved options.gram_side when `gram` is null,
// in which case the Gram is computed on that same store. kMtM borrows `m`;
// kMMt runs on TransposedView(m) and swaps the factors back.
IsvdResult GramStrategy(int strategy, const SparseIntervalMatrix& m,
                        size_t rank, const GramEig* gram,
                        const IsvdOptions& options) {
  const bool transposed =
      gram != nullptr ? gram->transposed
                      : ResolveGramSide(m, options.gram_side) == GramSide::kMMt;
  Stopwatch sw;
  const ShardedSparseIntervalMatrix work =
      transposed ? TransposedView(m)
                 : ShardedSparseIntervalMatrix::BorrowedView(m);
  const double transpose_seconds = transposed ? sw.Seconds() : 0.0;

  IsvdResult result;
  if (gram == nullptr) {
    result = RunIsvd(strategy, work, rank, options);
  } else if (strategy == 2) {
    result = Isvd2(work, rank, *gram, options);
  } else if (strategy == 3) {
    result = Isvd3(work, rank, *gram, options);
  } else {
    result = Isvd4(work, rank, *gram, options);
  }
  result.timings.preprocess += transpose_seconds;
  if (transposed) std::swap(result.u, result.v);
  return result;
}

}  // namespace

GramSide ResolveGramSide(const SparseIntervalMatrix& m, GramSide side) {
  if (side != GramSide::kAuto) return side;
  return m.cols() <= m.rows() ? GramSide::kMtM : GramSide::kMMt;
}

IsvdResult Isvd0(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return RunIsvd(0, m, rank, options);
}

IsvdResult Isvd1(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return RunIsvd(1, m, rank, options);
}

GramEig ComputeGramEig(const SparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  if (ResolveGramSide(m, options.gram_side) == GramSide::kMtM) {
    return ComputeGramEig(ShardedSparseIntervalMatrix::BorrowedView(m), rank,
                          options);
  }
  Stopwatch sw;
  const ShardedSparseIntervalMatrix work = TransposedView(m);
  const double transpose_seconds = sw.Seconds();
  GramEig gram = ComputeGramEig(work, rank, options);
  gram.transposed = true;
  gram.preprocess_seconds += transpose_seconds;
  return gram;
}

IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  return GramStrategy(2, m, rank, &gram, options);
}

IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  return GramStrategy(3, m, rank, &gram, options);
}

IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options) {
  return GramStrategy(4, m, rank, &gram, options);
}

IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return RunIsvd(2, m, rank, options);
}

IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return RunIsvd(3, m, rank, options);
}

IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return RunIsvd(4, m, rank, options);
}

IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options) {
  IVMF_CHECK_MSG(strategy >= 0 && strategy <= 4, "ISVD strategy must be 0..4");
  if (strategy >= 2) return GramStrategy(strategy, m, rank, nullptr, options);
  return RunIsvd(strategy, ShardedSparseIntervalMatrix::BorrowedView(m), rank,
                options);
}

}  // namespace ivmf
