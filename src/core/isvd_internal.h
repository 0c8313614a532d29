// The ISVD pipeline after the eigensolve, shared by the dense strategies
// (core/isvd.cc), the block-store strategies (core/sparse_isvd.cc) and the
// LP competitor (core/lp_isvd.cc). Not part of the public API.
//
// ISVD2–4 (Sections 4.3–4.5) run one body for every work matrix: the
// templates below are the only copy of the solve / align / recompute code.
// They reach the work matrix M† only through three products:
//   EndpointTimes(M, upper, B)  M_e B, one endpoint times a scalar block
//                               (U_e = M_e V_e Σ_e⁻¹ in ISVD2);
//   IntervalTimes(M, B)         M† B, the mixed interval-scalar product
//                               (U† = M† (V†ᵀ)⁻¹ Σ†⁻¹ in ISVD3/4);
//   LeftTimesTransposed(S, M)   (S M†)ᵀ for a scalar r x n S (ISVD4's
//                               recomputed V†).
// The dense overloads (isvd.cc) are the dense operator* and IntervalMatMul;
// the block-store overloads (sparse_isvd.cc) are its MultiplyDense,
// IntervalMultiplyDense and IntervalMultiplyDenseTranspose kernels. The
// work matrix is the one whose MᵀM Gram was eigendecomposed; callers on
// the MMᵀ side pass the transpose and swap the factors back.

#ifndef IVMF_CORE_ISVD_INTERNAL_H_
#define IVMF_CORE_ISVD_INTERNAL_H_

#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "core/isvd.h"
#include "interval/interval_ops.h"
#include "linalg/pinv.h"

namespace ivmf {

class ShardedSparseIntervalMatrix;

namespace isvd_internal {

// -- The three products ------------------------------------------------------

Matrix EndpointTimes(const IntervalMatrix& m, bool upper, const Matrix& b);
Matrix EndpointTimes(const ShardedSparseIntervalMatrix& m, bool upper,
                     const Matrix& b);

IntervalMatrix IntervalTimes(const IntervalMatrix& m, const Matrix& b);
IntervalMatrix IntervalTimes(const ShardedSparseIntervalMatrix& m,
                             const Matrix& b);

IntervalMatrix LeftTimesTransposed(const Matrix& s, const IntervalMatrix& m);
IntervalMatrix LeftTimesTransposed(const Matrix& s,
                                   const ShardedSparseIntervalMatrix& m);

// -- Shared helpers (isvd.cc) ------------------------------------------------

// Section 3.4 — builds the final result for the requested decomposition
// target: average replacement (Algorithms 2–3) followed by the per-target
// construction (interval factors, or renormalized scalar factors with the
// column norms folded into the core). Adds its own time to
// timings.renormalize.
IsvdResult BuildResult(IntervalMatrix u, std::vector<Interval> sigma,
                       IntervalMatrix v, DecompositionTarget target,
                       PhaseTimings timings);

// The tail of ISVD1 and ISVD2: ILSA on the endpoint V pair, applied to the
// min side (AlignMinSide, timed as align), then BuildResult.
IsvdResult AlignAndBuild(SvdResult lo, SvdResult hi,
                         const IsvdOptions& options, PhaseTimings timings);

// Effective rank: 0 (or an over-ask) means full rank min(rows, cols).
size_t ClampRank(size_t rows, size_t cols, size_t rank);

// Singular values from Gram-matrix eigenvalues: sqrt of the non-negative
// part (tiny negative eigenvalues appear from rounding).
std::vector<double> SqrtClamped(const std::vector<double>& eigenvalues);

// Pairs per-entry endpoints into an interval diagonal.
std::vector<Interval> MakeIntervalDiag(const std::vector<double>& lo,
                                       const std::vector<double>& hi);

// Applies ILSA (computed on the V pair) to all min-side matrices, per
// Algorithms 8–9: permute columns of U_*, V_* and entries of sigma_*, and
// flip the direction of misaligned U_*/V_* columns. Null arguments are
// skipped.
void AlignMinSide(const IlsaResult& ilsa, Matrix* u_lo, Matrix* v_lo,
                  std::vector<double>* s_lo);

// In-place column scaling by 1 / sigma_j; zero singular values produce zero
// columns (the second half of the SVD identity U = M V Σ⁻¹).
void ScaleColumnsByInverseSigma(Matrix& u, const std::vector<double>& sigma);

// The Krylov options of one endpoint solve: options.lanczos, started from
// the endpoint's warm basis when the streaming driver carried one.
LanczosOptions EndpointLanczos(const IsvdOptions& options, bool upper);

// Aborts when Lanczos truncated either endpoint spectrum.
void CheckSpectraComplete(const GramEig& gram);

// Eigendecomposes both endpoints of the materialized gram.gram on two
// threads — Jacobi, or Lanczos from EndpointLanczos — and fills gram.lo,
// gram.hi and gram.iterations. The caller times it.
void EigGramEndpoints(GramEig& gram, size_t rank, bool use_lanczos,
                      const IsvdOptions& options);

// -- The strategy bodies -----------------------------------------------------

inline PhaseTimings GramTimings(const GramEig& gram) {
  PhaseTimings timings;
  timings.preprocess = gram.preprocess_seconds;
  timings.decompose = gram.decompose_seconds;
  return timings;
}

// U† = M† (V†ᵀ)⁻¹ Σ†⁻¹ (Section 4.4.2), with sigma_inv the r x r diagonal
// Σ†⁻¹ of InverseIntervalDiagonal. (V†ᵀ)⁻¹ is approximated through the
// averaged factor (Section 4.4.2.2): plain inverse when square and
// well-conditioned, else the Moore–Penrose pseudo-inverse with the paper's
// 0.1 singular-value cutoff. The inverses act on the small r-column factor;
// the only pass over M† is the final interval product.
template <typename Work>
IntervalMatrix SolveLeftFactor(const Work& m, const IntervalMatrix& v,
                               const Matrix& sigma_inv,
                               double cond_threshold) {
  const Matrix vt_inv =
      RobustInverse(v.Mid().Transpose(), cond_threshold);  // m x r
  return IntervalTimes(m, vt_inv * sigma_inv);
}

// ISVD2 (Section 4.3) from the Gram eigenpairs: U_e = M_e V_e Σ_e⁻¹ (timed
// as solve), then AlignAndBuild.
template <typename Work>
IsvdResult Isvd2FromGram(const Work& m, const GramEig& gram,
                         const IsvdOptions& options) {
  PhaseTimings timings = GramTimings(gram);
  SvdResult lo, hi;
  lo.v = gram.lo.eigenvectors;
  hi.v = gram.hi.eigenvectors;
  lo.sigma = SqrtClamped(gram.lo.eigenvalues);
  hi.sigma = SqrtClamped(gram.hi.eigenvalues);

  Stopwatch sw;
  lo.u = EndpointTimes(m, /*upper=*/false, lo.v);  // n x r
  ScaleColumnsByInverseSigma(lo.u, lo.sigma);
  hi.u = EndpointTimes(m, /*upper=*/true, hi.v);
  ScaleColumnsByInverseSigma(hi.u, hi.sigma);
  timings.solve = sw.Seconds();

  IsvdResult result =
      AlignAndBuild(std::move(lo), std::move(hi), options, timings);
  result.iterations = gram.iterations;
  return result;
}

// ISVD3 (Section 4.4) and, with `recompute`, ISVD4 (Section 4.5) from the
// Gram eigenpairs: align V†/Σ†, solve for U†, and for ISVD4 recompute
// V† = (Σ†⁻¹ (U†ᵀ)⁻¹ M†)ᵀ, with (U†ᵀ)⁻¹ approximated through the averaged
// factor like the V inversion.
template <typename Work>
IsvdResult Isvd34FromGram(const Work& m, const GramEig& gram,
                          const IsvdOptions& options, bool recompute) {
  PhaseTimings timings = GramTimings(gram);
  Matrix v_lo = gram.lo.eigenvectors;
  std::vector<double> s_lo = SqrtClamped(gram.lo.eigenvalues);

  Stopwatch sw;
  const IlsaResult ilsa =
      ComputeIlsa(v_lo, gram.hi.eigenvectors, options.ilsa);
  AlignMinSide(ilsa, /*u_lo=*/nullptr, &v_lo, &s_lo);
  timings.align = sw.Seconds();
  IntervalMatrix v(std::move(v_lo), gram.hi.eigenvectors);
  std::vector<Interval> sigma =
      MakeIntervalDiag(s_lo, SqrtClamped(gram.hi.eigenvalues));

  sw.Restart();
  const Matrix sigma_inv = Matrix::Diagonal(InverseIntervalDiagonal(sigma));
  IntervalMatrix u = SolveLeftFactor(m, v, sigma_inv, options.cond_threshold);
  timings.solve = sw.Seconds();

  if (recompute) {
    sw.Restart();
    const Matrix u_inv =
        RobustInverse(u.Mid(), options.cond_threshold);  // r x n
    v = LeftTimesTransposed(sigma_inv * u_inv, m);  // m x r
    timings.recompute = sw.Seconds();
  }

  IsvdResult result = BuildResult(std::move(u), std::move(sigma), std::move(v),
                                  options.target, timings);
  result.iterations = gram.iterations;
  return result;
}

}  // namespace isvd_internal
}  // namespace ivmf

#endif  // IVMF_CORE_ISVD_INTERNAL_H_
