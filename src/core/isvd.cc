#include "core/isvd.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/parallel.h"
#include "base/stopwatch.h"
#include "core/isvd_internal.h"
#include "interval/interval_ops.h"

namespace ivmf {
namespace {

size_t ClampRank(const IntervalMatrix& m, size_t rank) {
  return isvd_internal::ClampRank(m.rows(), m.cols(), rank);
}

GramSide ResolveSide(const IntervalMatrix& m, GramSide side) {
  if (side != GramSide::kAuto) return side;
  return m.cols() <= m.rows() ? GramSide::kMtM : GramSide::kMMt;
}

// Runs `body` on the work matrix of `gram` — M†, or M†ᵀ on the kMMt route —
// and swaps the factors back for the transpose.
template <typename Body>
IsvdResult OnGramWork(const IntervalMatrix& m, const GramEig& gram,
                      Body body) {
  if (!gram.transposed) return body(m);
  IsvdResult result = body(m.Transpose());
  std::swap(result.u, result.v);
  return result;
}

}  // namespace

namespace isvd_internal {

size_t ClampRank(size_t rows, size_t cols, size_t rank) {
  const size_t full = std::min(rows, cols);
  if (rank == 0 || rank > full) return full;
  return rank;
}

std::vector<double> SqrtClamped(const std::vector<double>& eigenvalues) {
  std::vector<double> sigma(eigenvalues.size());
  for (size_t i = 0; i < eigenvalues.size(); ++i)
    sigma[i] = eigenvalues[i] > 0.0 ? std::sqrt(eigenvalues[i]) : 0.0;
  return sigma;
}

std::vector<Interval> MakeIntervalDiag(const std::vector<double>& lo,
                                       const std::vector<double>& hi) {
  IVMF_CHECK(lo.size() == hi.size());
  std::vector<Interval> diag(lo.size());
  for (size_t i = 0; i < lo.size(); ++i) diag[i] = Interval(lo[i], hi[i]);
  return diag;
}

void AlignMinSide(const IlsaResult& ilsa, Matrix* u_lo, Matrix* v_lo,
                  std::vector<double>* s_lo) {
  if (u_lo != nullptr) *u_lo = ApplyIlsaToColumns(*u_lo, ilsa);
  if (v_lo != nullptr) *v_lo = ApplyIlsaToColumns(*v_lo, ilsa);
  if (s_lo != nullptr) *s_lo = ApplyIlsaToDiagonal(*s_lo, ilsa);
}

void ScaleColumnsByInverseSigma(Matrix& u, const std::vector<double>& sigma) {
  const size_t r = u.cols();
  std::vector<double> inv(r);
  for (size_t j = 0; j < r; ++j)
    inv[j] = sigma[j] > 1e-300 ? 1.0 / sigma[j] : 0.0;
  for (size_t i = 0; i < u.rows(); ++i) {
    double* row = u.RowPtr(i);
    for (size_t j = 0; j < r; ++j) row[j] *= inv[j];
  }
}

Matrix EndpointTimes(const IntervalMatrix& m, bool upper, const Matrix& b) {
  return (upper ? m.upper() : m.lower()) * b;
}

IntervalMatrix IntervalTimes(const IntervalMatrix& m, const Matrix& b) {
  return IntervalMatMul(m, b);
}

IntervalMatrix LeftTimesTransposed(const Matrix& s, const IntervalMatrix& m) {
  return IntervalMatMul(s, m).Transpose();
}

LanczosOptions EndpointLanczos(const IsvdOptions& options, bool upper) {
  LanczosOptions lanczos = options.lanczos;
  const Matrix& warm = upper ? options.warm_basis_hi : options.warm_basis_lo;
  if (warm.cols() > 0) lanczos.start_basis = warm;
  return lanczos;
}

void CheckSpectraComplete(const GramEig& gram) {
  IVMF_CHECK_MSG(!gram.lo.truncated && !gram.hi.truncated,
                 "Lanczos truncated a Gram endpoint spectrum "
                 "(restart exhausted; see LanczosOptions::restart_tolerance)");
}

void EigGramEndpoints(GramEig& gram, size_t rank, bool use_lanczos,
                      const IsvdOptions& options) {
  // The two endpoint eigendecompositions are independent; run them on two
  // threads (ParallelFor keeps the serial path when only one core exists).
  ParallelFor(0, 2, [&](size_t side) {
    const bool upper = side == 1;
    const Matrix& endpoint = upper ? gram.gram.upper() : gram.gram.lower();
    (upper ? gram.hi : gram.lo) =
        use_lanczos
            ? ComputeLanczosEig(endpoint, rank, EndpointLanczos(options, upper))
            : ComputeSymmetricEig(endpoint, rank, options.eig);
  });
  gram.iterations = gram.lo.iterations + gram.hi.iterations;
  CheckSpectraComplete(gram);
}

IsvdResult AlignAndBuild(SvdResult lo, SvdResult hi,
                         const IsvdOptions& options, PhaseTimings timings) {
  Stopwatch sw;
  const IlsaResult ilsa = ComputeIlsa(lo.v, hi.v, options.ilsa);
  AlignMinSide(ilsa, &lo.u, &lo.v, &lo.sigma);
  timings.align = sw.Seconds();
  return BuildResult(IntervalMatrix(std::move(lo.u), std::move(hi.u)),
                     MakeIntervalDiag(lo.sigma, hi.sigma),
                     IntervalMatrix(std::move(lo.v), std::move(hi.v)),
                     options.target, timings);
}

IsvdResult BuildResult(IntervalMatrix u, std::vector<Interval> sigma,
                       IntervalMatrix v, DecompositionTarget target,
                       PhaseTimings timings) {
  Stopwatch sw;
  u = u.AverageReplaced();
  v = v.AverageReplaced();
  AverageReplaceVector(sigma);

  IsvdResult result;
  result.target = target;
  if (target == DecompositionTarget::kA) {
    result.u = std::move(u);
    result.sigma = std::move(sigma);
    result.v = std::move(v);
  } else {
    // Targets b and c: average the factor endpoints, renormalize columns in
    // L2, and push the norm products into the core (Sections 3.4.2–3.4.3).
    Matrix u_avg = u.Mid();
    Matrix v_avg = v.Mid();
    const std::vector<double> u_norms = NormalizeColumnsL2(u_avg);
    const std::vector<double> v_norms = NormalizeColumnsL2(v_avg);
    result.u = IntervalMatrix::FromScalar(u_avg);
    result.v = IntervalMatrix::FromScalar(v_avg);
    result.sigma.resize(sigma.size());
    for (size_t j = 0; j < sigma.size(); ++j) {
      const double rho = u_norms[j] * v_norms[j];
      if (target == DecompositionTarget::kB) {
        result.sigma[j] = Interval(sigma[j].lo * rho, sigma[j].hi * rho);
      } else {
        result.sigma[j] = Interval::Scalar(sigma[j].Mid() * rho);
      }
    }
  }
  timings.renormalize += sw.Seconds();
  result.timings = timings;
  return result;
}

}  // namespace isvd_internal

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& other) {
  preprocess += other.preprocess;
  decompose += other.decompose;
  align += other.align;
  solve += other.solve;
  recompute += other.recompute;
  renormalize += other.renormalize;
  return *this;
}

Matrix IsvdResult::SigmaLower() const {
  std::vector<double> d(sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) d[i] = sigma[i].lo;
  return Matrix::Diagonal(d);
}

Matrix IsvdResult::SigmaUpper() const {
  std::vector<double> d(sigma.size());
  for (size_t i = 0; i < sigma.size(); ++i) d[i] = sigma[i].hi;
  return Matrix::Diagonal(d);
}

IntervalMatrix IsvdResult::Reconstruct() const {
  switch (target) {
    case DecompositionTarget::kA: {
      // Algorithm 12: full interval-algebra recombination.
      const IntervalMatrix sigma_int(SigmaLower(), SigmaUpper());
      return IntervalMatMul(IntervalMatMul(u, sigma_int), v.Transpose());
    }
    case DecompositionTarget::kB: {
      // Algorithm 13: scalar factors with the two core endpoints, then
      // average replacement of misordered entries.
      const Matrix& su = ScalarU();
      const Matrix vt = ScalarV().Transpose();
      const Matrix lo = su * SigmaLower() * vt;
      const Matrix hi = su * SigmaUpper() * vt;
      return IntervalMatrix(lo, hi).AverageReplaced();
    }
    case DecompositionTarget::kC: {
      // Algorithm 14: fully scalar reconstruction.
      const Matrix mid = ScalarU() * SigmaLower() * ScalarV().Transpose();
      return IntervalMatrix::FromScalar(mid);
    }
  }
  IVMF_CHECK_MSG(false, "unknown decomposition target");
  return {};
}

// ---------------------------------------------------------------------------
// ISVD0 — average and decompose (Section 4.1).
// ---------------------------------------------------------------------------

IsvdResult Isvd0(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  const size_t r = ClampRank(m, rank);
  PhaseTimings timings;

  Stopwatch sw;
  const Matrix m_avg = m.Mid();
  timings.preprocess = sw.Seconds();

  sw.Restart();
  const SvdResult svd = ComputeSvd(m_avg, r, options.svd);
  timings.decompose = sw.Seconds();

  IsvdResult result;
  result.target = DecompositionTarget::kC;  // ISVD0 is inherently scalar.
  result.u = IntervalMatrix::FromScalar(svd.u);
  result.v = IntervalMatrix::FromScalar(svd.v);
  result.sigma.resize(r);
  for (size_t j = 0; j < r; ++j)
    result.sigma[j] = Interval::Scalar(svd.sigma[j]);
  result.timings = timings;
  return result;
}

// ---------------------------------------------------------------------------
// ISVD1 — decompose and align (Section 4.2).
// ---------------------------------------------------------------------------

IsvdResult Isvd1(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  const size_t r = ClampRank(m, rank);
  PhaseTimings timings;

  Stopwatch sw;
  SvdResult lo, hi;
  // Independent endpoint decompositions run on two threads.
  ParallelFor(0, 2, [&](size_t side) {
    if (side == 0) {
      lo = ComputeSvd(m.lower(), r, options.svd);
    } else {
      hi = ComputeSvd(m.upper(), r, options.svd);
    }
  });
  timings.decompose = sw.Seconds();
  return isvd_internal::AlignAndBuild(std::move(lo), std::move(hi), options,
                                      timings);
}

// ---------------------------------------------------------------------------
// Shared Gram-eigendecomposition for ISVD2–ISVD4 (Section 4.3.1).
// ---------------------------------------------------------------------------

GramEig ComputeGramEig(const IntervalMatrix& m, size_t rank,
                       const IsvdOptions& options) {
  GramEig result;
  result.transposed = ResolveSide(m, options.gram_side) == GramSide::kMMt;
  const IntervalMatrix work = result.transposed ? m.Transpose() : m;
  const size_t r = ClampRank(work, rank);

  Stopwatch sw;
  // A† = M†ᵀ M† via interval matrix multiplication (Algorithm 1). The
  // endpoint matrices of A† are symmetric because the min/max of the four
  // endpoint products is invariant under transposition.
  result.gram = IntervalMatMul(work.Transpose(), work);
  result.preprocess_seconds = sw.Seconds();

  // Solver choice: Lanczos pays off when only a small leading subspace is
  // needed; Jacobi computes the full spectrum.
  bool use_lanczos = options.eig_solver == EigSolver::kLanczos;
  if (options.eig_solver == EigSolver::kAuto) {
    use_lanczos = 4 * r < result.gram.rows();
  }

  sw.Restart();
  isvd_internal::EigGramEndpoints(result, r, use_lanczos, options);
  result.decompose_seconds = sw.Seconds();
  return result;
}

GramEig TruncateGramEig(const GramEig& full, size_t rank) {
  GramEig out;
  out.gram = full.gram;
  out.transposed = full.transposed;
  out.preprocess_seconds = full.preprocess_seconds;
  out.decompose_seconds = full.decompose_seconds;
  out.iterations = full.iterations;
  const size_t keep_lo = std::min(rank, full.lo.eigenvalues.size());
  const size_t keep_hi = std::min(rank, full.hi.eigenvalues.size());
  out.lo.eigenvalues.assign(full.lo.eigenvalues.begin(),
                            full.lo.eigenvalues.begin() + keep_lo);
  out.hi.eigenvalues.assign(full.hi.eigenvalues.begin(),
                            full.hi.eigenvalues.begin() + keep_hi);
  out.lo.eigenvectors = full.lo.eigenvectors.ColBlock(0, keep_lo);
  out.hi.eigenvectors = full.hi.eigenvectors.ColBlock(0, keep_hi);
  return out;
}

// ---------------------------------------------------------------------------
// ISVD2–ISVD4 (Sections 4.3–4.5): the shared bodies of core/isvd_internal.h
// on the Gram's work matrix. `rank` is baked into `gram`.
// ---------------------------------------------------------------------------

IsvdResult Isvd2(const IntervalMatrix& m, size_t, const GramEig& gram,
                 const IsvdOptions& options) {
  return OnGramWork(m, gram, [&](const IntervalMatrix& work) {
    return isvd_internal::Isvd2FromGram(work, gram, options);
  });
}

IsvdResult Isvd2(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd2(m, rank, ComputeGramEig(m, rank, options), options);
}

IsvdResult Isvd3(const IntervalMatrix& m, size_t, const GramEig& gram,
                 const IsvdOptions& options) {
  return OnGramWork(m, gram, [&](const IntervalMatrix& work) {
    return isvd_internal::Isvd34FromGram(work, gram, options,
                                         /*recompute=*/false);
  });
}

IsvdResult Isvd3(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd3(m, rank, ComputeGramEig(m, rank, options), options);
}

IsvdResult Isvd4(const IntervalMatrix& m, size_t, const GramEig& gram,
                 const IsvdOptions& options) {
  return OnGramWork(m, gram, [&](const IntervalMatrix& work) {
    return isvd_internal::Isvd34FromGram(work, gram, options,
                                         /*recompute=*/true);
  });
}

IsvdResult Isvd4(const IntervalMatrix& m, size_t rank,
                 const IsvdOptions& options) {
  return Isvd4(m, rank, ComputeGramEig(m, rank, options), options);
}

// ---------------------------------------------------------------------------

IsvdResult RunIsvd(int strategy, const IntervalMatrix& m, size_t rank,
                   const IsvdOptions& options) {
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

std::string IsvdName(int strategy, DecompositionTarget target) {
  std::string name = "ISVD" + std::to_string(strategy);
  if (strategy == 0) return name;  // ISVD0 is target-c by construction
  switch (target) {
    case DecompositionTarget::kA:
      return name + "-a";
    case DecompositionTarget::kB:
      return name + "-b";
    case DecompositionTarget::kC:
      return name + "-c";
  }
  return name;
}

}  // namespace ivmf
