#include "core/lp_isvd.h"

#include <cmath>
#include <utility>

#include "base/stopwatch.h"
#include "core/isvd_internal.h"

namespace ivmf {

IsvdResult LpIsvd(const IntervalMatrix& m, size_t rank,
                  const IsvdOptions& options,
                  const IntervalEigLpOptions& lp_options) {
  const bool transposed = (options.gram_side == GramSide::kMMt) ||
                          (options.gram_side == GramSide::kAuto &&
                           m.cols() > m.rows());
  const IntervalMatrix work = transposed ? m.Transpose() : m;
  const size_t r = isvd_internal::ClampRank(work.rows(), work.cols(), rank);

  PhaseTimings timings;
  Stopwatch sw;
  const IntervalMatrix gram = IntervalMatMul(work.Transpose(), work);
  timings.preprocess = sw.Seconds();

  // LP-bounded interval eigenpairs of A† (this is the expensive part:
  // two LP solves per eigenvector component).
  sw.Restart();
  const IntervalEigLpResult eig = ComputeIntervalEigLp(gram, r, lp_options);
  timings.decompose = sw.Seconds();

  // Σ† = sqrt of the non-negative part of the eigenvalue intervals.
  std::vector<Interval> sigma(r);
  for (size_t j = 0; j < r; ++j) {
    const double lo = eig.eigenvalues[j].lo > 0.0
                          ? std::sqrt(eig.eigenvalues[j].lo)
                          : 0.0;
    const double hi = eig.eigenvalues[j].hi > 0.0
                          ? std::sqrt(eig.eigenvalues[j].hi)
                          : 0.0;
    sigma[j] = Interval(lo, hi);
  }

  // U† recovery is ISVD3's solve (Section 4.4.2).
  sw.Restart();
  IntervalMatrix u = isvd_internal::SolveLeftFactor(
      work, eig.eigenvectors, Matrix::Diagonal(InverseIntervalDiagonal(sigma)),
      options.cond_threshold);
  timings.solve = sw.Seconds();

  IsvdResult result = isvd_internal::BuildResult(
      std::move(u), std::move(sigma), eig.eigenvectors, options.target,
      timings);
  if (transposed) std::swap(result.u, result.v);
  return result;
}

}  // namespace ivmf
