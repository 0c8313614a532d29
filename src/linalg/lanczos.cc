#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "base/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {
namespace {

double SignOf(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

struct EigInstruments {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& restarts;
  obs::Gauge& residual;

  static EigInstruments& Get() {
    static EigInstruments instruments{
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.solves"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.iterations"),
        obs::MetricsRegistry::Global().GetCounter("lanczos.eig.restarts"),
        obs::MetricsRegistry::Global().GetGauge("lanczos.eig.residual_bound")};
    return instruments;
  }
};

// Removes from `w` its components along the first `count` columns of `q`,
// twice ("twice is enough" for numerical robustness): the full
// reorthogonalization of both the Lanczos step and the breakdown restart.
void Reorthogonalize(const Matrix& q, size_t count, std::vector<double>& w) {
  obs::TraceSpan span("lanczos.reorth");
  const size_t n = q.rows();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < count; ++k) {
      double proj = 0.0;
      for (size_t i = 0; i < n; ++i) proj += w[i] * q(i, k);
      for (size_t i = 0; i < n; ++i) w[i] -= proj * q(i, k);
    }
  }
}

// The projected tridiagonal eigenproblem (TridiagonalQL into `z`).
bool SolveSmallEig(std::vector<double>& diag, std::vector<double>& off,
                   Matrix& z) {
  obs::TraceSpan span("lanczos.small_eig");
  return TridiagonalQL(diag, off, &z);
}

}  // namespace

namespace lanczos_internal {

bool WarmStartVector(const Matrix& basis, size_t dim, std::vector<double>& v) {
  if (basis.cols() == 0) return false;
  IVMF_CHECK_MSG(basis.rows() == dim,
                 "warm-start basis dimension differs from the operator's");
  // Sums accumulate in a scratch vector so `v` really is untouched on the
  // degenerate-norm failure path, as the contract promises.
  std::vector<double> sums(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t c = 0; c < basis.cols(); ++c) sums[i] += basis(i, c);
  }
  const double norm = Norm2(sums);
  if (!(norm > 1e-12)) return false;
  for (size_t i = 0; i < dim; ++i) v[i] = sums[i] / norm;
  return true;
}

}  // namespace lanczos_internal

bool TridiagonalQL(std::vector<double>& diag, std::vector<double>& off,
                   Matrix* z, int max_iterations) {
  const size_t n = diag.size();
  if (n == 0) return true;
  IVMF_CHECK(off.size() + 1 == n || (n == 1 && off.empty()));
  std::vector<double> e(n, 0.0);
  for (size_t i = 0; i + 1 < n; ++i) e[i] = off[i];

  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      // Find a negligible off-diagonal element.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(e[m]) <= 1e-300 ||
            std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m == l) break;
      if (++iter > max_iterations) return false;

      // Implicit QL step with Wilkinson shift.
      double g = (diag[l + 1] - diag[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = diag[m] - diag[l] + e[l] / (g + SignOf(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      for (size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          diag[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
        if (z != nullptr) {
          for (size_t k = 0; k < z->rows(); ++k) {
            f = (*z)(k, i + 1);
            (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
            (*z)(k, i) = c * (*z)(k, i) - s * f;
          }
        }
      }
      if (r == 0.0 && m > l + 1) continue;
      diag[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
  }

  // Sort ascending (insertion sort moving eigenvector columns along).
  for (size_t i = 0; i + 1 < n; ++i) {
    size_t k = i;
    for (size_t j = i + 1; j < n; ++j)
      if (diag[j] < diag[k]) k = j;
    if (k != i) {
      std::swap(diag[i], diag[k]);
      if (z != nullptr) {
        for (size_t row = 0; row < z->rows(); ++row)
          std::swap((*z)(row, i), (*z)(row, k));
      }
    }
  }
  return true;
}

EigResult ComputeLanczosEig(const LinearOperator& op, size_t rank,
                            const LanczosOptions& options) {
  obs::TraceSpan span("lanczos.eig");
  EigInstruments& instruments = EigInstruments::Get();
  instruments.solves.Add(1);
  const size_t n = op.Dim();
  // rank == 0 (or an over-ask) means the full spectrum: grow the Krylov
  // basis to the whole space.
  const size_t effective_rank = (rank == 0 || rank > n) ? n : rank;

  // Krylov dimension.
  const size_t m = std::min(
      n, static_cast<size_t>(options.subspace_factor * effective_rank) +
             options.subspace_extra);

  // Lanczos basis Q (n x m) with full reorthogonalization.
  Matrix q(n, m);
  std::vector<double> alpha(m, 0.0), beta(m, 0.0);

  Rng rng(options.seed);
  std::vector<double> v(n), w(n);
  if (!lanczos_internal::WarmStartVector(options.start_basis, n, v)) {
    for (double& x : v) x = rng.Normal();
    const double norm = Norm2(v);
    for (double& x : v) x /= norm;
  }
  for (size_t i = 0; i < n; ++i) q(i, 0) = v[i];

  bool exhausted = false;
  size_t built = 0;
  double last_wnorm = 0.0;
  for (size_t j = 0; j < m; ++j) {
    built = j + 1;
    for (size_t i = 0; i < n; ++i) v[i] = q(i, j);
    {
      obs::TraceSpan matvec("lanczos.matvec");
      op.Apply(v, w);
    }
    if (j > 0) {
      for (size_t i = 0; i < n; ++i) w[i] -= beta[j - 1] * q(i, j - 1);
    }
    double aj = 0.0;
    for (size_t i = 0; i < n; ++i) aj += w[i] * v[i];
    alpha[j] = aj;
    for (size_t i = 0; i < n; ++i) w[i] -= aj * v[i];

    // Full reorthogonalization against the basis built so far.
    Reorthogonalize(q, j + 1, w);

    const double wnorm = Norm2(w);
    last_wnorm = wnorm;
    if (j + 1 < m) {
      beta[j] = wnorm;
      if (wnorm <= options.tolerance) {
        // Invariant subspace found: restart with a fresh random direction
        // orthogonal to the basis (beta stays 0, so the tridiagonal problem
        // block-decouples) and keep building to the subspace cap. Two
        // reasons not to stop early: a rank-deficient operator (e.g. the
        // Gram of an all-zero endpoint) would deliver fewer eigenpairs than
        // its sibling endpoint and crash the ISVD pairing downstream, and a
        // single Krylov sequence sees each eigenvalue of a degenerate
        // cluster exactly once — only the restarted blocks capture the
        // remaining copies of duplicate eigenvalues.
        beta[j] = 0.0;
        instruments.restarts.Add(1);
        bool restarted = false;
        for (int attempt = 0; attempt < 3 && !restarted; ++attempt) {
          for (double& x : w) x = rng.Normal();
          Reorthogonalize(q, j + 1, w);
          const double rnorm = Norm2(w);
          if (rnorm > options.restart_tolerance) {
            for (size_t i = 0; i < n; ++i) q(i, j + 1) = w[i] / rnorm;
            restarted = true;
          }
        }
        if (!restarted) {
          // No acceptable direction remains: the basis cannot grow, so the
          // spectrum delivered below may be shorter than requested. Recorded
          // (rather than silently broken out of) so `truncated` reaches the
          // caller.
          exhausted = true;
          break;
        }
        continue;
      }
      for (size_t i = 0; i < n; ++i) q(i, j + 1) = w[i] / wnorm;

      // Optional early exit: residual of Ritz pair i is |beta_j * z_last,i|,
      // so the coupling to the unexplored space bounds every pair at once.
      // Only meaningful once the basis can hold the requested count.
      if (options.convergence_tol > 0.0 && built >= effective_rank &&
          options.convergence_interval > 0 &&
          built % options.convergence_interval == 0) {
        std::vector<double> d(alpha.begin(),
                              alpha.begin() + static_cast<ptrdiff_t>(built));
        std::vector<double> e;
        for (size_t i = 0; i + 1 < built; ++i) e.push_back(beta[i]);
        Matrix z = Matrix::Identity(built);
        if (SolveSmallEig(d, e, z)) {
          double theta_max = 0.0;
          for (const double t : d) theta_max = std::max(theta_max, std::abs(t));
          const double bound = options.convergence_tol * theta_max;
          bool converged = theta_max > 0.0;
          for (size_t i = 0; i < effective_rank && converged; ++i) {
            const size_t src = built - 1 - i;  // largest pairs sort last
            if (std::abs(wnorm * z(built - 1, src)) > bound) converged = false;
          }
          if (converged) break;
        }
      }
    }
  }

  // Solve the m' x m' tridiagonal eigenproblem.
  std::vector<double> diag(alpha.begin(), alpha.begin() + built);
  std::vector<double> off;
  for (size_t i = 0; i + 1 < built; ++i) off.push_back(beta[i]);
  Matrix z = Matrix::Identity(built);
  IVMF_CHECK_MSG(SolveSmallEig(diag, off, z), "tridiagonal QL failed");

  // Take the top-`rank` (largest) Ritz pairs; TridiagonalQL sorts ascending.
  const size_t keep = std::min(effective_rank, built);
  EigResult result;
  result.truncated = exhausted && keep < effective_rank;
  result.iterations = built;
  result.eigenvalues.resize(keep);
  result.eigenvectors = Matrix(n, keep);
  for (size_t out = 0; out < keep; ++out) {
    const size_t src = built - 1 - out;  // descending order
    result.eigenvalues[out] = diag[src];
    // Ritz vector = Q * z[:, src].
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (size_t k = 0; k < built; ++k) sum += q(i, k) * z(k, src);
      result.eigenvectors(i, out) = sum;
    }
  }
  CanonicalizeEigenvectorSigns(result.eigenvectors);
  instruments.iterations.Add(built);
  if (obs::Enabled()) {
    // Ritz residual bound |beta_m * z(m-1, i)|, maximized over the returned
    // pairs — how strongly the kept spectrum still couples to the
    // unexplored space.
    double max_residual = 0.0;
    for (size_t out = 0; out < keep; ++out) {
      max_residual = std::max(
          max_residual, std::abs(last_wnorm * z(built - 1, built - 1 - out)));
    }
    instruments.residual.Set(max_residual);
  }
  return result;
}

EigResult ComputeLanczosEig(const Matrix& a, size_t rank,
                            const LanczosOptions& options) {
  IVMF_CHECK_MSG(a.rows() == a.cols(), "Lanczos needs a square matrix");
  // The dense entry point keeps its historical contract: full-spectrum
  // requests go to the (exact) Jacobi solver.
  if (rank == 0 || rank >= a.rows()) {
    return ComputeSymmetricEig(a, rank);
  }
  return ComputeLanczosEig(DenseSymmetricOperator(a), rank, options);
}

}  // namespace ivmf
