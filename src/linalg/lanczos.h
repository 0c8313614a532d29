// Truncated symmetric eigendecomposition via the Lanczos method with full
// reorthogonalization — the library's one Krylov solver.
//
// ISVD2–ISVD4 only need the top-r eigenpairs of the Gram matrices, and
// ISVD0/ISVD1 only the top right singular vectors and σ² of a scalar
// matrix M, which are the top eigenpairs of MᵀM; the cyclic Jacobi solver
// (linalg/eig.h) computes the full spectrum in O(n³) per sweep, which
// dominates the pipeline for large matrices. Lanczos builds a Krylov basis
// of dimension O(r) and solves a small symmetric tridiagonal problem
// instead — typically an order of magnitude faster at low rank while
// agreeing with Jacobi to ~1e-8 (see the kernels microbenchmark and
// tests/lanczos_test.cc).
//
// A traced solve splits its time into the spans lanczos.matvec (operator
// applies), lanczos.reorth (full reorthogonalization, step and restart)
// and lanczos.small_eig (the projected tridiagonal problem), nested in
// lanczos.eig; the Ritz-vector assembly is lanczos.eig's own time.

#ifndef IVMF_LINALG_LANCZOS_H_
#define IVMF_LINALG_LANCZOS_H_

#include <cstdint>

#include "linalg/eig.h"
#include "linalg/linear_operator.h"
#include "linalg/matrix.h"

namespace ivmf {

struct LanczosOptions {
  // Krylov subspace dimension as a multiple of the requested rank
  // (clamped to n). Larger = more accurate interior eigenvalues.
  double subspace_factor = 3.0;
  // Extra Krylov vectors beyond factor * rank.
  size_t subspace_extra = 25;
  // Deterministic seed for the random start vector.
  uint64_t seed = 12345;
  // Convergence threshold on the tridiagonal off-diagonal.
  double tolerance = 1e-12;
  // Minimum norm of a reorthogonalized random direction accepted by the
  // invariant-subspace restart. When every restart attempt falls below it
  // the basis cannot grow further: the solver stops and flags the result
  // `truncated` if the requested count was not reached (previously the
  // spectrum was silently cut short).
  double restart_tolerance = 1e-8;
  // Warm start: columns approximating the dominant invariant subspace —
  // typically the previous step's Ritz vectors, carried across refreshes by
  // the streaming ISVD driver. When non-empty the Krylov start vector is the
  // normalized column sum (equal energy in every carried direction) instead
  // of a random draw; its row count must then equal the operator dimension
  // (checked). A single column is an explicit start vector: the sparse
  // ISVD0/ISVD1 pass the row-space vector Mᵀr here (core/sparse_isvd.h).
  Matrix start_basis;
  // When > 0, the small projected problem is solved every
  // `convergence_interval` steps and the iteration stops as soon as every
  // requested Ritz pair has residual bound below convergence_tol * |theta|_max.
  // 0 (the default) builds the basis to the subspace cap — the cold-start
  // behavior every batch-mode caller keeps.
  double convergence_tol = 0.0;
  size_t convergence_interval = 8;
};

// Computes the `rank` algebraically-largest eigenpairs of the symmetric
// matrix `a` (rank == 0 or rank >= n falls back to the full Jacobi solver).
// Results use the same conventions as ComputeSymmetricEig: eigenvalues
// descending, orthonormal eigenvector columns.
EigResult ComputeLanczosEig(const Matrix& a, size_t rank,
                            const LanczosOptions& options = {});

// Matrix-free variant: the operator is touched only through y = A x, so the
// symmetric matrix never needs to be materialized (e.g. the sparse Gram
// operator M†ᵀ(M† x)). There is no Jacobi fallback here — rank == 0 or
// rank >= Dim() grows the Krylov basis to the full dimension instead, which
// still returns the complete spectrum.
EigResult ComputeLanczosEig(const LinearOperator& op, size_t rank,
                            const LanczosOptions& options = {});

namespace lanczos_internal {

// Builds the Krylov start vector from a warm-start basis: the normalized
// column sum (orthonormal columns never cancel: ||sum||² = #cols), giving
// equal energy to every carried Ritz direction. Returns false — leaving
// `v` untouched — when the basis is absent (no columns) or its column sum
// vanishes, so the caller falls back to its random cold start. A basis
// whose row count is not `dim` is a checked precondition violation: the
// basis is the solver's own carried state, so a mismatch is a bug in the
// caller (say, the wrong factor captured), not a reason to start cold.
bool WarmStartVector(const Matrix& basis, size_t dim, std::vector<double>& v);

}  // namespace lanczos_internal

// Eigenvalues (ascending) and optionally eigenvectors of a symmetric
// tridiagonal matrix given its diagonal and sub-diagonal, via the implicit
// QL algorithm (tql2). Exposed for testing.
//
// `diag` has n entries, `off` has n-1. On return `diag` holds the
// eigenvalues ascending and, if `z` is non-null (must be an identity-like
// n x n basis on entry), its columns hold the eigenvectors.
bool TridiagonalQL(std::vector<double>& diag, std::vector<double>& off,
                   Matrix* z, int max_iterations = 50);

}  // namespace ivmf

#endif  // IVMF_LINALG_LANCZOS_H_
