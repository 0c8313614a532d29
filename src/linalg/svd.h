// Singular value decomposition via one-sided (Hestenes) Jacobi rotations.
//
// This is the scalar SVD primitive used by the dense ISVD0 and ISVD1 and by the
// pseudo-inverse / condition-number routines. One-sided Jacobi was chosen
// because it is simple, numerically robust, and computes singular values
// with high relative accuracy — at the matrix sizes used in the paper's
// evaluation (hundreds of rows/columns) its O(n·m²) sweeps are affordable.

#ifndef IVMF_LINALG_SVD_H_
#define IVMF_LINALG_SVD_H_

#include <cstddef>

#include "linalg/matrix.h"

namespace ivmf {

// The thin SVD of an n x m matrix M truncated to rank r:
//   M ≃ U * diag(sigma) * V^T
// with U (n x r) and V (m x r) having orthonormal columns and
// sigma sorted in non-increasing order.
struct SvdResult {
  Matrix u;                    // n x r, left singular vectors.
  std::vector<double> sigma;   // r singular values, descending.
  Matrix v;                    // m x r, right singular vectors.

  // diag(sigma) as an r x r matrix.
  Matrix SigmaMatrix() const { return Matrix::Diagonal(sigma); }

  // Reconstruction U * diag(sigma) * V^T.
  Matrix Reconstruct() const;
};

struct SvdOptions {
  // Convergence threshold on the normalized off-diagonal column coupling.
  double tolerance = 1e-12;
  // Upper bound on the number of full Jacobi sweeps.
  int max_sweeps = 60;
};

// Computes the thin rank-r SVD of `m`. `rank` is clamped to min(n, m);
// rank == 0 means full (min(n, m)). Columns of U associated with (near-)zero
// singular values are zero vectors.
SvdResult ComputeSvd(const Matrix& m, size_t rank = 0,
                     const SvdOptions& options = {});

// Fixes the joint sign freedom of singular-vector pairs: each column j is
// flipped (in BOTH u and v, preserving u σ vᵀ) so that the entry of v(:, j)
// with the largest absolute value (first such index on ties) is positive —
// the same pivot rule CanonicalizeEigenvectorSigns uses. The dense SVD
// applies this, and the matrix-free ISVD0/ISVD1 take V from canonicalized
// Gram eigenvectors with U = M V Σ⁻¹ following V's sign, so the two paths
// produce identical factors whenever they agree up to sign.
void CanonicalizeSingularVectorSigns(Matrix& u, Matrix& v);

}  // namespace ivmf

#endif  // IVMF_LINALG_SVD_H_
