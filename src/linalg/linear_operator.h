// Matrix-free symmetric linear operators.
//
// The Lanczos eigensolver only ever touches its input through products
// y = A x, so it can be programmed against an abstract operator instead of a
// materialized matrix (the dense_matrix / matrix_store split popularized by
// semi-external-memory graph engines). Every sparse ISVD exploits this to
// eigendecompose a Gram matrix without ever forming the m x m matrix: the
// operator applies M_eᵀ(M_e x) (ISVD1–ISVD4, per endpoint) or
// M_midᵀ(M_mid x) (ISVD0) in O(nnz) per Lanczos step.

#ifndef IVMF_LINALG_LINEAR_OPERATOR_H_
#define IVMF_LINALG_LINEAR_OPERATOR_H_

#include <cstddef>
#include <vector>

#include "base/check.h"
#include "base/parallel.h"
#include "linalg/matrix.h"

namespace ivmf {

// A symmetric linear operator on R^n, defined solely by its action
// y = A x. Implementations must be safe to Apply concurrently from
// different operator instances (ComputeGramEig runs the lower/upper
// endpoint solves on two threads, one operator each).
//
// Aliasing contract: `y` must be a distinct vector from `x` —
// implementations stream the input while writing the output in blocked
// (possibly vectorized or parallel) order, so an in-place call would read
// half-written data. The sparse kernels assert this (see
// sparse/sparse_kernels.h); the dense adapter below checks it too.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  // Dimension n of the (square, symmetric) operator.
  virtual size_t Dim() const = 0;

  // y = A x. `x` has Dim() entries; `y` is resized to Dim(). `y` must not
  // alias `x`.
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>& y) const = 0;
};

// Adapter exposing a dense symmetric Matrix as a LinearOperator. Rows are
// processed in parallel for large matrices; results are bit-identical to
// the serial loop because each row writes a disjoint output entry.
class DenseSymmetricOperator final : public LinearOperator {
 public:
  // Wraps `a` by reference; the matrix must outlive the operator.
  explicit DenseSymmetricOperator(const Matrix& a) : a_(a) {
    IVMF_CHECK_MSG(a.rows() == a.cols(),
                   "DenseSymmetricOperator needs a square matrix");
  }

  size_t Dim() const override { return a_.rows(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    const size_t n = a_.rows();
    IVMF_CHECK(x.size() == n);
    IVMF_CHECK_MSG(&y != &x, "Apply output must not alias the input");
    y.resize(n);
    ParallelFor(
        0, n,
        [&](size_t i) {
          const double* row = a_.RowPtr(i);
          double sum = 0.0;
          for (size_t j = 0; j < n; ++j) sum += row[j] * x[j];
          y[i] = sum;
        },
        /*max_threads=*/0, /*min_items_per_thread=*/256);
  }

 private:
  const Matrix& a_;
};

}  // namespace ivmf

#endif  // IVMF_LINALG_LINEAR_OPERATOR_H_
