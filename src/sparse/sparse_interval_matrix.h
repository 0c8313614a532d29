// CSR-backed sparse interval-valued matrices.
//
// The paper's recommender workloads (Section 6.1.3, Figure 10) operate on
// rating matrices that are ~85% empty; the dense IntervalMatrix pair wastes
// both memory and flops there. SparseIntervalMatrix stores one compressed
// sparsity pattern shared by the two endpoint value arrays — structurally
// a CSR matrix whose values are [lo, hi] pairs. It is the container:
// construction, lookup, transpose and raw arrays. The kernels the
// matrix-free ISVD path is built from live on the block-row store
// (sparse/block_matrix.h), which runs them on a zero-copy view of this
// matrix. All absent entries are the scalar zero interval [0, 0], exactly
// like the unobserved cells of the dense constructions.

#ifndef IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_
#define IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "interval/interval.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {

// One explicit entry of a sparse interval matrix (0-based indices).
struct IntervalTriplet {
  size_t row = 0;
  size_t col = 0;
  Interval value;
};

// What to do when two triplets name the same (row, col) cell.
//
// The library-wide convention (decided with the streaming subsystem, which
// made the question unavoidable): *in-memory* construction merges duplicate
// observations to their interval hull — the natural semantics when several
// measurements of one quantity arrive as intervals — while the *serialized*
// triplet format treats a duplicated cell as corruption, because a written
// stream is sorted and unique, so a duplicate always means the file lied
// about its entry count. Both entry points take this enum so either side
// can opt into the other behavior; io/triplets.h documents the reader side.
enum class DuplicatePolicy {
  kMergeHull,  // duplicates collapse to [min lo, max hi]
  kReject,     // duplicates are a precondition violation
};

class SparseIntervalMatrix {
 public:
  // Which endpoint value array a kernel reads: M_* (lower) or M^* (upper).
  enum class Endpoint { kLower, kUpper };

  // An empty 0 x 0 matrix.
  SparseIntervalMatrix() = default;

  // Builds a rows x cols matrix from explicit entries. Triplets may arrive
  // in any order; duplicates at the same (row, col) follow `duplicates` —
  // by default they merge to their interval hull (see DuplicatePolicy for
  // the rationale), while kReject makes a duplicated cell a checked
  // precondition violation, matching the strict triplet reader. Indices
  // must lie inside the shape.
  static SparseIntervalMatrix FromTriplets(
      size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
      DuplicatePolicy duplicates = DuplicatePolicy::kMergeHull);

  // Compresses a dense interval matrix, dropping entries whose endpoints are
  // both within `tol` of zero.
  static SparseIntervalMatrix FromDense(const IntervalMatrix& dense,
                                        double tol = 0.0);

  // Adopts prebuilt CSR arrays without the FromTriplets sort: `row_ptr` has
  // rows + 1 monotone offsets, `col_idx` ascending unique columns per row,
  // `lo`/`hi` the endpoint values. The O(nnz) structural invariants are
  // checked. This is the fast path for producers that already emit
  // row-major order (DynamicSparseIntervalMatrix::Snapshot's delta-log
  // merge).
  static SparseIntervalMatrix FromCsr(size_t rows, size_t cols,
                                      std::vector<size_t> row_ptr,
                                      std::vector<size_t> col_idx,
                                      std::vector<double> lo,
                                      std::vector<double> hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // nnz / (rows * cols); 0 for an empty shape.
  double FillFraction() const;

  // Entry lookup by binary search within the row: O(log row_nnz). Absent
  // entries are the scalar zero interval.
  Interval At(size_t i, size_t j) const;

  // Materializes the dense endpoint pair (absent entries become [0, 0]).
  IntervalMatrix ToDense() const;

  // Explicit entries in row-major order.
  std::vector<IntervalTriplet> ToTriplets() const;

  // CSR of the transpose. O(nnz); the two endpoint arrays share the single
  // transposed pattern, like the forward matrix.
  SparseIntervalMatrix Transpose() const;

  // True when every stored entry satisfies lo <= hi.
  bool IsProper() const;

  // True when every stored lower endpoint is >= -tol. Entrywise
  // non-negativity is the precondition under which the Algorithm-1 interval
  // Gram endpoints coincide with M_*ᵀM_* and M^*ᵀM^* (see
  // IntervalMatMulExact's doc) — the matrix-free ISVD path relies on it.
  bool IsNonNegative(double tol = 0.0) const;

  // -- Kernel backend selection ----------------------------------------------
  // A block-row view of this matrix (sparse/block_matrix.h) runs its
  // kernels on the backend requested here: kAvx2 (the default) runs AVX2
  // when the CPU has it and scalar otherwise (sparse_kernels.h).
  // Transpose() propagates the selection.

  void set_kernel(spk::Backend backend) { kernel_ = backend; }
  spk::Backend kernel() const { return kernel_; }

  // The backend the kernels run: spk::Resolve(kernel()).
  spk::Backend ResolvedKernel() const { return spk::Resolve(kernel_); }

  // y = A_e x (y resized to rows()), through a borrowed block-row view: the
  // same kernel and row partition every sparse ISVD runs, so the result is
  // bit-identical to the view's Multiply. y must not alias x. The first
  // call builds the packed column-index sidecar that views read.
  void Multiply(Endpoint e, const std::vector<double>& x,
                std::vector<double>& y) const;

  // -- Raw CSR access (pattern shared by both endpoint arrays) ---------------

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& lower_values() const { return lo_; }
  const std::vector<double>& upper_values() const { return hi_; }
  const std::vector<double>& values(Endpoint e) const {
    return e == Endpoint::kLower ? lo_ : hi_;
  }

 private:
  // The block-row sharded facade builds zero-copy shard views over this
  // matrix's CSR arrays and packed sidecar (sparse/block_matrix.h).
  friend class ShardedSparseIntervalMatrix;

  // Lazily-built narrow column-index sidecar, the column stream every view
  // kernel reads: u16 when cols() fits (the common CF shape), u32 otherwise. Exactly one of the
  // two vectors is populated. Shared by copies: it depends only on the
  // immutable CSR arrays, which copies share by value.
  struct PackedSlot {
    std::once_flag once;
    std::vector<uint16_t> col16;
    std::vector<uint32_t> col32;
  };

  // The packed view over this matrix's arrays (builds the sidecar on first
  // use).
  spk::PackedCsrView PackedView() const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;  // rows() + 1 offsets into col_idx_/lo_/hi_
  std::vector<size_t> col_idx_;  // nnz column indices, ascending per row
  std::vector<double> lo_;       // nnz lower endpoints
  std::vector<double> hi_;       // nnz upper endpoints
  spk::Backend kernel_ = spk::Backend::kAvx2;
  mutable std::shared_ptr<PackedSlot> packed_ = std::make_shared<PackedSlot>();
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_
