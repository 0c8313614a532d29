// CSR-backed sparse interval-valued matrices.
//
// The paper's recommender workloads (Section 6.1.3, Figure 10) operate on
// rating matrices that are ~85% empty; the dense IntervalMatrix pair wastes
// both memory and flops there. SparseIntervalMatrix stores one compressed
// sparsity pattern shared by the two endpoint value arrays — structurally
// a CSR matrix whose values are [lo, hi] pairs — plus the endpoint kernels
// (sparse x vector, sparse x dense, row/column norms) the matrix-free ISVD
// path is built from. All absent entries are the scalar zero interval
// [0, 0], exactly like the unobserved cells of the dense constructions.

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
#include "sparse/sell_matrix.h"
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
  // Every kernel below dispatches through one of the backends in
  // sparse_kernels.h: the scalar reference loops, AVX2 register-blocked CSR
  // rows (runtime cpuid, portable fallback), or a SELL-C-4 padded layout
  // built lazily as an immutable sidecar the first time a SELL kernel runs
  // (kernels the SELL layout does not cover — transpose, dense, pair — use
  // the dispatched CSR variant). The default kAuto defers to the
  // IVMF_SPARSE_KERNEL environment variable (scalar|avx2|sell|auto), then
  // to cpuid, so call sites never change: Lanczos eig/SVD, StreamingIsvd,
  // and the serving refresh path all pick the backend up through here.
  // Transpose() propagates the selection; the obs matvec counters tag each
  // call with the variant that actually ran.
  //
  // When both the per-matrix request and IVMF_SPARSE_KERNEL are kAuto, the
  // matrix refines the choice from its own row-length statistics
  // (spk::ChooseAutoBackend): short-row / irregular patterns get the SELL
  // layout, long-row CF shapes keep packed CSR. The statistics pass is
  // O(rows), runs once, and is cached alongside the SELL/packed sidecars.

  void set_kernel(spk::Backend backend) { kernel_ = backend; }
  spk::Backend kernel() const { return kernel_; }

  // The backend request after per-matrix auto-refinement: kernel() itself
  // unless that is kAuto with no environment override, in which case the
  // row-statistics choice (a concrete backend). Every kernel below
  // dispatches on spk::Resolve / spk::CsrVariant of this.
  spk::Backend ResolvedKernel() const;

  // -- Kernels ---------------------------------------------------------------
  // All kernels are deterministic for a fixed machine and backend.
  // Row-partitioned kernels (Multiply, MultiplyDense, MultiplyMid,
  // MultiplyBoth, MultiplyPair) compute every output entry from exactly the
  // serial loop's terms — vectorized variants reassociate within a row by a
  // fixed lane blocking, so they agree with the scalar reference to
  // roundoff and are bit-stable across calls. MultiplyTranspose reduces
  // per-thread partial accumulators, so its summation order differs from the
  // serial scatter by a fixed blocking (bit-stable across calls, equal to
  // the serial result up to roundoff).
  //
  // Aliasing contract (checked): output vectors may not alias input vectors
  // or each other — the kernels stream inputs while writing outputs in
  // blocked order, so in-place calls would read half-written data. Inputs
  // must be finite (SELL padding multiplies 0 by x[0]; an Inf/NaN there
  // would poison a padded lane).

  // y = A_e x (y resized to rows()). Parallelized over rows.
  void Multiply(Endpoint e, const std::vector<double>& x,
                std::vector<double>& y) const;

  // y_lo = A_* x and y_hi = A^* x fused over the shared pattern in one
  // pass (one gather feeds both endpoint accumulators); y_lo/y_hi resized
  // to rows(). The fused endpoint path under IntervalMultiplyDense.
  void MultiplyBoth(const std::vector<double>& x, std::vector<double>& y_lo,
                    std::vector<double>& y_hi) const;

  // y_lo = A_* x_lo and y_hi = A^* x_hi in one pattern pass — on a
  // transpose, the second stage of a two-pass both-endpoint Gram, where
  // each endpoint chain carries its own vector. Outputs resized to rows().
  void MultiplyPair(const std::vector<double>& x_lo,
                    const std::vector<double>& x_hi,
                    std::vector<double>& y_lo,
                    std::vector<double>& y_hi) const;

  // y = ((A_* + A^*) / 2) x — the midpoint-matrix action fused over the
  // shared pattern (y resized to rows()). Parallelized over rows. Backs the
  // matrix-free sparse ISVD0, which decomposes the midpoint matrix without
  // materializing it.
  void MultiplyMid(const std::vector<double>& x, std::vector<double>& y) const;

  // y = A_eᵀ x (y resized to cols()). Parallelized with per-thread partial
  // accumulators over row blocks followed by a column-parallel reduction;
  // iterative solvers that apply the transpose many times may still prefer
  // holding a Transpose() and calling Multiply on it (streaming reads beat
  // the scatter).
  void MultiplyTranspose(Endpoint e, const std::vector<double>& x,
                         std::vector<double>& y) const;

  // C = A_e * B for dense B (cols() x k). Parallelized over rows. A
  // zero-column B yields a rows() x 0 result without touching any storage.
  Matrix MultiplyDense(Endpoint e, const Matrix& b) const;

  // C† = A† * B for a dense scalar B, matching the dense mixed-operand
  // IntervalMatMul exactly: C_lo / C_hi are the elementwise min / max of the
  // two full endpoint products A_* B and A^* B.
  IntervalMatrix IntervalMultiplyDense(const Matrix& b) const;

  // y = A_eᵀ (A_e x) in a single pass over the pattern (y resized to
  // cols()): each row's dot against x and its scaled scatter into y share
  // the row data while it is cache-hot, halving memory traffic versus the
  // Multiply + MultiplyTranspose composition. Same value as that
  // composition up to roundoff (summation into y is grouped by row, and
  // per-thread partials reduce like MultiplyTranspose); bit-stable across
  // calls.
  void GramMultiply(Endpoint e, const std::vector<double>& x,
                    std::vector<double>& y) const;

  // y_lo = A_*ᵀ(A_* x) and y_hi = A^*ᵀ(A^* x) fused over the shared
  // pattern in one pass — the one-pass form of MultiplyBoth + MultiplyPair.
  // Outputs resized to cols().
  void GramMultiplyBoth(const std::vector<double>& x,
                        std::vector<double>& y_lo,
                        std::vector<double>& y_hi) const;

  // Euclidean norms of the rows / columns of the endpoint matrix A_e.
  std::vector<double> RowNorms(Endpoint e) const;
  std::vector<double> ColNorms(Endpoint e) const;

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

  // Lazily-built SELL sidecar, shared by copies (the padded pack depends
  // only on the immutable CSR arrays, which copies share by value).
  struct SellSlot {
    std::once_flag once;
    std::unique_ptr<const SellPack> pack;
  };

  // Cached row-statistics auto-selection (ResolvedKernel), shared by copies
  // like the sidecars: the statistics depend only on the immutable pattern.
  struct AutoSlot {
    std::once_flag once;
    spk::Backend backend = spk::Backend::kAuto;
  };

  // Lazily-built narrow column-index sidecar for the AVX2 kernels: u16 when
  // cols() fits (the common CF shape), u32 otherwise. Exactly one of the
  // two vectors is populated. Shared by copies like the SELL pack.
  struct PackedSlot {
    std::once_flag once;
    std::vector<uint16_t> col16;
    std::vector<uint32_t> col32;
  };

  // The CSR view over this matrix's arrays, for the spk kernels.
  spk::CsrView View() const {
    return {rows_, cols_, row_ptr_.data(), col_idx_.data()};
  }

  const SellPack& EnsureSell() const;

  // The packed view over this matrix's arrays (builds the sidecar on first
  // use).
  spk::PackedCsrView PackedView() const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;  // rows() + 1 offsets into col_idx_/lo_/hi_
  std::vector<size_t> col_idx_;  // nnz column indices, ascending per row
  std::vector<double> lo_;       // nnz lower endpoints
  std::vector<double> hi_;       // nnz upper endpoints
  spk::Backend kernel_ = spk::Backend::kAuto;
  mutable std::shared_ptr<SellSlot> sell_ = std::make_shared<SellSlot>();
  mutable std::shared_ptr<PackedSlot> packed_ = std::make_shared<PackedSlot>();
  mutable std::shared_ptr<AutoSlot> auto_ = std::make_shared<AutoSlot>();
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_SPARSE_INTERVAL_MATRIX_H_
