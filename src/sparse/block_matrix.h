// Block-row sharded sparse interval matrices: the store every sparse ISVD
// runs on, and the only sparse kernel surface in the library.
//
// A ShardedSparseIntervalMatrix splits the row range into fixed-size
// shards, each an independent CSR segment with a packed 16/32-bit
// column-index stream. Every kernel runs shard-parallel on the shared
// ThreadPool, on the backend fixed at construction (spk::Resolve of the
// source matrix's set_kernel request; AVX2 when the CPU has it for Builder
// and OpenStore stores):
//
//  - Forward kernels (Multiply / MultiplyMid / MultiplyDense /
//    IntervalMultiplyDense) write disjoint row ranges, one task per shard;
//    each output entry is computed by one per-row loop over the row's
//    entries, so under one backend forward results are bit-identical for
//    every shard size and backing (memory, mmap and view alike).
//  - Reduction kernels (MultiplyTranspose / MultiplyTransposeMid /
//    GramMultiply / IntervalMultiplyDenseTranspose) give each shard group a
//    private cols-sized accumulator — the Gram apply is literally the block
//    sum A†ᵀA† = Σ_s M_sᵀ M_s — and reduce the partials column-parallel in
//    fixed group order (equal to the serial result up to roundoff,
//    bit-stable across calls on a fixed machine).
//
// Backing (BackingPolicy): shards own heap buffers (kMemory), or mmap
// segment files written through shard_store.h (kMmap) — the out-of-core
// path, where a Lanczos decomposition streams shard files through the page
// cache and (with a budget set) drops each shard's residency after every
// pass, keeping peak RSS near one working set instead of the whole store.
// kAuto picks per matrix by comparing the estimated store bytes against a
// budget. A third, zero-copy mode (View) shards an existing in-memory
// SparseIntervalMatrix by reference: no data is copied, only the row
// partition and the dispatch change. Every ISVD call and streaming refresh
// on a SparseIntervalMatrix runs on such a view (core/sparse_isvd.h), with
// ViewShardRows picking the partition.
//
// The ShardedGramOperator adapter at the bottom plugs the sharded kernels
// into the one Lanczos solver (linalg/lanczos.h): endpoint Grams for
// ISVD1-4, the midpoint Gram for ISVD0. The Gram side is always MᵀM here
// (cols² scratch) and transposed products run as shard scatter
// reductions, so no store ever needs a transposed copy of itself; the CSR
// entry points get the MMᵀ side by viewing a transpose.

#ifndef IVMF_SPARSE_BLOCK_MATRIX_H_
#define IVMF_SPARSE_BLOCK_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "interval/interval_matrix.h"
#include "linalg/linear_operator.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

class ShardedSparseIntervalMatrix {
 public:
  using Endpoint = SparseIntervalMatrix::Endpoint;

  // An empty 0 x 0 matrix with no shards.
  ShardedSparseIntervalMatrix() = default;
  ~ShardedSparseIntervalMatrix();

  // Movable, not copyable (shards may hold mmap handles / a temp store).
  ShardedSparseIntervalMatrix(ShardedSparseIntervalMatrix&&) noexcept;
  ShardedSparseIntervalMatrix& operator=(
      ShardedSparseIntervalMatrix&&) noexcept;
  ShardedSparseIntervalMatrix(const ShardedSparseIntervalMatrix&) = delete;
  ShardedSparseIntervalMatrix& operator=(const ShardedSparseIntervalMatrix&) =
      delete;

  // Builds from triplets (same semantics as the CSR FromTriplets,
  // including DuplicatePolicy), then segments into ceil(rows / shard_rows)
  // shards under `policy`.
  static ShardedSparseIntervalMatrix FromTriplets(
      size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
      size_t shard_rows, BackingPolicy policy = BackingPolicy::Memory(),
      DuplicatePolicy duplicates = DuplicatePolicy::kMergeHull);

  // Segments an existing CSR matrix. The source is only read.
  static ShardedSparseIntervalMatrix FromCsr(
      const SparseIntervalMatrix& m, size_t shard_rows,
      BackingPolicy policy = BackingPolicy::Memory());

  // Zero-copy row partition over an in-memory matrix: shards reference the
  // base's CSR arrays and packed sidecar directly — the partition and
  // shard-parallel dispatch without duplicating the store. The base is held
  // alive by the shared_ptr (a non-owning one makes a view for the length
  // of a call).
  static ShardedSparseIntervalMatrix View(
      std::shared_ptr<const SparseIntervalMatrix> base, size_t shard_rows);

  // A View of `m` partitioned by ViewShardRows, through a non-owning
  // pointer: no CSR array is copied, and the view must not outlive `m`.
  // What the CSR entry points (SparseIntervalMatrix::Multiply, the
  // core/sparse_isvd.h overloads) run on for the length of one call.
  static ShardedSparseIntervalMatrix BorrowedView(
      const SparseIntervalMatrix& m);

  // The shard size the CSR ISVD entry points view a `rows`-row matrix
  // with: about four shards per pool thread, so the shard tasks balance,
  // and never under 256 rows, so a shard amortizes its dispatch.
  static size_t ViewShardRows(size_t rows);

  // Re-opens a persisted mmap store directory (shard_0.ivsh, shard_1.ivsh,
  // ...) written by a previous process — the crash-consistency /
  // reopen path. All shards but the last must share one row count.
  // Returns false and sets *error if the directory holds no valid store.
  static bool OpenStore(const std::string& dir,
                        ShardedSparseIntervalMatrix* out, std::string* error);

  // Row-streaming construction: appends entries in ascending (row, col)
  // order and flushes one shard at a time, so building an N-shard mmap
  // store holds at most one shard's arrays in memory — the out-of-core
  // ingest path. BackingPolicy::kAuto resolves to kMmap here (the builder
  // cannot know the final size up front). Defined after the class.
  class Builder;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return nnz_; }
  size_t shard_rows() const { return shard_rows_; }
  size_t num_shards() const { return shards_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  // True when shards are mmap segment files rather than heap buffers.
  bool mmap_backed() const { return mmap_backed_; }
  // The segment directory ("" for memory/view backing). Temp directories
  // (empty BackingPolicy::store_dir) are removed by the destructor;
  // explicit directories persist for OpenStore.
  const std::string& store_dir() const { return store_dir_; }

  // Entry lookup by shard + binary search within the row.
  Interval At(size_t i, size_t j) const;

  // Materializes a CSR copy (tests, small matrices).
  SparseIntervalMatrix ToCsr() const;

  bool IsProper() const;
  bool IsNonNegative(double tol = 0.0) const;

  // -- Kernels (shard-parallel execution) ------------------------------------
  // Aliasing contract (checked): outputs must not alias inputs.

  // y = A_e x (y resized to rows()); one pool task per shard.
  void Multiply(Endpoint e, const std::vector<double>& x,
                std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2) x.
  void MultiplyMid(const std::vector<double>& x, std::vector<double>& y) const;

  // y = A_eᵀ x via per-group scatter partials + fixed-order reduction.
  void MultiplyTranspose(Endpoint e, const std::vector<double>& x,
                         std::vector<double>& y) const;

  // y = ((A_* + A^*) / 2)ᵀ x — the midpoint transpose (a sharded store has
  // no materialized transpose to run forward).
  void MultiplyTransposeMid(const std::vector<double>& x,
                            std::vector<double>& y) const;

  // y = A_eᵀ (A_e x) = Σ_s M_sᵀ (M_s x): fused one-pass Gram per shard
  // into group partials, reduced in fixed order. Never materializes a
  // transpose — this is the operator under the out-of-core ISVD2-4.
  void GramMultiply(Endpoint e, const std::vector<double>& x,
                    std::vector<double>& y) const;

  // C = A_e B for dense B (cols() x k), row-parallel over shards.
  Matrix MultiplyDense(Endpoint e, const Matrix& b) const;

  // C† = A† B, elementwise min/max of the fused endpoint products.
  IntervalMatrix IntervalMultiplyDense(const Matrix& b) const;

  // C† = A†ᵀ B for dense B (rows() x k): the transposed interval product
  // (Transpose().IntervalMultiplyDense(b)) via per-group scatter partials —
  // again with no materialized transpose.
  IntervalMatrix IntervalMultiplyDenseTranspose(const Matrix& b) const;

  // The dense endpoint Gram M_eᵀ M_e (non-negative input's Jacobi route),
  // and the Algorithm-1 interval Gram endpoints of an arbitrary-signed
  // matrix: lower/upper are the elementwise min/max over the four products
  // M_αᵀ M_β, which have no fixed operator form, accumulated from the
  // sparse rows (min(n, m)² memory, never densifying M†). Both walk the
  // shards sequentially in ascending row order — the serial row loop — so
  // results are bit-identical for every shard size and backing.
  static Matrix DenseGram(const ShardedSparseIntervalMatrix& m, Endpoint e);
  static IntervalMatrix DenseGramEndpoints(
      const ShardedSparseIntervalMatrix& m);

 private:
  friend class Builder;

  // One block-row segment. Exactly one of three states: owned arrays
  // (memory backing), a mapped segment (mmap backing), or neither (view
  // backing — the base matrix's arrays are referenced through base_).
  struct Shard {
    size_t row_begin = 0;
    size_t rows = 0;
    size_t nnz = 0;
    std::vector<size_t> row_ptr;  // local base-0 offsets (owned shards)
    std::vector<uint32_t> col;    // global columns, packed (owned shards)
    std::vector<double> lo;
    std::vector<double> hi;
    MappedSegment mapped;
  };

  // Kernel-facing description of one shard: a packed view plus the row
  // range to run and the offset translating view rows to global rows.
  struct SegRef {
    spk::PackedCsrView view;
    const double* lo = nullptr;
    const double* hi = nullptr;
    size_t row_begin = 0;  // range within `view`
    size_t row_end = 0;
    size_t offset = 0;  // global row of view-row row_begin, minus row_begin
    const MappedSegment* mapped = nullptr;
  };
  SegRef Seg(size_t s) const;

  void MaybeDropResidency(const SegRef& seg) const;

  // Shared scaffolding of the scatter-reduction kernels: partitions shards
  // into deterministic contiguous groups, hands each group zero-filled
  // acc_len-sized accumulators (one, or two when out1 != nullptr) to fill
  // shard-sequentially, then reduces group partials in fixed order.
  template <typename ScatterFn>
  void ReduceOverShards(size_t acc_len, ScatterFn&& scatter,
                        std::vector<double>* out0,
                        std::vector<double>* out1) const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t nnz_ = 0;
  size_t shard_rows_ = 0;
  std::vector<Shard> shards_;
  std::shared_ptr<const SparseIntervalMatrix> base_;  // view backing only
  // The backend every shard kernel runs (spk::Resolve of the request).
  spk::Backend backend_ = spk::Resolve(spk::Backend::kAvx2);
  bool mmap_backed_ = false;
  std::string store_dir_;
  bool owns_store_ = false;
  bool drop_residency_ = false;
};

class ShardedSparseIntervalMatrix::Builder {
 public:
  Builder(size_t rows, size_t cols, size_t shard_rows, BackingPolicy policy);

  // Entries must arrive in strictly ascending (row, col) order; rows may
  // be skipped (they are empty).
  void Append(size_t row, size_t col, const Interval& value);

  // Flushes the tail shard and returns the matrix. The builder is spent.
  ShardedSparseIntervalMatrix Finish();

 private:
  // Seals the currently filling shard (padding trailing empty rows) and
  // appends it to the matrix — to a segment file under mmap backing.
  void FlushShard();

  ShardedSparseIntervalMatrix m_;
  std::vector<size_t> row_ptr_;  // current shard, local base-0
  std::vector<uint32_t> col_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  size_t next_row_ = 0;      // global row of the last appended entry
  size_t flushed_rows_ = 0;  // rows already flushed into shards
  size_t last_col_ = 0;
  bool row_open_ = false;
  bool finished_ = false;
  bool mmap_ = false;
};

// A Gram of a sharded store as the LinearOperator ComputeLanczosEig
// consumes — the operator under every sparse ISVD. The endpoint Gram
// x -> M_eᵀ (M_e x) is one fused GramMultiply pass per apply: ISVD1's
// per-endpoint Gram, and ISVD2-4's Algorithm-1 Gram endpoint for entrywise
// non-negative input, where the four endpoint products are monotone in the
// entries and the min/max collapse to M_*ᵀM_* and M^*ᵀM^* (signed input
// uses DenseGramEndpoints). The midpoint Gram x -> M_midᵀ (M_mid x), with
// M_mid = (M_* + M^*) / 2, is ISVD0's: MultiplyMid into a rows()-long
// scratch vector, then MultiplyTransposeMid (no fused midpoint kernel
// exists). Gram side is MᵀM by construction.
class ShardedGramOperator final : public LinearOperator {
 public:
  ShardedGramOperator(const ShardedSparseIntervalMatrix& m,
                      ShardedSparseIntervalMatrix::Endpoint endpoint)
      : m_(m), endpoint_(endpoint) {}

  // The midpoint Gram of `m`.
  static ShardedGramOperator Mid(const ShardedSparseIntervalMatrix& m) {
    return ShardedGramOperator(m);
  }

  size_t Dim() const override { return m_.cols(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    if (endpoint_) {
      m_.GramMultiply(*endpoint_, x, y);
      return;
    }
    m_.MultiplyMid(x, scratch_);
    m_.MultiplyTransposeMid(scratch_, y);
  }

 private:
  explicit ShardedGramOperator(const ShardedSparseIntervalMatrix& m)
      : m_(m) {}

  const ShardedSparseIntervalMatrix& m_;
  // Empty for the midpoint Gram.
  std::optional<ShardedSparseIntervalMatrix::Endpoint> endpoint_;
  // M_mid x between the two midpoint passes. Per instance, so concurrent
  // solves on separate operators stay independent.
  mutable std::vector<double> scratch_;
};

}  // namespace ivmf

#endif  // IVMF_SPARSE_BLOCK_MATRIX_H_
