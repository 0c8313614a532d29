// An immutable, shareable view of one decomposition epoch — the unit the
// serving layer publishes and readers query.
//
// A ServingSnapshot pairs the factors of one StreamingIsvd refresh with the
// frozen CSR matrix that refresh decomposed (StreamingIsvd::matrix_snapshot,
// handed off as a shared view by DynamicSparseIntervalMatrix), stamped with
// the refresh's epoch. (The refresh decomposed through a zero-copy
// block-row view of those same arrays, held only for the call, so the CSR
// matrix is all a snapshot keeps.) Everything inside is deep-immutable after
// construction, so any number of reader threads may call Predict / TopK /
// Observed concurrently with no synchronization while the writer builds and
// publishes the next epoch; a reader that still holds an old snapshot keeps
// it alive through the shared_ptr until its last query finishes (RCU-style
// grace period by reference count).
//
// Predict reproduces IsvdResult::Reconstruct entry-by-entry — same
// reconstruction rule per decomposition target (supplementary Algorithms
// 12–14), O(rank) per cell instead of materializing the n x m matrix — so a
// served prediction is exactly the reconstruction of the published epoch.
//
// TopK ranks every item in one pass over a k-major (rank x items) copy of
// V built once per epoch by the constructor. It computes only each item's
// ranking key, in blocks of items whose sums stay in registers, keeps the
// best k in a bounded heap, and calls Predict for the winners alone. Each
// key accumulates in Predict's k order with Predict's products, so it
// equals Predict(user, item).Mid() bit for bit and the ranking is exactly
// the brute-force one.

#ifndef IVMF_SERVE_SERVING_SNAPSHOT_H_
#define IVMF_SERVE_SERVING_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/isvd.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

class ServingSnapshot {
 public:
  // One item with its predicted score, as returned by TopK.
  struct ScoredItem {
    size_t item = 0;
    Interval score;  // predicted interval; ranking is by midpoint
  };

  // Takes ownership of the factors and shares the frozen matrix view.
  // `matrix` must be non-null and its shape must cover the factor rows
  // (users x items); u, v and sigma must agree on the rank; `result` must
  // be the decomposition of `*matrix`.
  ServingSnapshot(uint64_t epoch, IsvdResult result,
                  std::shared_ptr<const SparseIntervalMatrix> matrix);

  uint64_t epoch() const { return epoch_; }
  size_t users() const { return matrix_->rows(); }
  size_t items() const { return matrix_->cols(); }
  size_t rank() const { return result_.rank(); }
  const IsvdResult& result() const { return result_; }
  const SparseIntervalMatrix& matrix() const { return *matrix_; }
  const std::shared_ptr<const SparseIntervalMatrix>& shared_matrix() const {
    return matrix_;
  }

  // Predicted interval [lo, hi] for one (user, item) cell: the entry of the
  // reconstruction M̃† = U† Σ† V†ᵀ under the result's target rule. Equal to
  // result().Reconstruct().At(user, item) without the O(n·m·r) rebuild.
  Interval Predict(size_t user, size_t item) const;

  // The rating actually observed for the cell in this epoch's matrix
  // ([0, 0] when the cell is absent — the CSR convention).
  Interval Observed(size_t user, size_t item) const {
    return matrix_->At(user, item);
  }

  // The k items with the highest predicted midpoint score for `user`,
  // descending; ties broken by ascending item index so the ranking is
  // deterministic. With `exclude_observed` items the user already rated
  // (explicit cells of the frozen matrix) are skipped — the classic
  // recommend-something-new query, and the reason the snapshot carries the
  // matrix view alongside the factors. Returns fewer than k items when the
  // candidate set is smaller. Each score is Predict(user, item), and the
  // result equals sorting every candidate's Predict by that order. Costs
  // one pass over items x rank plus a heap of at most k entries; allocates
  // O(k + rank), never O(items).
  std::vector<ScoredItem> TopK(size_t user, size_t k,
                               bool exclude_observed = false) const;

 private:
  uint64_t epoch_;
  IsvdResult result_;
  std::shared_ptr<const SparseIntervalMatrix> matrix_;
  // V transposed to rank x items, each row zero-padded to whole TopK
  // blocks: the lower (for targets b and c, the scalar) endpoint, and the
  // upper endpoint for target a only.
  Matrix v_lo_kmajor_;
  Matrix v_hi_kmajor_;
};

}  // namespace ivmf

#endif  // IVMF_SERVE_SERVING_SNAPSHOT_H_
