// Streaming interval SVD: incremental decomposition refreshes for rating
// matrices that grow as users rate items (the paper's Section 6.1.3
// workload, made online).
//
// Every batch-mode pipeline stage rebuilds the CSR matrix from triplets and
// re-runs the full decomposition per change. StreamingIsvd instead owns a
// DynamicSparseIntervalMatrix (delta log over a compacted CSR base — O(log)
// upserts, threshold-triggered compaction) and refreshes the decomposition
// incrementally for every strategy 0–4: each refresh snapshots the matrix
// with one linear merge and warm-starts the Krylov solvers from the
// previous step's Ritz vectors with a convergence-based early exit, so a
// small batch of arrivals costs a handful of O(nnz) operator applications
// instead of a full cold decomposition. Every refresh decomposes through
// the same forward as the batch RunIsvd: a zero-copy block-row view of the
// frozen snapshot (core/sparse_isvd.h), so no refresh builds a transpose
// unless the resolved Gram side is kMMt.
//
// The incremental path is a heuristic accelerator, never a semantic change:
// when the accumulated changes are too large for the previous subspace to
// be a useful guess — the delta log exceeds `warm_delta_bound` of the
// matrix, or the Frobenius mass of the changed cells exceeds
// `warm_drift_bound` relative to the leading singular value (a Weyl-type
// perturbation proxy) — the refresh silently falls back to a full cold
// recompute, identical to the batch pipeline. Warm results agree with
// from-scratch decomposition to the convergence tolerance (property-tested
// at 1e-8; see tests/streaming_isvd_test.cc).

#ifndef IVMF_CORE_STREAMING_ISVD_H_
#define IVMF_CORE_STREAMING_ISVD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/isvd.h"
#include "core/sparse_isvd.h"
#include "sparse/dynamic_sparse_interval_matrix.h"

namespace ivmf {

struct StreamingIsvdOptions {
  // Strategy-family options for each refresh. Defaults differ from batch
  // IsvdOptions where streaming demands it: the Lanczos eigensolver (warm
  // starts have no effect on Jacobi) and the auto Gram side.
  IsvdOptions isvd;
  // Delta-log compaction trigger (see DynamicSparseIntervalMatrix).
  double compact_threshold = 0.25;
  // Warm-refresh eligibility bounds; beyond either, the refresh recomputes
  // cold. Delta bound is changed-cells / nnz at the previous refresh; drift
  // bound is ||ΔM||_F / σ₁ of the previous result. The Frobenius mass is a
  // guaranteed over-estimate of the spectral perturbation (Weyl), and for
  // scattered cell updates a large one — the mass spreads across many
  // directions — so the default tolerates mass up to σ₁ itself and exists
  // to catch concentrated rewrites (one user's row replaced wholesale),
  // which genuinely rotate the subspace.
  double warm_delta_bound = 0.10;
  double warm_drift_bound = 1.0;
  // Krylov early-exit tolerance used by warm refreshes (Ritz residual
  // relative to the leading Ritz value). Cold refreshes build the full
  // Krylov cap, exactly like the batch pipeline.
  double convergence_tol = 1e-11;
  // Krylov cap for warm refreshes (cold refreshes keep the solver defaults,
  // 3.0 / 25). The warm start already concentrates the start vector on the
  // wanted subspace, so on resolvable spectra the early exit stops well
  // inside either cap, and on bulk-dominated spectra (recommender matrices
  // past the signal rank — see bench/fig10_streaming.cc) the trailing Ritz
  // values are start-dependent O(bulk-width) approximations at ANY
  // affordable cap, so the extra cold-cap steps buy no real accuracy —
  // the reduced cap is where the warm refresh's iteration savings are
  // guaranteed rather than spectrum-dependent.
  double warm_subspace_factor = 2.0;
  size_t warm_subspace_extra = 15;
  // Master switch: false forces every refresh cold (useful for A/B
  // measurement; the bench uses it as the recompute baseline).
  bool warm_start = true;

  StreamingIsvdOptions() {
    isvd.eig_solver = EigSolver::kLanczos;
    isvd.gram_side = GramSide::kAuto;
  }
};

// What one Refresh() did, for logging / benches.
struct StreamingRefreshStats {
  bool warm = false;       // warm incremental refresh vs full recompute
  size_t delta_cells = 0;  // upserts applied since the previous refresh
  size_t iterations = 0;   // Krylov steps spent (IsvdResult::iterations)
  double seconds = 0.0;    // wall clock of the refresh
  double snapshot_seconds = 0.0;   // compact + frozen-view share
  double decompose_seconds = 0.0;  // RunIsvd share
};

class StreamingIsvd {
 public:
  // Takes the historical matrix (may be empty but must carry the final
  // shape — streaming revises cells, it does not grow the universe) and
  // runs the initial cold decomposition, so result() is always valid.
  StreamingIsvd(int strategy, size_t rank, SparseIntervalMatrix base,
                const StreamingIsvdOptions& options = {});

  // Applies a batch of arriving / revised ratings to the delta log
  // (last-write-wins per cell) and compacts when past the threshold. Does
  // not refresh the decomposition — call Refresh() when the consumer needs
  // current factors, typically once per batch or on a period.
  void ApplyBatch(const std::vector<IntervalTriplet>& batch);

  // Re-decomposes the current matrix — warm-started and early-exiting when
  // the accumulated change is within bounds, cold otherwise — and returns
  // the new result. last_stats() describes what happened.
  const IsvdResult& Refresh();

  int strategy() const { return strategy_; }
  size_t rank() const { return rank_; }
  const DynamicSparseIntervalMatrix& matrix() const { return matrix_; }
  const IsvdResult& result() const { return result_; }
  const StreamingRefreshStats& last_stats() const { return stats_; }

  // Snapshot export hook for the serving layer: the immutable shared CSR
  // view that result() was computed from — the exact matrix object the last
  // Refresh() decomposed, so (matrix_snapshot(), result()) is always an
  // internally consistent pair regardless of ApplyBatch calls made since.
  // The view is safe to read from any thread; the accessor itself follows
  // the class's single-writer contract (Refresh replaces it).
  const std::shared_ptr<const SparseIntervalMatrix>& matrix_snapshot() const {
    return snapshot_;
  }

  // Refreshes completed so far (>= 1: construction runs the first one).
  // The serving layer stamps this as the published epoch.
  uint64_t refresh_count() const { return refresh_count_; }

 private:
  bool WarmEligible() const;
  void CaptureWarmBases();

  int strategy_;
  size_t rank_;
  StreamingIsvdOptions options_;
  DynamicSparseIntervalMatrix matrix_;
  IsvdResult result_;
  std::shared_ptr<const SparseIntervalMatrix> snapshot_;
  uint64_t refresh_count_ = 0;
  StreamingRefreshStats stats_;
  // Previous refresh's Ritz bases for the lower / upper endpoint solves.
  Matrix warm_lo_;
  Matrix warm_hi_;
  // Change accounting since the last refresh.
  double drift_sq_ = 0.0;
  size_t cells_since_refresh_ = 0;
  size_t last_refresh_nnz_ = 0;
  bool have_result_ = false;
};

}  // namespace ivmf

#endif  // IVMF_CORE_STREAMING_ISVD_H_
