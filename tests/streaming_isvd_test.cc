// Streaming subsystem tests: the delta-log matrix must stay exactly
// equivalent to from-scratch triplet construction under interleaved
// inserts, updates, and compactions, and StreamingIsvd's incremental
// (warm-started, early-exiting) refreshes must match the from-scratch
// decomposition to 1e-8 for every strategy 0–4 while never spending more
// Krylov iterations than a cold start.

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "core/streaming_isvd.h"
#include "sparse/dynamic_sparse_interval_matrix.h"

namespace ivmf {
namespace {

using CellMap = std::map<std::pair<size_t, size_t>, Interval>;

std::vector<IntervalTriplet> ToTriplets(const CellMap& cells) {
  std::vector<IntervalTriplet> triplets;
  triplets.reserve(cells.size());
  for (const auto& [key, value] : cells) {
    triplets.push_back({key.first, key.second, value});
  }
  return triplets;
}

void ExpectSameMatrix(const SparseIntervalMatrix& a,
                      const SparseIntervalMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  for (size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(a.lower_values()[k], b.lower_values()[k]) << "entry " << k;
    EXPECT_EQ(a.upper_values()[k], b.upper_values()[k]) << "entry " << k;
  }
}

// A near-low-rank non-negative base: rank-`k` structure the decompositions
// resolve with comfortable spectral gaps, at partial fill like the
// recommender matrices.
CellMap RandomBaseCells(size_t n, size_t m, size_t k, double fill, Rng& rng) {
  Matrix u(n, k), v(m, k);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < k; ++j) u(i, j) = rng.Uniform(0.1, 1.0);
  for (size_t i = 0; i < m; ++i)
    for (size_t j = 0; j < k; ++j) v(i, j) = rng.Uniform(0.1, 1.0);
  CellMap cells;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!rng.Bernoulli(fill)) continue;
      double base = 0.0;
      for (size_t c = 0; c < k; ++c) base += u(i, c) * v(j, c);
      cells[{i, j}] = Interval(base, base + rng.Uniform(0.0, 0.2));
    }
  }
  return cells;
}

// A batch of arrivals: mostly small revisions of existing cells plus a few
// brand-new cells, mirroring ratings being revised and added.
std::vector<IntervalTriplet> RandomBatch(const CellMap& cells, size_t n,
                                         size_t m, size_t revisions,
                                         size_t inserts, Rng& rng) {
  std::vector<IntervalTriplet> batch;
  std::vector<std::pair<size_t, size_t>> keys;
  keys.reserve(cells.size());
  for (const auto& [key, value] : cells) keys.push_back(key);
  for (size_t t = 0; t < revisions && !keys.empty(); ++t) {
    const auto& key = keys[rng.UniformIndex(keys.size())];
    const Interval old = cells.at(key);
    const double shift = rng.Uniform(-0.05, 0.05);
    batch.push_back(
        {key.first, key.second,
         Interval(old.lo + shift, old.hi + shift + rng.Uniform(0.0, 0.02))});
  }
  for (size_t t = 0; t < inserts; ++t) {
    const size_t i = rng.UniformIndex(n);
    const size_t j = rng.UniformIndex(m);
    const double base = rng.Uniform(0.2, 1.0);
    batch.push_back({i, j, Interval(base, base + rng.Uniform(0.0, 0.2))});
  }
  return batch;
}

void ApplyToShadow(CellMap& cells, const std::vector<IntervalTriplet>& batch) {
  for (const IntervalTriplet& t : batch) cells[{t.row, t.col}] = t.value;
}

// ---------------------------------------------------------------------------
// DynamicSparseIntervalMatrix
// ---------------------------------------------------------------------------

TEST(DynamicSparseIntervalMatrixTest, UpsertAtAndCounts) {
  DynamicSparseIntervalMatrix m(4, 3);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.DeltaFraction(), 0.0);

  EXPECT_EQ(m.Upsert(1, 2, Interval(1.0, 2.0)), Interval());
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(1, 2), Interval(1.0, 2.0));
  EXPECT_EQ(m.At(0, 0), Interval());

  // Last write wins, and the previous value comes back.
  EXPECT_EQ(m.Upsert(1, 2, Interval(3.0, 4.0)), Interval(1.0, 2.0));
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(1, 2), Interval(3.0, 4.0));
}

TEST(DynamicSparseIntervalMatrixTest, RevisionOfBaseCellCountsOnce) {
  const SparseIntervalMatrix base = SparseIntervalMatrix::FromTriplets(
      3, 3, {{0, 0, Interval(1.0, 1.0)}, {2, 1, Interval(2.0, 3.0)}});
  DynamicSparseIntervalMatrix m(base);
  EXPECT_EQ(m.nnz(), 2u);

  // Revising a base cell shadows it instead of duplicating it.
  EXPECT_EQ(m.Upsert(2, 1, Interval(5.0, 6.0)), Interval(2.0, 3.0));
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.delta_size(), 1u);
  EXPECT_EQ(m.At(2, 1), Interval(5.0, 6.0));

  // A new cell grows the count.
  m.Upsert(1, 2, Interval(7.0, 7.0));
  EXPECT_EQ(m.nnz(), 3u);

  const SparseIntervalMatrix snap = m.Snapshot();
  EXPECT_EQ(snap.nnz(), 3u);
  EXPECT_EQ(snap.At(2, 1), Interval(5.0, 6.0));
  EXPECT_EQ(snap.At(0, 0), Interval(1.0, 1.0));
}

TEST(DynamicSparseIntervalMatrixTest, CompactionPreservesContentAndResetsLog) {
  DynamicSparseIntervalMatrix m(5, 5);
  m.Upsert(0, 1, Interval(1.0, 2.0));
  m.Upsert(4, 4, Interval(-1.0, 1.0));
  EXPECT_EQ(m.delta_size(), 2u);

  m.Compact();
  EXPECT_EQ(m.delta_size(), 0u);
  EXPECT_EQ(m.base_nnz(), 2u);
  EXPECT_EQ(m.At(0, 1), Interval(1.0, 2.0));
  EXPECT_EQ(m.At(4, 4), Interval(-1.0, 1.0));

  // Threshold trigger: one delta over two base cells is 50% > 25%.
  m.Upsert(2, 2, Interval(3.0, 3.0));
  EXPECT_TRUE(m.MaybeCompact(0.25));
  EXPECT_EQ(m.delta_size(), 0u);
  EXPECT_EQ(m.base_nnz(), 3u);
  EXPECT_FALSE(m.MaybeCompact(0.25));  // empty log: nothing to do
}

TEST(DynamicSparseIntervalMatrixTest,
     SnapshotMatchesFromTripletsUnderInterleavedMutations) {
  Rng rng(91);
  const size_t n = 30, m = 20;
  CellMap shadow = RandomBaseCells(n, m, 3, 0.2, rng);
  DynamicSparseIntervalMatrix dynamic(
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)));

  for (int round = 0; round < 6; ++round) {
    const std::vector<IntervalTriplet> batch =
        RandomBatch(shadow, n, m, /*revisions=*/7, /*inserts=*/5, rng);
    dynamic.ApplyBatch(batch);
    ApplyToShadow(shadow, batch);
    if (round == 2) dynamic.Compact();         // explicit compaction
    if (round == 4) dynamic.MaybeCompact(0.0);  // threshold compaction
    ExpectSameMatrix(dynamic.Snapshot(), SparseIntervalMatrix::FromTriplets(
                                             n, m, ToTriplets(shadow)));
    EXPECT_EQ(dynamic.nnz(), shadow.size());
  }
}

// ---------------------------------------------------------------------------
// StreamingIsvd
// ---------------------------------------------------------------------------

void ExpectResultsAgree(const IsvdResult& expected, const IsvdResult& actual,
                        double tol) {
  ASSERT_EQ(expected.rank(), actual.rank());
  for (size_t j = 0; j < expected.rank(); ++j) {
    EXPECT_NEAR(expected.sigma[j].lo, actual.sigma[j].lo, tol);
    EXPECT_NEAR(expected.sigma[j].hi, actual.sigma[j].hi, tol);
  }
  const IntervalMatrix recon_expected = expected.Reconstruct();
  const IntervalMatrix recon_actual = actual.Reconstruct();
  EXPECT_TRUE(recon_actual.ApproxEquals(recon_expected, tol))
      << "max lower diff "
      << (recon_actual.lower() - recon_expected.lower()).MaxAbs()
      << ", max upper diff "
      << (recon_actual.upper() - recon_expected.upper()).MaxAbs();
}

class StreamingIsvdStrategyTest : public ::testing::TestWithParam<int> {};

// The acceptance-criterion property test: batches arrive, the streaming
// decomposition refreshes incrementally (warm-started, early-exiting), and
// after every batch the result matches a from-scratch decomposition of the
// same matrix — same solver family, cold — to 1e-8.
TEST_P(StreamingIsvdStrategyTest, IncrementalMatchesFromScratchPerBatch) {
  const int strategy = GetParam();
  Rng rng(500 + strategy);
  const size_t n = 40, m = 24, rank = 4;
  CellMap shadow = RandomBaseCells(n, m, 4, 0.35, rng);

  StreamingIsvdOptions options;
  StreamingIsvd streaming(
      strategy, rank,
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)), options);
  EXPECT_FALSE(streaming.last_stats().warm);  // initial build is cold

  size_t warm_refreshes = 0;
  for (int round = 0; round < 4; ++round) {
    const std::vector<IntervalTriplet> batch =
        RandomBatch(shadow, n, m, /*revisions=*/6, /*inserts=*/3, rng);
    streaming.ApplyBatch(batch);
    ApplyToShadow(shadow, batch);

    const IsvdResult& incremental = streaming.Refresh();
    warm_refreshes += streaming.last_stats().warm ? 1 : 0;

    const IsvdResult from_scratch =
        RunIsvd(strategy,
                SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)),
                rank, options.isvd);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ExpectResultsAgree(from_scratch, incremental, 1e-8);
  }
  // The point of the subsystem: these small batches refresh warm.
  EXPECT_GT(warm_refreshes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StreamingIsvdStrategyTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST_P(StreamingIsvdStrategyTest, WarmStartNeverSlowerThanColdInIterations) {
  const int strategy = GetParam();
  Rng rng(700 + strategy);
  const size_t n = 50, m = 30, rank = 4;
  CellMap shadow = RandomBaseCells(n, m, 4, 0.3, rng);
  const SparseIntervalMatrix base =
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow));

  StreamingIsvdOptions options;
  options.convergence_tol = 1e-10;
  StreamingIsvd streaming(strategy, rank, base, options);
  const size_t cold_iterations = streaming.last_stats().iterations;
  ASSERT_GT(cold_iterations, 0u);

  const std::vector<IntervalTriplet> batch =
      RandomBatch(shadow, n, m, /*revisions=*/5, /*inserts=*/2, rng);
  streaming.ApplyBatch(batch);
  streaming.Refresh();
  ASSERT_TRUE(streaming.last_stats().warm);
  EXPECT_LE(streaming.last_stats().iterations, cold_iterations);
}

TEST(StreamingIsvdTest, LargeBatchFallsBackToFullRecompute) {
  Rng rng(801);
  const size_t n = 30, m = 18;
  CellMap shadow = RandomBaseCells(n, m, 3, 0.3, rng);

  StreamingIsvdOptions options;
  options.warm_delta_bound = 0.05;
  StreamingIsvd streaming(
      2, 3, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)),
      options);

  // Rewrite far more than 5% of the cells: the delta-log bound trips.
  std::vector<IntervalTriplet> flood;
  for (size_t i = 0; i < n; ++i) {
    flood.push_back({i, i % m, Interval(2.0, 2.5)});
  }
  streaming.ApplyBatch(flood);
  ApplyToShadow(shadow, flood);
  streaming.Refresh();
  EXPECT_FALSE(streaming.last_stats().warm);

  // And the cold result still matches from-scratch exactly (same path).
  const IsvdResult from_scratch = RunIsvd(
      2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)), 3,
      options.isvd);
  ExpectResultsAgree(from_scratch, streaming.result(), 1e-12);
}

TEST(StreamingIsvdTest, DriftBoundFallsBackToFullRecompute) {
  Rng rng(802);
  const size_t n = 30, m = 18;
  CellMap shadow = RandomBaseCells(n, m, 3, 0.3, rng);

  StreamingIsvdOptions options;
  options.warm_drift_bound = 0.01;
  StreamingIsvd streaming(
      3, 3, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)),
      options);

  // One cell, but with a change whose Frobenius mass dwarfs 1% of σ₁.
  streaming.ApplyBatch({{0, 0, Interval(500.0, 600.0)}});
  streaming.Refresh();
  EXPECT_FALSE(streaming.last_stats().warm);
}

TEST(StreamingIsvdTest, StartsFromEmptyMatrix) {
  StreamingIsvdOptions options;
  StreamingIsvd streaming(
      1, 2, SparseIntervalMatrix::FromTriplets(12, 8, {}), options);
  EXPECT_EQ(streaming.result().rank(), 2u);
  for (const Interval& s : streaming.result().sigma) {
    EXPECT_NEAR(s.lo, 0.0, 1e-12);
    EXPECT_NEAR(s.hi, 0.0, 1e-12);
  }

  // First real content arrives; the refresh must recompute cold (a zero
  // spectrum carries no subspace worth warm-starting from).
  streaming.ApplyBatch({{0, 0, Interval(1.0, 2.0)},
                        {3, 4, Interval(0.5, 0.75)},
                        {11, 7, Interval(2.0, 2.0)}});
  streaming.Refresh();
  EXPECT_FALSE(streaming.last_stats().warm);
  EXPECT_GT(streaming.result().sigma[0].hi, 0.5);
}

// A wide matrix resolves GramSide::kAuto to kMMt: ISVD2-4 refresh on a view
// of the transpose, and their warm refreshes start from U (ISVD0/1 keep V).
// Warm results must still agree with a from-scratch decomposition.
TEST_P(StreamingIsvdStrategyTest, WideIncrementalMatchesFromScratchPerBatch) {
  const int strategy = GetParam();
  Rng rng(950 + strategy);
  const size_t n = 24, m = 40, rank = 4;
  CellMap shadow = RandomBaseCells(n, m, 4, 0.35, rng);

  StreamingIsvdOptions options;
  StreamingIsvd streaming(
      strategy, rank,
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)), options);
  ASSERT_EQ(ResolveGramSide(*streaming.matrix_snapshot(),
                            options.isvd.gram_side),
            GramSide::kMMt);

  size_t warm_refreshes = 0;
  for (int round = 0; round < 4; ++round) {
    const std::vector<IntervalTriplet> batch =
        RandomBatch(shadow, n, m, /*revisions=*/6, /*inserts=*/3, rng);
    streaming.ApplyBatch(batch);
    ApplyToShadow(shadow, batch);

    const IsvdResult& incremental = streaming.Refresh();
    warm_refreshes += streaming.last_stats().warm ? 1 : 0;

    const IsvdResult from_scratch =
        RunIsvd(strategy,
                SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(shadow)),
                rank, options.isvd);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ExpectResultsAgree(from_scratch, incremental, 1e-8);
  }
  EXPECT_GT(warm_refreshes, 0u);
}

}  // namespace
}  // namespace ivmf
