// Serving-layer unit tests: per-cell Predict must reproduce the full
// Reconstruct for every strategy x target, TopK must match a brute-force
// ranking, the registry must hand out the latest epoch, the engine's
// drain/refresh/publish step must produce snapshots consistent with a
// from-scratch decomposition of the published matrix, a malformed Submit
// must be rejected without touching the served epoch, and the sparse
// frozen-view handoff must cache until the next mutation.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "core/sparse_isvd.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"
#include "serve/snapshot_registry.h"
#include "serve/serving_snapshot.h"
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

// Near-low-rank non-negative cells, like the streaming suite uses: spectra
// the decompositions resolve cleanly.
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

ServingSnapshot SnapshotOf(const StreamingIsvd& streaming, uint64_t epoch) {
  return ServingSnapshot(epoch, streaming.result(),
                         streaming.matrix_snapshot());
}

// ---------------------------------------------------------------------------
// ServingSnapshot
// ---------------------------------------------------------------------------

TEST(ServingSnapshotTest, PredictMatchesReconstructEveryStrategyAndTarget) {
  Rng rng(11);
  const size_t n = 20, m = 12, rank = 3;
  const CellMap cells = RandomBaseCells(n, m, 3, 0.5, rng);
  const SparseIntervalMatrix base =
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells));

  for (int strategy = 0; strategy <= 4; ++strategy) {
    for (const DecompositionTarget target :
         {DecompositionTarget::kA, DecompositionTarget::kB,
          DecompositionTarget::kC}) {
      StreamingIsvdOptions options;
      options.isvd.target = target;
      StreamingIsvd streaming(strategy, rank, base, options);
      const ServingSnapshot snapshot = SnapshotOf(streaming, 1);
      const IntervalMatrix recon = streaming.result().Reconstruct();
      SCOPED_TRACE(::testing::Message()
                   << "strategy " << strategy << " target "
                   << static_cast<int>(target));
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
          const Interval predicted = snapshot.Predict(i, j);
          const Interval expected = recon.At(i, j);
          EXPECT_NEAR(predicted.lo, expected.lo, 1e-10)
              << "cell (" << i << ", " << j << ")";
          EXPECT_NEAR(predicted.hi, expected.hi, 1e-10)
              << "cell (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(ServingSnapshotTest, ObservedReturnsFrozenMatrixCells) {
  Rng rng(12);
  const size_t n = 15, m = 10;
  const CellMap cells = RandomBaseCells(n, m, 2, 0.4, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  const ServingSnapshot snapshot = SnapshotOf(streaming, 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const auto it = cells.find({i, j});
      const Interval expected =
          it == cells.end() ? Interval() : it->second;
      EXPECT_EQ(snapshot.Observed(i, j), expected);
    }
  }
}

// The brute-force ranking TopK must reproduce exactly: every candidate's
// Predict, sorted by midpoint descending then item ascending, first k.
std::vector<ServingSnapshot::ScoredItem> BruteForceTopK(
    const ServingSnapshot& snapshot, size_t user, size_t k,
    bool exclude_observed) {
  const SparseIntervalMatrix& m = snapshot.matrix();
  const auto rated_begin =
      m.col_idx().begin() + static_cast<ptrdiff_t>(m.row_ptr()[user]);
  const auto rated_end =
      m.col_idx().begin() + static_cast<ptrdiff_t>(m.row_ptr()[user + 1]);
  std::vector<ServingSnapshot::ScoredItem> all;
  for (size_t j = 0; j < snapshot.items(); ++j) {
    if (exclude_observed && std::binary_search(rated_begin, rated_end, j)) {
      continue;
    }
    all.push_back({j, snapshot.Predict(user, j)});
  }
  std::sort(all.begin(), all.end(),
            [](const ServingSnapshot::ScoredItem& a,
               const ServingSnapshot::ScoredItem& b) {
              if (a.score.Mid() != b.score.Mid()) {
                return a.score.Mid() > b.score.Mid();
              }
              return a.item < b.item;
            });
  all.resize(std::min(all.size(), k));
  return all;
}

// TopK equals the brute force item for item and score for score (==, not
// a tolerance) for every user, both exclusion modes, and k in {0, 1, 5,
// exactly the candidates, more than the candidates}.
void ExpectTopKMatchesBruteForce(const ServingSnapshot& snapshot) {
  const SparseIntervalMatrix& m = snapshot.matrix();
  for (size_t user = 0; user < snapshot.users(); ++user) {
    for (const bool exclude : {false, true}) {
      const size_t rated = m.row_ptr()[user + 1] - m.row_ptr()[user];
      const size_t candidates = snapshot.items() - (exclude ? rated : 0);
      for (const size_t k : {size_t{0}, size_t{1}, size_t{5}, candidates,
                             candidates + 3}) {
        SCOPED_TRACE(::testing::Message()
                     << "user " << user << " exclude " << exclude << " k "
                     << k << " items " << snapshot.items());
        const std::vector<ServingSnapshot::ScoredItem> want =
            BruteForceTopK(snapshot, user, k, exclude);
        const std::vector<ServingSnapshot::ScoredItem> got =
            snapshot.TopK(user, k, exclude);
        ASSERT_EQ(got.size(), want.size());
        for (size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(got[r].item, want[r].item) << "rank " << r;
          EXPECT_EQ(got[r].score, want[r].score) << "rank " << r;
        }
      }
    }
  }
}

// A snapshot over hand-built signed factors, so target a's mixed-sign
// endpoint products and target b's misordered sums (served average-
// replaced) both occur. Every third V row duplicates its predecessor, so
// equal keys must break by ascending item. User 0 rated every item and
// user 1 none; the rest rate about a third.
ServingSnapshot HandBuiltSnapshot(DecompositionTarget target, size_t users,
                                  size_t items, size_t rank, Rng& rng) {
  const auto random = [&rng](size_t rows, size_t cols) {
    Matrix x(rows, cols);
    for (size_t i = 0; i < rows; ++i)
      for (size_t j = 0; j < cols; ++j) x(i, j) = rng.Uniform(-1.0, 1.0);
    return x;
  };
  const auto widened = [&rng](const Matrix& lo) {
    Matrix hi = lo;
    for (size_t i = 0; i < hi.rows(); ++i)
      for (size_t j = 0; j < hi.cols(); ++j) hi(i, j) += rng.Uniform(0.0, 0.5);
    return hi;
  };
  IsvdResult result;
  result.target = target;
  const Matrix u = random(users, rank);
  Matrix v = random(items, rank);
  for (size_t j = 1; j < items; j += 3) {
    for (size_t c = 0; c < rank; ++c) v(j, c) = v(j - 1, c);
  }
  if (target == DecompositionTarget::kA) {
    result.u = IntervalMatrix(u, widened(u));
    Matrix v_hi = widened(v);
    for (size_t j = 1; j < items; j += 3) {
      for (size_t c = 0; c < rank; ++c) v_hi(j, c) = v_hi(j - 1, c);
    }
    result.v = IntervalMatrix(v, v_hi);
  } else {
    result.u = IntervalMatrix::FromScalar(u);
    result.v = IntervalMatrix::FromScalar(v);
  }
  for (size_t c = 0; c < rank; ++c) {
    const double s = rng.Uniform(0.5, 3.0);
    result.sigma.push_back(target == DecompositionTarget::kC
                               ? Interval::Scalar(s)
                               : Interval(s, s + rng.Uniform(0.0, 1.0)));
  }
  CellMap cells;
  for (size_t i = 0; i < users; ++i) {
    for (size_t j = 0; j < items; ++j) {
      if (i == 0 || (i != 1 && rng.Bernoulli(0.3))) {
        cells[{i, j}] = Interval(1.0, 2.0);
      }
    }
  }
  return ServingSnapshot(
      1, std::move(result),
      std::make_shared<const SparseIntervalMatrix>(
          SparseIntervalMatrix::FromTriplets(users, items, ToTriplets(cells))));
}

TEST(ServingSnapshotTest, TopKMatchesBruteForceOnHandBuiltFactors) {
  Rng rng(13);
  for (const DecompositionTarget target :
       {DecompositionTarget::kA, DecompositionTarget::kB,
        DecompositionTarget::kC}) {
    // Item counts around the block width, and one past a thousand blocks.
    for (const size_t items : {1u, 7u, 8u, 9u, 17u, 2003u}) {
      SCOPED_TRACE(::testing::Message()
                   << "target " << static_cast<int>(target));
      const ServingSnapshot snapshot =
          HandBuiltSnapshot(target, 5, items, 4, rng);
      ExpectTopKMatchesBruteForce(snapshot);
      // The full-row user has no candidates left under exclusion.
      EXPECT_TRUE(snapshot.TopK(0, 10, /*exclude_observed=*/true).empty());
    }
  }
  // The signed factors do reach target b's average replacement.
  const ServingSnapshot b =
      HandBuiltSnapshot(DecompositionTarget::kB, 2, 17, 4, rng);
  size_t replaced = 0;
  for (size_t j = 0; j < b.items(); ++j) {
    if (b.Predict(0, j).Span() == 0.0) ++replaced;
  }
  EXPECT_GT(replaced, 0u);
}

TEST(ServingSnapshotTest, TopKMatchesBruteForceAtRankZero) {
  Rng rng(15);
  for (const DecompositionTarget target :
       {DecompositionTarget::kA, DecompositionTarget::kB,
        DecompositionTarget::kC}) {
    SCOPED_TRACE(::testing::Message()
                 << "target " << static_cast<int>(target));
    const ServingSnapshot snapshot =
        HandBuiltSnapshot(target, 4, 19, 0, rng);
    ASSERT_EQ(snapshot.rank(), 0u);
    ExpectTopKMatchesBruteForce(snapshot);
  }
}

// The same contract on factors a decomposition produced, every target.
TEST(ServingSnapshotTest, TopKMatchesBruteForceOnDecomposedFactors) {
  Rng rng(14);
  const size_t n = 18, m = 14;
  const CellMap cells = RandomBaseCells(n, m, 3, 0.5, rng);
  const SparseIntervalMatrix base =
      SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells));
  for (const DecompositionTarget target :
       {DecompositionTarget::kA, DecompositionTarget::kB,
        DecompositionTarget::kC}) {
    SCOPED_TRACE(::testing::Message()
                 << "target " << static_cast<int>(target));
    StreamingIsvdOptions options;
    options.isvd.target = target;
    StreamingIsvd streaming(3, 3, base, options);
    ExpectTopKMatchesBruteForce(SnapshotOf(streaming, 1));
  }
}

// Death tests fork, which ThreadSanitizer does not support.
#if defined(__SANITIZE_THREAD__)
#define IVMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IVMF_TSAN_BUILD 1
#endif
#endif

#ifndef IVMF_TSAN_BUILD
// Factors whose rank disagrees with sigma would make Predict and TopK read
// past a factor row; the constructor rejects them in every build.
TEST(ServingSnapshotDeathTest, RejectsFactorsWhoseRankDisagreesWithSigma) {
  const auto matrix = std::make_shared<const SparseIntervalMatrix>(
      SparseIntervalMatrix::FromTriplets(3, 4, {{0, 0, Interval(1.0, 2.0)}}));
  const auto result = [](size_t u_cols, size_t v_cols, size_t rank) {
    IsvdResult r;
    r.u = IntervalMatrix(3, u_cols);
    r.v = IntervalMatrix(4, v_cols);
    r.sigma.assign(rank, Interval(1.0, 1.0));
    return r;
  };
  EXPECT_DEATH(ServingSnapshot(1, result(2, 3, 3), matrix),
               "factor ranks do not match sigma");
  EXPECT_DEATH(ServingSnapshot(1, result(3, 2, 3), matrix),
               "factor ranks do not match sigma");
  EXPECT_DEATH(ServingSnapshot(1, result(3, 3, 2), matrix),
               "factor ranks do not match sigma");
}
#endif

// ---------------------------------------------------------------------------
// SnapshotRegistry
// ---------------------------------------------------------------------------

TEST(SnapshotRegistryTest, AcquireReturnsLatestPublished) {
  Rng rng(16);
  const CellMap cells = RandomBaseCells(8, 6, 2, 0.6, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(8, 6, ToTriplets(cells)));

  SnapshotRegistry registry;
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.published(), 0u);

  auto first = std::make_shared<const ServingSnapshot>(
      1, streaming.result(), streaming.matrix_snapshot());
  registry.Publish(first);
  EXPECT_EQ(registry.Acquire(), first);
  EXPECT_EQ(registry.published(), 1u);

  auto second = std::make_shared<const ServingSnapshot>(
      2, streaming.result(), streaming.matrix_snapshot());
  registry.Publish(second);
  EXPECT_EQ(registry.Acquire(), second);
  EXPECT_EQ(registry.Acquire()->epoch(), 2u);
  EXPECT_EQ(registry.published(), 2u);

  // An old acquire keeps its epoch alive independently of publication.
  EXPECT_EQ(first->epoch(), 1u);
}

// ---------------------------------------------------------------------------
// ServingEngine
// ---------------------------------------------------------------------------

TEST(ServingEngineTest, ConstructionPublishesEpochOne) {
  Rng rng(17);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.registry().published(), 1u);
}

TEST(ServingEngineTest, StepWithoutWorkKeepsTheEpoch) {
  Rng rng(18);
  const CellMap cells = RandomBaseCells(10, 8, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(10, 8, ToTriplets(cells)));
  const auto before = engine.Acquire();
  EXPECT_EQ(engine.Step(), 0u);
  EXPECT_EQ(engine.Acquire(), before);
  EXPECT_EQ(engine.epoch(), 1u);
}

TEST(ServingEngineTest, StepPublishesConsistentSnapshot) {
  Rng rng(19);
  const size_t n = 30, m = 20, rank = 3;
  CellMap cells = RandomBaseCells(n, m, 3, 0.4, rng);
  ServingEngine engine(
      2, rank, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));

  // Two submitted batches coalesce into one refresh.
  engine.Submit({{0, 0, Interval(2.0, 2.5)}, {5, 5, Interval(1.0, 1.5)}});
  engine.Submit({{0, 0, Interval(3.0, 3.5)}});  // revision: last write wins
  EXPECT_EQ(engine.pending_cells(), 3u);
  EXPECT_EQ(engine.Step(), 3u);
  EXPECT_EQ(engine.pending_cells(), 0u);
  EXPECT_EQ(engine.cells_applied(), 3u);

  const auto snapshot = engine.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->Observed(0, 0), Interval(3.0, 3.5));
  EXPECT_EQ(snapshot->Observed(5, 5), Interval(1.0, 1.5));

  // The published factors decompose the published matrix: a from-scratch
  // cold run of the same solver family on the frozen view agrees to the
  // streaming suite's tolerance.
  cells[{0, 0}] = Interval(3.0, 3.5);
  cells[{5, 5}] = Interval(1.0, 1.5);
  StreamingIsvdOptions options;
  const IsvdResult from_scratch =
      RunIsvd(2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)),
              rank, options.isvd);
  ASSERT_EQ(snapshot->rank(), from_scratch.rank());
  for (size_t j = 0; j < from_scratch.rank(); ++j) {
    EXPECT_NEAR(snapshot->result().sigma[j].lo, from_scratch.sigma[j].lo,
                1e-8);
    EXPECT_NEAR(snapshot->result().sigma[j].hi, from_scratch.sigma[j].hi,
                1e-8);
  }
  const IntervalMatrix recon = from_scratch.Reconstruct();
  for (size_t i = 0; i < n; i += 7) {
    for (size_t j = 0; j < m; j += 5) {
      const Interval predicted = snapshot->Predict(i, j);
      EXPECT_NEAR(predicted.lo, recon.At(i, j).lo, 1e-8);
      EXPECT_NEAR(predicted.hi, recon.At(i, j).hi, 1e-8);
    }
  }
}

// A malformed Submit must never reach the writer: the whole batch is
// rejected on the caller's thread, the served epoch stays as it was, the
// rejection is counted by reason, and the next good batch still applies.
class ServingSubmitRejectTest
    : public ::testing::TestWithParam<
          std::pair<const char*, IntervalTriplet>> {};

TEST_P(ServingSubmitRejectTest, BadCellRejectsBatchAndKeepsEpoch) {
  const char* reason = GetParam().first;
  const IntervalTriplet bad = GetParam().second;
  Rng rng(24);
  const size_t n = 20, m = 12;
  const CellMap cells = RandomBaseCells(n, m, 3, 0.4, rng);
  ServingEngine engine(
      2, 3, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  const auto before = engine.Acquire();
  const std::string counter =
      std::string("serving.submit.rejected{reason=") + reason + "}";
  const uint64_t rejected_before =
      obs::MetricsRegistry::Global().Snapshot().CounterValue(counter);

  // The bad cell rides behind a good one: nothing of the batch applies.
  EXPECT_FALSE(engine.Submit({{1, 1, Interval(4.0, 4.5)}, bad}));
  EXPECT_EQ(engine.pending_cells(), 0u);
  EXPECT_EQ(engine.Step(), 0u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.Acquire(), before);
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().CounterValue(counter),
            rejected_before + 1);

  EXPECT_TRUE(engine.Submit({{1, 1, Interval(4.0, 4.5)}}));
  EXPECT_EQ(engine.Step(), 1u);
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(engine.Acquire()->Observed(1, 1), Interval(4.0, 4.5));
}

INSTANTIATE_TEST_SUITE_P(
    Reasons, ServingSubmitRejectTest,
    ::testing::Values(
        std::make_pair("shape", IntervalTriplet{20, 0, Interval(1.0, 1.0)}),
        std::make_pair("shape", IntervalTriplet{0, 12, Interval(1.0, 1.0)}),
        std::make_pair("non_finite",
                       IntervalTriplet{2, 3, Interval(std::nan(""), 1.0)}),
        std::make_pair("non_finite",
                       IntervalTriplet{2, 3, Interval(0.0, HUGE_VAL)}),
        std::make_pair("non_finite",
                       IntervalTriplet{2, 3, Interval(-HUGE_VAL, 0.0)}),
        std::make_pair("improper",
                       IntervalTriplet{2, 3, Interval(2.0, 1.0)})));

TEST(ServingEngineTest, OnPublishSeesEveryEpochInOrder) {
  Rng rng(20);
  const CellMap cells = RandomBaseCells(12, 8, 2, 0.5, rng);
  std::vector<uint64_t> epochs;
  ServingEngineOptions options;
  options.on_publish =
      [&epochs](const std::shared_ptr<const ServingSnapshot>& s) {
        epochs.push_back(s->epoch());
      };
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(12, 8, ToTriplets(cells)),
      options);
  engine.Submit({{1, 1, Interval(2.0, 2.0)}});
  engine.Step();
  engine.Submit({{2, 2, Interval(3.0, 3.0)}});
  engine.Step();
  EXPECT_EQ(epochs, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ServingEngineTest, BackgroundWriterPublishesSubmittedWork) {
  Rng rng(21);
  const CellMap cells = RandomBaseCells(15, 10, 2, 0.5, rng);
  ServingEngine engine(
      2, 2, SparseIntervalMatrix::FromTriplets(15, 10, ToTriplets(cells)));
  engine.StartWriter();
  EXPECT_TRUE(engine.writer_running());
  engine.Submit({{3, 3, Interval(4.0, 4.5)}});
  engine.StopWriter();  // flushes pending work before returning
  EXPECT_FALSE(engine.writer_running());
  const auto snapshot = engine.Acquire();
  EXPECT_GE(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->Observed(3, 3), Interval(4.0, 4.5));
  EXPECT_EQ(engine.pending_cells(), 0u);
}

// ---------------------------------------------------------------------------
// DynamicSparseIntervalMatrix::SharedSnapshot (the frozen-view handoff)
// ---------------------------------------------------------------------------

TEST(SharedSnapshotTest, CachesUntilMutation) {
  DynamicSparseIntervalMatrix m(5, 4);
  m.Upsert(0, 1, Interval(1.0, 2.0));
  m.Upsert(3, 2, Interval(2.0, 3.0));

  const auto first = m.SharedSnapshot();
  const auto again = m.SharedSnapshot();
  EXPECT_EQ(first.get(), again.get());  // same epoch: no new merge

  m.Upsert(4, 0, Interval(5.0, 5.0));
  const auto after = m.SharedSnapshot();
  EXPECT_NE(after.get(), first.get());

  // The old view is frozen at its epoch; the new one sees the mutation.
  EXPECT_EQ(first->At(4, 0), Interval());
  EXPECT_EQ(after->At(4, 0), Interval(5.0, 5.0));
  EXPECT_EQ(after->nnz(), 3u);
}

TEST(SharedSnapshotTest, CompactionKeepsTheFrozenViewValid) {
  DynamicSparseIntervalMatrix m(4, 4);
  m.Upsert(1, 1, Interval(1.0, 1.0));
  m.Upsert(2, 3, Interval(2.0, 2.0));
  const auto view = m.SharedSnapshot();

  // Compaction folds the log without changing content: the cached view
  // stays current (pointer-equal on re-acquire) and the base adopts it.
  m.Compact();
  EXPECT_EQ(m.delta_size(), 0u);
  EXPECT_EQ(m.base_nnz(), 2u);
  EXPECT_EQ(m.SharedSnapshot().get(), view.get());
  EXPECT_EQ(m.At(1, 1), Interval(1.0, 1.0));
  EXPECT_EQ(m.At(2, 3), Interval(2.0, 2.0));
}

TEST(SharedSnapshotTest, StreamingExportsTheDecomposedMatrix) {
  Rng rng(22);
  const size_t n = 20, m = 12;
  CellMap cells = RandomBaseCells(n, m, 2, 0.4, rng);
  StreamingIsvd streaming(
      2, 2, SparseIntervalMatrix::FromTriplets(n, m, ToTriplets(cells)));
  ASSERT_NE(streaming.matrix_snapshot(), nullptr);
  EXPECT_EQ(streaming.refresh_count(), 1u);

  // The exported view stays paired with result() across later ApplyBatch
  // calls — it reflects the matrix at the last refresh, not the log.
  const auto at_refresh = streaming.matrix_snapshot();
  streaming.ApplyBatch({{0, 0, Interval(9.0, 9.0)}});
  EXPECT_EQ(streaming.matrix_snapshot().get(), at_refresh.get());
  EXPECT_EQ(streaming.matrix_snapshot()->At(0, 0).hi, at_refresh->At(0, 0).hi);

  streaming.Refresh();
  EXPECT_EQ(streaming.refresh_count(), 2u);
  EXPECT_NE(streaming.matrix_snapshot().get(), at_refresh.get());
  EXPECT_EQ(streaming.matrix_snapshot()->At(0, 0), Interval(9.0, 9.0));
}

}  // namespace
}  // namespace ivmf
