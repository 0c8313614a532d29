// Randomized differential fuzzing of the block-row store's kernels.
//
// Each trial draws a seed-reproducible random CSR matrix — fill anywhere
// from 0% to 100%, row lengths from several adversarial distributions
// (uniform, geometric-ish skew, everything-in-one-row, exact block
// multiples) — and asserts that every kept store kernel, on Views under
// both backends (scalar, avx2) and at shard sizes 1, 3 and ViewShardRows,
// agrees with the naive triplet reference (sparse_kernel_reference.h).
// Failures print the trial seed, so any counterexample replays exactly.
//
// The suite is sized to stay fast under ASan/UBSan and TSan (CI runs it in
// both sanitizer legs): shapes cap at ~120 x 90 and 60 trials total.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "linalg/matrix.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"
#include "sparse_kernel_reference.h"

namespace ivmf {
namespace {

using ::ivmf::testing::ExpectDenseGramMatches;
using ::ivmf::testing::ExpectDenseMatches;
using ::ivmf::testing::ExpectForwardMatches;
using ::ivmf::testing::ExpectGramMatches;
using ::ivmf::testing::ExpectTransposeMatches;
using ::ivmf::testing::MakeView;
using ::ivmf::testing::RandomVector;
using ::ivmf::testing::StoreConfig;
using ::ivmf::testing::StoreConfigs;
using ::ivmf::testing::TripletReference;

using Endpoint = SparseIntervalMatrix::Endpoint;

// How a trial distributes nnz across rows.
enum class RowDist {
  kUniformFill,   // iid Bernoulli cells, fill drawn in [0, 1]
  kSkewed,        // row length ~ heavy head, long empty tail
  kOneHotRow,     // every nnz in a single row
  kBlockAligned,  // row lengths forced to multiples of 8 (no remainder lanes)
};

// Draws a random CSR directly (sorted unique columns per row), exercising
// FromCsr — the entry point the streaming snapshot path uses.
SparseIntervalMatrix RandomCsr(Rng& rng, size_t rows, size_t cols,
                               RowDist dist, bool non_negative) {
  std::vector<size_t> row_ptr(rows + 1, 0);
  std::vector<size_t> col_idx;
  std::vector<double> lo, hi;
  std::vector<uint8_t> pick(cols);
  const double uniform_fill = rng.Uniform();  // one fill per matrix, in [0,1)
  for (size_t i = 0; i < rows; ++i) {
    switch (dist) {
      case RowDist::kUniformFill: {
        for (size_t j = 0; j < cols; ++j) pick[j] = rng.Bernoulli(uniform_fill);
        break;
      }
      case RowDist::kSkewed: {
        // A few rows near-dense, most empty or nearly so.
        const double fill = rng.Bernoulli(0.15) ? rng.Uniform(0.6, 1.0)
                                                : rng.Uniform(0.0, 0.05);
        for (size_t j = 0; j < cols; ++j) pick[j] = rng.Bernoulli(fill);
        break;
      }
      case RowDist::kOneHotRow: {
        const size_t hot = rows == 0 ? 0 : rows / 2;
        for (size_t j = 0; j < cols; ++j) pick[j] = (i == hot);
        break;
      }
      case RowDist::kBlockAligned: {
        const size_t len = 8 * rng.UniformIndex(cols / 8 + 1);
        std::vector<size_t> order(cols);
        for (size_t j = 0; j < cols; ++j) order[j] = j;
        rng.Shuffle(order);
        std::fill(pick.begin(), pick.end(), 0);
        for (size_t k = 0; k < len; ++k) pick[order[k]] = 1;
        break;
      }
    }
    for (size_t j = 0; j < cols; ++j) {
      if (!pick[j]) continue;
      col_idx.push_back(j);
      const double a =
          non_negative ? rng.Uniform(0.0, 4.0) : rng.Uniform(-4.0, 4.0);
      lo.push_back(a);
      hi.push_back(a + rng.Uniform(0.0, 1.5));
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return SparseIntervalMatrix::FromCsr(rows, cols, std::move(row_ptr),
                                       std::move(col_idx), std::move(lo),
                                       std::move(hi));
}

// One trial: build the matrix once, then run every store kernel under each
// store configuration against the triplet reference.
void RunTrial(uint64_t seed, RowDist dist) {
  Rng rng(seed);
  const size_t rows = 1 + rng.UniformIndex(120);
  const size_t cols = 1 + rng.UniformIndex(90);
  const bool non_negative = rng.Bernoulli(0.5);
  const SparseIntervalMatrix base =
      RandomCsr(rng, rows, cols, dist, non_negative);
  const TripletReference ref{rows, cols, base.ToTriplets()};
  const std::string tag = "seed=" + std::to_string(seed) +
                          " shape=" + std::to_string(rows) + "x" +
                          std::to_string(cols);

  const std::vector<double> x = RandomVector(rng, cols);
  const std::vector<double> xt = RandomVector(rng, rows);
  Matrix b(cols, 5), bt(rows, 5);
  for (size_t i = 0; i < cols; ++i) {
    for (size_t j = 0; j < 5; ++j) b(i, j) = rng.Uniform(-2.0, 2.0);
  }
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < 5; ++j) bt(i, j) = rng.Uniform(-2.0, 2.0);
  }
  const TripletReference::DenseGrams grams = ref.Grams();

  for (const StoreConfig& config : StoreConfigs(rows)) {
    const ShardedSparseIntervalMatrix view = MakeView(base, config);
    const std::string what = tag + "/" + config.Name();
    ExpectForwardMatches(ref, view, x, what);
    ExpectTransposeMatches(ref, view, xt, what);
    ExpectDenseMatches(ref, view, b, bt, what);
    ExpectGramMatches(ref, view, x, what);
    ExpectDenseGramMatches(grams, view, what);
  }
}

TEST(SparseKernelFuzzTest, UniformFill) {
  for (uint64_t seed = 1000; seed < 1024; ++seed) {
    RunTrial(seed, RowDist::kUniformFill);
  }
}

TEST(SparseKernelFuzzTest, SkewedRowLengths) {
  for (uint64_t seed = 2000; seed < 2016; ++seed) {
    RunTrial(seed, RowDist::kSkewed);
  }
}

TEST(SparseKernelFuzzTest, AllNnzInOneRow) {
  for (uint64_t seed = 3000; seed < 3010; ++seed) {
    RunTrial(seed, RowDist::kOneHotRow);
  }
}

TEST(SparseKernelFuzzTest, BlockAlignedRowLengths) {
  for (uint64_t seed = 4000; seed < 4010; ++seed) {
    RunTrial(seed, RowDist::kBlockAligned);
  }
}

// Determinism across repeated calls: blocked kernels must be bit-stable
// call-to-call on the same store (the Lanczos three-term recurrence
// assumes the operator is a function).
TEST(SparseKernelFuzzTest, RepeatCallsBitStable) {
  Rng rng(777);
  const SparseIntervalMatrix base =
      RandomCsr(rng, 64, 48, RowDist::kUniformFill, false);
  const std::vector<double> x = RandomVector(rng, 48);
  const std::vector<double> xt = RandomVector(rng, 64);
  for (const StoreConfig& config : StoreConfigs(base.rows())) {
    const ShardedSparseIntervalMatrix view = MakeView(base, config);
    std::vector<double> first, again;
    view.Multiply(Endpoint::kLower, x, first);
    for (int i = 0; i < 3; ++i) {
      view.Multiply(Endpoint::kLower, x, again);
      ASSERT_EQ(first, again) << "Multiply " << config.Name();
    }
    view.MultiplyTranspose(Endpoint::kUpper, xt, first);
    for (int i = 0; i < 3; ++i) {
      view.MultiplyTranspose(Endpoint::kUpper, xt, again);
      ASSERT_EQ(first, again) << "MultiplyTranspose " << config.Name();
    }
    view.GramMultiply(Endpoint::kLower, x, first);
    for (int i = 0; i < 3; ++i) {
      view.GramMultiply(Endpoint::kLower, x, again);
      ASSERT_EQ(first, again) << "GramMultiply " << config.Name();
    }
  }
}

}  // namespace
}  // namespace ivmf
