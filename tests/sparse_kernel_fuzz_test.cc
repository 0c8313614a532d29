// Randomized differential fuzzing of the sparse-kernel backends.
//
// Each trial draws a seed-reproducible random CSR matrix — fill anywhere
// from 0% to 100%, row lengths from several adversarial distributions
// (uniform, geometric-ish skew, everything-in-one-row, exact block
// multiples) — and asserts that the scalar reference, the AVX2 dispatch
// path, and the SELL-C-sigma pack agree on every kernel entry point.
// Failures print the trial seed, so any counterexample replays exactly.
//
// The suite is sized to stay fast under ASan/UBSan and TSan (CI runs it in
// both sanitizer legs): shapes cap at ~120 x 90 and 60 trials total.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

using Endpoint = SparseIntervalMatrix::Endpoint;

// Backend agreement tolerance: all backends sum the same per-row terms,
// differing only by blocked reassociation and FMA contraction.
void ExpectAgree(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    ASSERT_LE(std::fabs(got[i] - want[i]), tol)
        << what << " entry " << i << ": " << got[i] << " vs " << want[i];
  }
}

void ExpectAgree(const Matrix& got, const Matrix& want,
                 const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::fabs(want(i, j)));
      ASSERT_LE(std::fabs(got(i, j) - want(i, j)), tol)
          << what << " (" << i << "," << j << ")";
    }
  }
}

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

std::vector<double> RandomVector(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-3.0, 3.0);
  return v;
}

// One trial: build the matrix once, clone per backend, compare every kernel
// against the scalar clone.
void RunTrial(uint64_t seed, RowDist dist) {
  Rng rng(seed);
  const size_t rows = 1 + rng.UniformIndex(120);
  const size_t cols = 1 + rng.UniformIndex(90);
  const bool non_negative = rng.Bernoulli(0.5);
  const SparseIntervalMatrix base =
      RandomCsr(rng, rows, cols, dist, non_negative);
  const std::string tag = "seed=" + std::to_string(seed) +
                          " shape=" + std::to_string(rows) + "x" +
                          std::to_string(cols);

  SparseIntervalMatrix scalar = base;
  scalar.set_kernel(spk::Backend::kScalar);
  const SparseIntervalMatrix scalar_t = scalar.Transpose();

  const std::vector<double> x = RandomVector(rng, cols);
  const std::vector<double> x2 = RandomVector(rng, cols);
  const std::vector<double> xt = RandomVector(rng, rows);
  Matrix b(cols, 5);
  for (size_t i = 0; i < cols; ++i) {
    for (size_t j = 0; j < 5; ++j) b(i, j) = rng.Uniform(-2.0, 2.0);
  }

  // Scalar reference outputs.
  std::vector<double> ref_lo, ref_hi, ref_mid, ref_t, ref_pair_lo,
      ref_pair_hi, ref_gram_lo, ref_gram_hi;
  scalar.Multiply(Endpoint::kLower, x, ref_lo);
  scalar.Multiply(Endpoint::kUpper, x, ref_hi);
  scalar.MultiplyMid(x, ref_mid);
  scalar.MultiplyTranspose(Endpoint::kLower, xt, ref_t);
  scalar.MultiplyPair(x, x2, ref_pair_lo, ref_pair_hi);
  const Matrix ref_dense = scalar.MultiplyDense(Endpoint::kUpper, b);
  const IntervalMatrix ref_iprod = scalar.IntervalMultiplyDense(b);
  {
    // The two-pass Gram composition: forward gather, transposed pair.
    std::vector<double> t_lo, t_hi;
    scalar.MultiplyBoth(x, t_lo, t_hi);
    scalar_t.MultiplyPair(t_lo, t_hi, ref_gram_lo, ref_gram_hi);
  }
  // The fused one-pass Gram on the scalar backend must agree with the
  // two-pass composition.
  {
    std::vector<double> fused_lo, fused_hi, fused_one;
    scalar.GramMultiplyBoth(x, fused_lo, fused_hi);
    ExpectAgree(fused_lo, ref_gram_lo, tag + "/scalar/gram_fused.lo");
    ExpectAgree(fused_hi, ref_gram_hi, tag + "/scalar/gram_fused.hi");
    scalar.GramMultiply(Endpoint::kLower, x, fused_one);
    ExpectAgree(fused_one, ref_gram_lo, tag + "/scalar/gram_fused.one");
  }

  for (spk::Backend backend : {spk::Backend::kAvx2, spk::Backend::kSell}) {
    SparseIntervalMatrix m = base;
    m.set_kernel(backend);
    const std::string what = tag + "/" + spk::BackendName(backend);

    std::vector<double> y, y2;
    m.Multiply(Endpoint::kLower, x, y);
    ExpectAgree(y, ref_lo, what + "/multiply.lo");
    m.Multiply(Endpoint::kUpper, x, y);
    ExpectAgree(y, ref_hi, what + "/multiply.hi");
    m.MultiplyMid(x, y);
    ExpectAgree(y, ref_mid, what + "/mid");
    m.MultiplyBoth(x, y, y2);
    ExpectAgree(y, ref_lo, what + "/both.lo");
    ExpectAgree(y2, ref_hi, what + "/both.hi");
    m.MultiplyPair(x, x2, y, y2);
    ExpectAgree(y, ref_pair_lo, what + "/pair.lo");
    ExpectAgree(y2, ref_pair_hi, what + "/pair.hi");
    m.MultiplyTranspose(Endpoint::kLower, xt, y);
    ExpectAgree(y, ref_t, what + "/transpose");
    ExpectAgree(m.MultiplyDense(Endpoint::kUpper, b), ref_dense,
                what + "/dense");
    const IntervalMatrix iprod = m.IntervalMultiplyDense(b);
    ExpectAgree(iprod.lower(), ref_iprod.lower(), what + "/iprod.lo");
    ExpectAgree(iprod.upper(), ref_iprod.upper(), what + "/iprod.hi");

    // The Gram action every sparse ISVD2-4 runs: the block-row store's,
    // over a zero-copy view with 7-row shards.
    const ShardedSparseIntervalMatrix view = ShardedSparseIntervalMatrix::View(
        std::make_shared<const SparseIntervalMatrix>(m), 7);
    view.GramMultiplyBoth(x, y, y2);
    ExpectAgree(y, ref_gram_lo, what + "/gram.lo");
    ExpectAgree(y2, ref_gram_hi, what + "/gram.hi");
    m.GramMultiplyBoth(x, y, y2);
    ExpectAgree(y, ref_gram_lo, what + "/gram_fused.lo");
    ExpectAgree(y2, ref_gram_hi, what + "/gram_fused.hi");
    m.GramMultiply(Endpoint::kLower, x, y);
    ExpectAgree(y, ref_gram_lo, what + "/gram_fused.one");
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
// call-to-call on the same matrix (the Lanczos three-term recurrence
// assumes the operator is a function).
TEST(SparseKernelFuzzTest, RepeatCallsBitStable) {
  Rng rng(777);
  const SparseIntervalMatrix base =
      RandomCsr(rng, 64, 48, RowDist::kUniformFill, false);
  const std::vector<double> x = RandomVector(rng, 48);
  for (spk::Backend backend :
       {spk::Backend::kScalar, spk::Backend::kAvx2, spk::Backend::kSell}) {
    SparseIntervalMatrix m = base;
    m.set_kernel(backend);
    std::vector<double> first, again;
    m.Multiply(Endpoint::kLower, x, first);
    for (int i = 0; i < 3; ++i) {
      m.Multiply(Endpoint::kLower, x, again);
      ASSERT_EQ(first, again) << spk::BackendName(backend);
    }
  }
}

}  // namespace
}  // namespace ivmf
