// Differential tests for the sparse kernels of the block-row store.
//
// Every kept store kernel runs on zero-copy Views against the naive
// triplet reference (sparse_kernel_reference.h), under both backends a
// store can be built with (scalar, avx2) and at shard sizes 1, 3 and
// ViewShardRows. The shape grid deliberately covers the cases a
// register-blocked kernel gets wrong first: rows whose length is not a
// multiple of the 4/8/32-wide blocks, empty rows, a single row or column,
// fully dense rows, all nnz concentrated in one row, the empty matrix, and
// the short-row, long-row and irregular row-length fixtures the serving
// and ingest shapes resemble. Both signed and non-negative value regimes
// run, since the midpoint and interval kernels read two value arrays off
// one pattern.
//
// Tolerance: |diff| <= 1e-12 * max(1, |ref|), far below anything the
// solvers resolve; exact zero stays exact (empty rows produce bitwise 0.0).

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "interval/interval_matrix.h"
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
using ::ivmf::testing::ExpectVectorNear;
using ::ivmf::testing::MakeView;
using ::ivmf::testing::RandomVector;
using ::ivmf::testing::StoreConfig;
using ::ivmf::testing::StoreConfigs;
using ::ivmf::testing::TripletReference;

using Endpoint = SparseIntervalMatrix::Endpoint;

// A test shape: explicit triplets so the pattern is under direct control.
struct Shape {
  std::string name;
  TripletReference ref;
};

Interval DrawValue(Rng& rng, bool non_negative) {
  const double a = non_negative ? rng.Uniform(0.0, 5.0) : rng.Uniform(-5.0, 5.0);
  const double b = a + rng.Uniform(0.0, 2.0);
  return Interval(a, b);
}

// The curated shape grid (see file comment for why each case exists).
std::vector<Shape> MakeShapes(bool non_negative) {
  Rng rng(non_negative ? 71u : 72u);
  std::vector<Shape> shapes;

  auto fill = [&](const std::string& name, size_t rows, size_t cols,
                  double density) {
    Shape s{name, {rows, cols, {}}};
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.Bernoulli(density)) {
          s.ref.entries.push_back({i, j, DrawValue(rng, non_negative)});
        }
      }
    }
    return s;
  };
  // rows x cols with exactly `row_nnz` evenly strided entries per row, the
  // first `dense_rows` rows full.
  auto strided = [&](const std::string& name, size_t rows, size_t cols,
                     size_t row_nnz, size_t dense_rows) {
    Shape s{name, {rows, cols, {}}};
    for (size_t i = 0; i < rows; ++i) {
      const size_t n = i < dense_rows ? cols : row_nnz;
      for (size_t k = 0; k < n; ++k) {
        s.ref.entries.push_back(
            {i, k * (cols / n), DrawValue(rng, non_negative)});
      }
    }
    return s;
  };

  shapes.push_back({"empty_0x0", {0, 0, {}}});
  shapes.push_back(
      {"single_cell_1x1", {1, 1, {{0, 0, DrawValue(rng, non_negative)}}}});
  shapes.push_back(fill("single_row_1x17", 1, 17, 0.7));
  shapes.push_back(fill("single_col_17x1", 17, 1, 0.7));
  // Remainder lanes: neither dimension nor any row length is 4/8-aligned.
  shapes.push_back(fill("odd_9x13", 9, 13, 0.45));
  shapes.push_back(fill("odd_17x5", 17, 5, 0.6));
  // Row lengths straddling the 8-wide main loop + 4-wide + scalar tail.
  shapes.push_back(fill("dense_rows_7x23", 7, 23, 1.0));
  // Sparse with many empty rows (density low enough that several rows get
  // nothing at these sizes).
  shapes.push_back(fill("mostly_empty_31x19", 31, 19, 0.08));
  // Everything in one row: the adversarial row-length distribution.
  {
    Shape s{"one_hot_row_16x33", {16, 33, {}}};
    for (size_t j = 0; j < 33; ++j) {
      s.ref.entries.push_back({5, j, DrawValue(rng, non_negative)});
    }
    shapes.push_back(s);
  }
  shapes.push_back(fill("bulk_70x41", 70, 41, 0.3));
  // Short rows (the serving shape), long rows past the 32-wide main loop,
  // and a short-row background with a few dense rows (high variance).
  shapes.push_back(strided("short_rows_512x256", 512, 256, 4, 0));
  shapes.push_back(strided("long_rows_256x256", 256, 256, 32, 0));
  shapes.push_back(strided("irregular_512x256", 512, 256, 3, 6));
  return shapes;
}

Matrix RandomDense(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

SparseIntervalMatrix Build(const Shape& s) {
  return SparseIntervalMatrix::FromTriplets(s.ref.rows, s.ref.cols,
                                            s.ref.entries);
}

std::string CaseName(const Shape& s, const StoreConfig& c, bool non_negative) {
  return s.name + "/" + c.Name() + (non_negative ? "/nonneg" : "/signed");
}

class SparseKernelDiffTest : public ::testing::TestWithParam<bool> {};

TEST_P(SparseKernelDiffTest, ForwardKernelsMatchReference) {
  const bool non_negative = GetParam();
  Rng rng(11);
  for (const Shape& s : MakeShapes(non_negative)) {
    const std::vector<double> x = RandomVector(rng, s.ref.cols);
    const SparseIntervalMatrix m = Build(s);
    for (const StoreConfig& c : StoreConfigs(s.ref.rows)) {
      ExpectForwardMatches(s.ref, MakeView(m, c), x,
                           CaseName(s, c, non_negative));
    }
    // The one kernel the CSR container keeps forwards through a view.
    for (const spk::Backend b : {spk::Backend::kScalar, spk::Backend::kAvx2}) {
      SparseIntervalMatrix csr = m;
      csr.set_kernel(b);
      std::vector<double> y;
      csr.Multiply(Endpoint::kUpper, x, y);
      ExpectVectorNear(y, s.ref.MatVec(Endpoint::kUpper, x),
                       s.name + "/csr/" + spk::BackendName(b));
    }
  }
}

TEST_P(SparseKernelDiffTest, TransposeKernelsMatchReference) {
  const bool non_negative = GetParam();
  Rng rng(13);
  for (const Shape& s : MakeShapes(non_negative)) {
    const std::vector<double> x = RandomVector(rng, s.ref.rows);
    const SparseIntervalMatrix m = Build(s);
    for (const StoreConfig& c : StoreConfigs(s.ref.rows)) {
      ExpectTransposeMatches(s.ref, MakeView(m, c), x,
                             CaseName(s, c, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, DenseKernelsMatchReference) {
  const bool non_negative = GetParam();
  Rng rng(14);
  for (const Shape& s : MakeShapes(non_negative)) {
    const SparseIntervalMatrix m = Build(s);
    // Dense widths around the 4-wide register blocking, including 1.
    for (const size_t bcols : {size_t{1}, size_t{3}, size_t{8}}) {
      const Matrix b = RandomDense(rng, s.ref.cols, bcols);
      const Matrix bt = RandomDense(rng, s.ref.rows, bcols);
      for (const StoreConfig& c : StoreConfigs(s.ref.rows)) {
        ExpectDenseMatches(s.ref, MakeView(m, c), b, bt,
                           CaseName(s, c, non_negative) + "/bcols=" +
                               std::to_string(bcols));
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, GramKernelsMatchReference) {
  const bool non_negative = GetParam();
  Rng rng(15);
  for (const Shape& s : MakeShapes(non_negative)) {
    const std::vector<double> x = RandomVector(rng, s.ref.cols);
    const SparseIntervalMatrix m = Build(s);
    // The kMMt route builds its store on m.Transpose(), so a pinned backend
    // must survive the transpose. The kScalar pin differs from the kAvx2
    // default, so a transpose that drops the pin fails there.
    for (const spk::Backend b : {spk::Backend::kScalar, spk::Backend::kAvx2}) {
      SparseIntervalMatrix pinned = m;
      pinned.set_kernel(b);
      const SparseIntervalMatrix t = pinned.Transpose();
      EXPECT_EQ(t.kernel(), b) << "Transpose must propagate the backend";
      EXPECT_EQ(t.ResolvedKernel(), spk::Resolve(b));
    }
    for (const StoreConfig& c : StoreConfigs(s.ref.rows)) {
      ExpectGramMatches(s.ref, MakeView(m, c), x,
                        CaseName(s, c, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, DenseGramStaticsMatchReference) {
  const bool non_negative = GetParam();
  for (const Shape& s : MakeShapes(non_negative)) {
    const TripletReference::DenseGrams want = s.ref.Grams();
    const SparseIntervalMatrix m = Build(s);
    for (const StoreConfig& c : StoreConfigs(s.ref.rows)) {
      ExpectDenseGramMatches(want, MakeView(m, c),
                             CaseName(s, c, non_negative));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, SparseKernelDiffTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NonNegative" : "Signed";
                         });

// --- Contract checks ------------------------------------------------------

TEST(SparseKernelContractTest, MultiplyDenseZeroColumns) {
  // A zero-column operand must yield a rows x 0 result, not walk null data.
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      3, 4, {{0, 1, Interval(1.0, 2.0)}, {2, 3, Interval(-1.0, 1.0)}});
  for (const StoreConfig& c : StoreConfigs(m.rows())) {
    const ShardedSparseIntervalMatrix view = MakeView(m, c);
    const Matrix c_dense = view.MultiplyDense(Endpoint::kLower, Matrix(4, 0));
    EXPECT_EQ(c_dense.rows(), 3u);
    EXPECT_EQ(c_dense.cols(), 0u);
    const IntervalMatrix ci = view.IntervalMultiplyDense(Matrix(4, 0));
    EXPECT_EQ(ci.rows(), 3u);
    EXPECT_EQ(ci.cols(), 0u);
    const IntervalMatrix ct = view.IntervalMultiplyDenseTranspose(Matrix(3, 0));
    EXPECT_EQ(ct.rows(), 4u);
    EXPECT_EQ(ct.cols(), 0u);
  }
}

TEST(SparseKernelContractTest, BackendParsingAndResolution) {
  spk::Backend b;
  EXPECT_TRUE(spk::ParseBackend("scalar", &b));
  EXPECT_EQ(b, spk::Backend::kScalar);
  EXPECT_TRUE(spk::ParseBackend("avx2", &b));
  EXPECT_EQ(b, spk::Backend::kAvx2);
  EXPECT_FALSE(spk::ParseBackend("auto", &b)) << "avx2 is the one vector name";
  EXPECT_FALSE(spk::ParseBackend("sell", &b));
  EXPECT_FALSE(spk::ParseBackend("mmx", &b));
  EXPECT_EQ(b, spk::Backend::kAvx2) << "a failed parse leaves *out alone";

  // Explicit scalar always resolves to scalar; avx2 resolves to avx2
  // exactly when the CPU (and the build) have it.
  const spk::Backend vector_backend =
      spk::Avx2Supported() ? spk::Backend::kAvx2 : spk::Backend::kScalar;
  EXPECT_EQ(spk::Resolve(spk::Backend::kScalar), spk::Backend::kScalar);
  EXPECT_EQ(spk::Resolve(spk::Backend::kAvx2), vector_backend);
  const SparseIntervalMatrix m;
  EXPECT_EQ(m.kernel(), spk::Backend::kAvx2);
  EXPECT_EQ(m.ResolvedKernel(), vector_backend);
  if (!spk::Avx2Compiled()) {
    EXPECT_FALSE(spk::Avx2Supported());
  }
}

// Death tests document the no-aliasing contract. GTest death tests fork,
// which ThreadSanitizer instrumentation does not support — skip them there.
#if defined(__SANITIZE_THREAD__)
#define IVMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IVMF_TSAN_BUILD 1
#endif
#endif

#ifndef IVMF_TSAN_BUILD
TEST(SparseKernelDeathTest, StoreKernelsRejectAliasedOutput) {
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      2, 2, {{0, 0, Interval(1.0, 2.0)}, {1, 1, Interval(3.0, 4.0)}});
  const ShardedSparseIntervalMatrix view = MakeView(m, {spk::Backend::kAvx2, 1});
  std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(view.Multiply(Endpoint::kLower, x, x), "alias");
  EXPECT_DEATH(view.MultiplyMid(x, x), "alias");
  EXPECT_DEATH(view.MultiplyTranspose(Endpoint::kLower, x, x), "alias");
  EXPECT_DEATH(view.MultiplyTransposeMid(x, x), "alias");
  EXPECT_DEATH(view.GramMultiply(Endpoint::kUpper, x, x), "alias");
  EXPECT_DEATH(m.Multiply(Endpoint::kLower, x, x), "alias");
}
#endif

}  // namespace
}  // namespace ivmf
