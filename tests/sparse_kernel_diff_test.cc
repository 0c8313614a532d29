// Differential tests for the vectorized sparse-kernel backends.
//
// Every kernel entry point of SparseIntervalMatrix is pinned against an
// independently written naive dense reference, for every backend that can
// be selected per-matrix (scalar, avx2, sell). The shape grid deliberately
// covers the cases a register-blocked kernel gets wrong first: rows whose
// length is not a multiple of the 4/8-wide blocks, empty rows, a single
// row or column, fully dense rows, all nnz concentrated in one row, and
// the empty matrix. Both signed and non-negative value regimes run, since
// the fused endpoint kernels process two value arrays off one pattern.
//
// Tolerance: the blocked kernels sum each row's terms in a fixed blocked
// order with FMA, which legitimately differs from the naive left-to-right
// sum by reassociation-level error. Differences are bounded by
// |diff| <= 1e-12 * max(1, |ref|), far below anything the solvers resolve,
// and exact zero stays exact (empty rows produce bitwise 0.0).

#include <algorithm>
#include <cmath>
#include <cstddef>
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

// |a - b| <= 1e-12 * max(1, |b|): absolute near zero, relative elsewhere.
void ExpectNear(double a, double b, const std::string& what) {
  const double tol = 1e-12 * std::max(1.0, std::fabs(b));
  EXPECT_LE(std::fabs(a - b), tol) << what << ": got " << a << " want " << b;
}

void ExpectVectorNear(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectNear(got[i], want[i], what + "[" + std::to_string(i) + "]");
  }
}

void ExpectMatrixNear(const Matrix& got, const Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      ExpectNear(got(i, j), want(i, j),
                 what + "(" + std::to_string(i) + "," + std::to_string(j) +
                     ")");
    }
  }
}

// A test shape: explicit triplets so the pattern is under direct control.
struct Shape {
  std::string name;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<IntervalTriplet> entries;
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
    Shape s{name, rows, cols, {}};
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.Bernoulli(density)) {
          s.entries.push_back({i, j, DrawValue(rng, non_negative)});
        }
      }
    }
    return s;
  };

  shapes.push_back({"empty_0x0", 0, 0, {}});
  shapes.push_back({"single_cell_1x1",
                    1,
                    1,
                    {{0, 0, DrawValue(rng, non_negative)}}});
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
    Shape s{"one_hot_row_16x33", 16, 33, {}};
    for (size_t j = 0; j < 33; ++j) {
      s.entries.push_back({5, j, DrawValue(rng, non_negative)});
    }
    shapes.push_back(s);
  }
  // Large enough that ForRowBlocks could split it under more cores, and
  // that SELL sorting actually reorders rows.
  shapes.push_back(fill("bulk_70x41", 70, 41, 0.3));
  return shapes;
}

std::vector<double> RandomVector(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

Matrix RandomDense(Rng& rng, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

// Naive references, written directly against the triplet list so they share
// no code with the CSR kernels under test.
struct Reference {
  const Shape& shape;

  double Value(const IntervalTriplet& t, Endpoint e) const {
    return e == Endpoint::kLower ? t.value.lo : t.value.hi;
  }

  std::vector<double> MatVec(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(shape.rows, 0.0);
    for (const auto& t : shape.entries) y[t.row] += Value(t, e) * x[t.col];
    return y;
  }

  std::vector<double> MatVecMid(const std::vector<double>& x) const {
    std::vector<double> y(shape.rows, 0.0);
    for (const auto& t : shape.entries) {
      y[t.row] += 0.5 * (t.value.lo + t.value.hi) * x[t.col];
    }
    return y;
  }

  std::vector<double> MatVecT(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(shape.cols, 0.0);
    for (const auto& t : shape.entries) y[t.col] += Value(t, e) * x[t.row];
    return y;
  }

  Matrix MatDense(Endpoint e, const Matrix& b) const {
    Matrix c(shape.rows, b.cols());
    for (const auto& t : shape.entries) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c(t.row, j) += Value(t, e) * b(t.col, j);
      }
    }
    return c;
  }
};

// Builds the matrix for one (shape, backend) pair. Duplicate policy is
// irrelevant: MakeShapes emits unique cells.
SparseIntervalMatrix Build(const Shape& s, spk::Backend backend) {
  SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(s.rows, s.cols, s.entries);
  m.set_kernel(backend);
  return m;
}

// The backends every test runs under. kAvx2 silently degrades to scalar on
// machines without AVX2 — the differential claim still holds there, it just
// collapses to scalar-vs-scalar.
const spk::Backend kBackends[] = {spk::Backend::kScalar, spk::Backend::kAvx2,
                                  spk::Backend::kSell};

std::string CaseName(const Shape& s, spk::Backend b, bool non_negative) {
  return s.name + "/" + spk::BackendName(b) +
         (non_negative ? "/nonneg" : "/signed");
}

class SparseKernelDiffTest : public ::testing::TestWithParam<bool> {};

TEST_P(SparseKernelDiffTest, MultiplyMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(11);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y;
      for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
        m.Multiply(e, x, y);
        ExpectVectorNear(y, ref.MatVec(e, x),
                         "Multiply/" + CaseName(s, b, non_negative));
      }
      m.MultiplyMid(x, y);
      ExpectVectorNear(y, ref.MatVecMid(x),
                       "MultiplyMid/" + CaseName(s, b, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, FusedEndpointKernelsMatchReference) {
  const bool non_negative = GetParam();
  Rng rng(12);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    const std::vector<double> x_hi = RandomVector(rng, s.cols);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y_lo, y_hi;
      m.MultiplyBoth(x, y_lo, y_hi);
      ExpectVectorNear(y_lo, ref.MatVec(Endpoint::kLower, x),
                       "MultiplyBoth.lo/" + CaseName(s, b, non_negative));
      ExpectVectorNear(y_hi, ref.MatVec(Endpoint::kUpper, x),
                       "MultiplyBoth.hi/" + CaseName(s, b, non_negative));
      m.MultiplyPair(x, x_hi, y_lo, y_hi);
      ExpectVectorNear(y_lo, ref.MatVec(Endpoint::kLower, x),
                       "MultiplyPair.lo/" + CaseName(s, b, non_negative));
      ExpectVectorNear(y_hi, ref.MatVec(Endpoint::kUpper, x_hi),
                       "MultiplyPair.hi/" + CaseName(s, b, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, MultiplyTransposeMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(13);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.rows);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y;
      for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
        m.MultiplyTranspose(e, x, y);
        ExpectVectorNear(y, ref.MatVecT(e, x),
                         "MultiplyTranspose/" + CaseName(s, b, non_negative));
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, MultiplyDenseMatchesReference) {
  const bool non_negative = GetParam();
  Rng rng(14);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    // Dense widths around the 4-wide register blocking, including 1.
    for (size_t bcols : {size_t{1}, size_t{3}, size_t{8}}) {
      const Matrix b_dense = RandomDense(rng, s.cols, bcols);
      for (spk::Backend b : kBackends) {
        const SparseIntervalMatrix m = Build(s, b);
        for (Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
          ExpectMatrixNear(m.MultiplyDense(e, b_dense), ref.MatDense(e, b_dense),
                           "MultiplyDense/" + CaseName(s, b, non_negative));
        }
        const IntervalMatrix prod = m.IntervalMultiplyDense(b_dense);
        // The interval product is the elementwise min/max of the two
        // endpoint products (b_dense is scalar, so those are the only
        // candidates).
        const Matrix p_lo = ref.MatDense(Endpoint::kLower, b_dense);
        const Matrix p_hi = ref.MatDense(Endpoint::kUpper, b_dense);
        Matrix want_lo(s.rows, bcols), want_hi(s.rows, bcols);
        for (size_t i = 0; i < s.rows; ++i) {
          for (size_t j = 0; j < bcols; ++j) {
            want_lo(i, j) = std::min(p_lo(i, j), p_hi(i, j));
            want_hi(i, j) = std::max(p_lo(i, j), p_hi(i, j));
          }
        }
        ExpectMatrixNear(prod.lower(), want_lo,
                         "IntervalMultiplyDense.lo/" +
                             CaseName(s, b, non_negative));
        ExpectMatrixNear(prod.upper(), want_hi,
                         "IntervalMultiplyDense.hi/" +
                             CaseName(s, b, non_negative));
      }
    }
  }
}

TEST_P(SparseKernelDiffTest, GramOperatorMatchesComposition) {
  const bool non_negative = GetParam();
  Rng rng(15);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      EXPECT_EQ(m.Transpose().kernel(), b)
          << "Transpose must propagate the backend";
      // The Gram operator every sparse ISVD2-4 runs: the block-row store's,
      // over a zero-copy view of the matrix with 3-row shards.
      const ShardedSparseIntervalMatrix view =
          ShardedSparseIntervalMatrix::View(
              std::make_shared<const SparseIntervalMatrix>(m), 3);
      const ShardedGramOperator lower(view, Endpoint::kLower);
      const ShardedGramOperator upper(view, Endpoint::kUpper);
      std::vector<double> y, y_lo, y_hi;
      lower.Apply(x, y);
      const std::vector<double> want_lo =
          ref.MatVecT(Endpoint::kLower, ref.MatVec(Endpoint::kLower, x));
      ExpectVectorNear(y, want_lo, "Gram.lo/" + CaseName(s, b, non_negative));
      upper.Apply(x, y);
      const std::vector<double> want_hi =
          ref.MatVecT(Endpoint::kUpper, ref.MatVec(Endpoint::kUpper, x));
      ExpectVectorNear(y, want_hi, "Gram.hi/" + CaseName(s, b, non_negative));
      view.GramMultiplyBoth(x, y_lo, y_hi);
      ExpectVectorNear(y_lo, want_lo,
                       "Gram.Both.lo/" + CaseName(s, b, non_negative));
      ExpectVectorNear(y_hi, want_hi,
                       "Gram.Both.hi/" + CaseName(s, b, non_negative));
    }
  }
}

TEST_P(SparseKernelDiffTest, FusedGramMatchesReference) {
  // The one-pass fused Gram kernels, called directly on the matrix (the
  // operator only routes through them on the AVX2 backend — this pins every
  // backend's fused path against the naive composition).
  const bool non_negative = GetParam();
  Rng rng(16);
  for (const Shape& s : MakeShapes(non_negative)) {
    const Reference ref{s};
    const std::vector<double> x = RandomVector(rng, s.cols);
    const std::vector<double> want_lo =
        ref.MatVecT(Endpoint::kLower, ref.MatVec(Endpoint::kLower, x));
    const std::vector<double> want_hi =
        ref.MatVecT(Endpoint::kUpper, ref.MatVec(Endpoint::kUpper, x));
    for (spk::Backend b : kBackends) {
      const SparseIntervalMatrix m = Build(s, b);
      std::vector<double> y, y_lo, y_hi;
      m.GramMultiply(Endpoint::kLower, x, y);
      ExpectVectorNear(y, want_lo,
                       "GramMultiply.lo/" + CaseName(s, b, non_negative));
      m.GramMultiply(Endpoint::kUpper, x, y);
      ExpectVectorNear(y, want_hi,
                       "GramMultiply.hi/" + CaseName(s, b, non_negative));
      m.GramMultiplyBoth(x, y_lo, y_hi);
      ExpectVectorNear(y_lo, want_lo,
                       "GramMultiplyBoth.lo/" + CaseName(s, b, non_negative));
      ExpectVectorNear(y_hi, want_hi,
                       "GramMultiplyBoth.hi/" + CaseName(s, b, non_negative));
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
  const Matrix b(4, 0);
  for (spk::Backend backend : kBackends) {
    SparseIntervalMatrix mm = m;
    mm.set_kernel(backend);
    const Matrix c = mm.MultiplyDense(Endpoint::kLower, b);
    EXPECT_EQ(c.rows(), 3u);
    EXPECT_EQ(c.cols(), 0u);
    const IntervalMatrix ci = mm.IntervalMultiplyDense(b);
    EXPECT_EQ(ci.rows(), 3u);
    EXPECT_EQ(ci.cols(), 0u);
  }
}

TEST(SparseKernelContractTest, BackendParsingAndResolution) {
  spk::Backend b;
  EXPECT_TRUE(spk::ParseBackend("scalar", &b));
  EXPECT_EQ(b, spk::Backend::kScalar);
  EXPECT_TRUE(spk::ParseBackend("avx2", &b));
  EXPECT_EQ(b, spk::Backend::kAvx2);
  EXPECT_TRUE(spk::ParseBackend("sell", &b));
  EXPECT_EQ(b, spk::Backend::kSell);
  EXPECT_TRUE(spk::ParseBackend("auto", &b));
  EXPECT_EQ(b, spk::Backend::kAuto);
  EXPECT_FALSE(spk::ParseBackend("mmx", &b));

  // Explicit scalar always resolves to scalar; avx2 degrades to scalar
  // when the CPU (or the build) lacks the ISA.
  EXPECT_EQ(spk::Resolve(spk::Backend::kScalar), spk::Backend::kScalar);
  const spk::Backend avx2 = spk::Resolve(spk::Backend::kAvx2);
  if (spk::Avx2Supported()) {
    EXPECT_EQ(avx2, spk::Backend::kAvx2);
  } else {
    EXPECT_EQ(avx2, spk::Backend::kScalar);
  }
  EXPECT_EQ(spk::Resolve(spk::Backend::kSell), spk::Backend::kSell);
  // SELL covers only the forward matvec family; the others fall back to a
  // CSR variant.
  const spk::Backend csr = spk::CsrVariant(spk::Backend::kSell);
  EXPECT_NE(csr, spk::Backend::kSell);
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
TEST(SparseKernelDeathTest, MultiplyRejectsAliasedOutput) {
  const SparseIntervalMatrix m = SparseIntervalMatrix::FromTriplets(
      2, 2, {{0, 0, Interval(1.0, 2.0)}, {1, 1, Interval(3.0, 4.0)}});
  std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(m.Multiply(Endpoint::kLower, x, x), "alias");
  EXPECT_DEATH(m.MultiplyMid(x, x), "alias");
  EXPECT_DEATH(m.MultiplyTranspose(Endpoint::kLower, x, x), "alias");
  std::vector<double> other = {0.0, 0.0};
  EXPECT_DEATH(m.MultiplyBoth(x, x, other), "alias");
  EXPECT_DEATH(m.MultiplyBoth(x, other, other), "distinct");
  EXPECT_DEATH(m.MultiplyPair(x, other, x, other), "alias");
}
#endif

}  // namespace
}  // namespace ivmf
