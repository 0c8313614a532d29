// Naive triplet-list reference for the block-row store's kernels, shared by
// the differential (sparse_kernel_diff_test) and fuzz
// (sparse_kernel_fuzz_test) suites.
//
// The reference is written directly against a triplet list, so it shares
// no code with the packed-CSR kernels under test. Every kept store kernel
// is checked against it at |diff| <= 1e-12 * max(1, |ref|): the kernels sum
// each output entry's terms in a fixed blocked (and, on AVX2, FMA) order,
// which legitimately differs from the naive left-to-right sum by
// reassociation-level error.

#ifndef IVMF_TESTS_SPARSE_KERNEL_REFERENCE_H_
#define IVMF_TESTS_SPARSE_KERNEL_REFERENCE_H_

#include <algorithm>
#include <cmath>
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

namespace ivmf::testing {

using Endpoint = SparseIntervalMatrix::Endpoint;

// |got - want| <= 1e-12 * max(1, |want|) entrywise; reports the first
// mismatch of a vector only, so one broken kernel does not flood the log.
inline void ExpectVectorNear(const std::vector<double>& got,
                             const std::vector<double>& want,
                             const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    if (!(std::fabs(got[i] - want[i]) <= tol)) {
      ADD_FAILURE() << what << "[" << i << "]: got " << got[i] << " want "
                    << want[i];
      return;
    }
  }
}

inline void ExpectMatrixNear(const Matrix& got, const Matrix& want,
                             const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::fabs(want(i, j)));
      if (!(std::fabs(got(i, j) - want(i, j)) <= tol)) {
        ADD_FAILURE() << what << "(" << i << "," << j << "): got "
                      << got(i, j) << " want " << want(i, j);
        return;
      }
    }
  }
}

inline void ExpectIntervalMatrixNear(const IntervalMatrix& got,
                                     const IntervalMatrix& want,
                                     const std::string& what) {
  ExpectMatrixNear(got.lower(), want.lower(), what + ".lo");
  ExpectMatrixNear(got.upper(), want.upper(), what + ".hi");
}

inline std::vector<double> RandomVector(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

// The naive kernels, over an explicit triplet list with unique cells.
struct TripletReference {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<IntervalTriplet> entries;

  static double Value(const IntervalTriplet& t, Endpoint e) {
    return e == Endpoint::kLower ? t.value.lo : t.value.hi;
  }
  static double Mid(const IntervalTriplet& t) {
    return 0.5 * (t.value.lo + t.value.hi);
  }

  std::vector<double> MatVec(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(rows, 0.0);
    for (const auto& t : entries) y[t.row] += Value(t, e) * x[t.col];
    return y;
  }
  std::vector<double> MatVecMid(const std::vector<double>& x) const {
    std::vector<double> y(rows, 0.0);
    for (const auto& t : entries) y[t.row] += Mid(t) * x[t.col];
    return y;
  }
  std::vector<double> MatVecT(Endpoint e, const std::vector<double>& x) const {
    std::vector<double> y(cols, 0.0);
    for (const auto& t : entries) y[t.col] += Value(t, e) * x[t.row];
    return y;
  }
  std::vector<double> MatVecTMid(const std::vector<double>& x) const {
    std::vector<double> y(cols, 0.0);
    for (const auto& t : entries) y[t.col] += Mid(t) * x[t.row];
    return y;
  }
  // A_eᵀ (A_e x), and the midpoint Gram A_midᵀ (A_mid x).
  std::vector<double> Gram(Endpoint e, const std::vector<double>& x) const {
    return MatVecT(e, MatVec(e, x));
  }
  std::vector<double> GramMid(const std::vector<double>& x) const {
    return MatVecTMid(MatVecMid(x));
  }
  // A_e B (b is cols x k) and A_eᵀ B (b is rows x k).
  Matrix MatDense(Endpoint e, const Matrix& b) const {
    Matrix c(rows, b.cols());
    for (const auto& t : entries) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c(t.row, j) += Value(t, e) * b(t.col, j);
      }
    }
    return c;
  }
  Matrix MatDenseT(Endpoint e, const Matrix& b) const {
    Matrix c(cols, b.cols());
    for (const auto& t : entries) {
      for (size_t j = 0; j < b.cols(); ++j) {
        c(t.col, j) += Value(t, e) * b(t.row, j);
      }
    }
    return c;
  }
  // The interval product with a scalar operand: the elementwise min / max
  // of the two endpoint products (the only candidates for a scalar B).
  static IntervalMatrix Hull(const Matrix& p_lo, const Matrix& p_hi) {
    Matrix lo(p_lo.rows(), p_lo.cols());
    Matrix hi(p_lo.rows(), p_lo.cols());
    for (size_t i = 0; i < lo.rows(); ++i) {
      for (size_t j = 0; j < lo.cols(); ++j) {
        lo(i, j) = std::min(p_lo(i, j), p_hi(i, j));
        hi(i, j) = std::max(p_lo(i, j), p_hi(i, j));
      }
    }
    return IntervalMatrix(std::move(lo), std::move(hi));
  }
  IntervalMatrix IntervalMatDense(const Matrix& b) const {
    return Hull(MatDense(Endpoint::kLower, b), MatDense(Endpoint::kUpper, b));
  }
  IntervalMatrix IntervalMatDenseT(const Matrix& b) const {
    return Hull(MatDenseT(Endpoint::kLower, b),
                MatDenseT(Endpoint::kUpper, b));
  }

  // The dense Gram references: A_eᵀ A_e per endpoint, and the Algorithm-1
  // interval Gram (IntervalMatMul of the transpose with the matrix, the
  // elementwise min / max over the four endpoint products).
  struct DenseGrams {
    Matrix lower;
    Matrix upper;
    IntervalMatrix endpoints;
  };
  DenseGrams Grams() const {
    IntervalMatrix dense(rows, cols);
    for (const auto& t : entries) dense.Set(t.row, t.col, t.value);
    DenseGrams g;
    g.lower = dense.lower().Transpose() * dense.lower();
    g.upper = dense.upper().Transpose() * dense.upper();
    g.endpoints = IntervalMatMul(dense.Transpose(), dense);
    return g;
  }
};

// One store configuration: a backend a store can be built with (kAvx2
// degrades to scalar without AVX2 — the claim then collapses to scalar vs
// the reference) and a view shard size.
struct StoreConfig {
  spk::Backend backend = spk::Backend::kScalar;
  size_t shard_rows = 1;

  std::string Name() const {
    return std::string(spk::BackendName(backend)) +
           "/shard_rows=" + std::to_string(shard_rows);
  }
};

// Both backends at shard sizes 1 and 3 (a shard boundary after every row
// or every third) and at ViewShardRows(rows), the partition the ISVD entry
// points view a matrix with.
inline std::vector<StoreConfig> StoreConfigs(size_t rows) {
  std::vector<StoreConfig> configs;
  for (const spk::Backend backend :
       {spk::Backend::kScalar, spk::Backend::kAvx2}) {
    for (const size_t shard_rows :
         {size_t{1}, size_t{3},
          ShardedSparseIntervalMatrix::ViewShardRows(rows)}) {
      configs.push_back({backend, shard_rows});
    }
  }
  return configs;
}

// A view of a copy of `m` that requests `config.backend`.
inline ShardedSparseIntervalMatrix MakeView(const SparseIntervalMatrix& m,
                                            const StoreConfig& config) {
  auto base = std::make_shared<SparseIntervalMatrix>(m);
  base->set_kernel(config.backend);
  return ShardedSparseIntervalMatrix::View(std::move(base), config.shard_rows);
}

// Multiply (both endpoints) and MultiplyMid on x (cols long).
inline void ExpectForwardMatches(const TripletReference& ref,
                                 const ShardedSparseIntervalMatrix& store,
                                 const std::vector<double>& x,
                                 const std::string& what) {
  std::vector<double> y;
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    store.Multiply(e, x, y);
    ExpectVectorNear(y, ref.MatVec(e, x), what + "/Multiply");
  }
  store.MultiplyMid(x, y);
  ExpectVectorNear(y, ref.MatVecMid(x), what + "/MultiplyMid");
}

// MultiplyTranspose (both endpoints) and MultiplyTransposeMid on x (rows
// long).
inline void ExpectTransposeMatches(const TripletReference& ref,
                                   const ShardedSparseIntervalMatrix& store,
                                   const std::vector<double>& x,
                                   const std::string& what) {
  std::vector<double> y;
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    store.MultiplyTranspose(e, x, y);
    ExpectVectorNear(y, ref.MatVecT(e, x), what + "/MultiplyTranspose");
  }
  store.MultiplyTransposeMid(x, y);
  ExpectVectorNear(y, ref.MatVecTMid(x), what + "/MultiplyTransposeMid");
}

// MultiplyDense (both endpoints) and IntervalMultiplyDense on b
// (cols x k), IntervalMultiplyDenseTranspose on bt (rows x k).
inline void ExpectDenseMatches(const TripletReference& ref,
                               const ShardedSparseIntervalMatrix& store,
                               const Matrix& b, const Matrix& bt,
                               const std::string& what) {
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    ExpectMatrixNear(store.MultiplyDense(e, b), ref.MatDense(e, b),
                     what + "/MultiplyDense");
  }
  ExpectIntervalMatrixNear(store.IntervalMultiplyDense(b),
                           ref.IntervalMatDense(b),
                           what + "/IntervalMultiplyDense");
  ExpectIntervalMatrixNear(store.IntervalMultiplyDenseTranspose(bt),
                           ref.IntervalMatDenseT(bt),
                           what + "/IntervalMultiplyDenseTranspose");
}

// The fused Gram apply, directly and through the ShardedGramOperator every
// sparse ISVD1-4 iterates, and the two-pass midpoint Gram operator ISVD0
// iterates (applied twice, so its scratch vector is reused).
inline void ExpectGramMatches(const TripletReference& ref,
                              const ShardedSparseIntervalMatrix& store,
                              const std::vector<double>& x,
                              const std::string& what) {
  std::vector<double> y;
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    const std::vector<double> want = ref.Gram(e, x);
    store.GramMultiply(e, x, y);
    ExpectVectorNear(y, want, what + "/GramMultiply");
    ShardedGramOperator(store, e).Apply(x, y);
    ExpectVectorNear(y, want, what + "/ShardedGramOperator");
  }
  const std::vector<double> want_mid = ref.GramMid(x);
  const ShardedGramOperator mid = ShardedGramOperator::Mid(store);
  for (int call = 0; call < 2; ++call) {
    mid.Apply(x, y);
    ExpectVectorNear(y, want_mid, what + "/ShardedGramOperator::Mid");
  }
}

// The DenseGram / DenseGramEndpoints statics.
inline void ExpectDenseGramMatches(const TripletReference::DenseGrams& want,
                                   const ShardedSparseIntervalMatrix& store,
                                   const std::string& what) {
  ExpectMatrixNear(ShardedSparseIntervalMatrix::DenseGram(store,
                                                          Endpoint::kLower),
                   want.lower, what + "/DenseGram.lo");
  ExpectMatrixNear(ShardedSparseIntervalMatrix::DenseGram(store,
                                                          Endpoint::kUpper),
                   want.upper, what + "/DenseGram.hi");
  ExpectIntervalMatrixNear(
      ShardedSparseIntervalMatrix::DenseGramEndpoints(store), want.endpoints,
      what + "/DenseGramEndpoints");
}

}  // namespace ivmf::testing

#endif  // IVMF_TESTS_SPARSE_KERNEL_REFERENCE_H_
