// Shard-boundary and backing coverage for ShardedSparseIntervalMatrix:
// every kernel against a one-shard View of the same matrix (the serial row
// loop) at the kernels' 1e-12 differential bound across the partition
// shapes that exercise boundary arithmetic (unaligned last shard,
// single-row shards, shard_rows >= n, whole shards of empty rows), in both
// sign regimes; the forward kernels' bit-identity promise across shard
// sizes and backings under each backend; construction-route equivalence
// (FromTriplets / FromCsr / Builder / View); the dense-Gram statics'
// bit-identity promise; and the mmap story — kernel parity on a mapped
// store, the kAuto size cutover, and the crash-consistency smoke (persist
// a segment directory, drop the matrix, OpenStore from a clean object,
// re-verify).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

using Endpoint = SparseIntervalMatrix::Endpoint;

// Fixture entries in ascending (row, col) order. `signed_values` flips the
// regime between entrywise non-negative and mixed-sign (the four-product
// Gram territory); rows in [empty_begin, empty_end) are left entirely
// empty so whole shards can come out empty.
std::vector<IntervalTriplet> MakeTriplets(size_t rows, size_t cols,
                                          double fill, bool signed_values,
                                          uint64_t seed, size_t empty_begin = 0,
                                          size_t empty_end = 0) {
  Rng rng(seed);
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    if (i >= empty_begin && i < empty_end) continue;
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Uniform() >= fill) continue;
      const double a =
          signed_values ? rng.Uniform(-2.0, 2.0) : rng.Uniform(0.5, 4.0);
      triplets.push_back({i, j, Interval(a, a + rng.Uniform())});
    }
  }
  return triplets;
}

void ExpectVecNear(const std::vector<double>& got,
                   const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    EXPECT_LE(std::fabs(got[i] - want[i]), tol) << what << "[" << i << "]";
  }
}

void ExpectMatNear(const Matrix& got, const Matrix& want,
                   const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::fabs(want(i, j)));
      EXPECT_LE(std::fabs(got(i, j) - want(i, j)), tol)
          << what << "(" << i << ", " << j << ")";
    }
  }
}

void ExpectIntervalMatNear(const IntervalMatrix& got,
                           const IntervalMatrix& want,
                           const std::string& what) {
  ExpectMatNear(got.lower(), want.lower(), what + " lower");
  ExpectMatNear(got.upper(), want.upper(), what + " upper");
}

Matrix RandomDense(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  return m;
}

// A one-shard view of `m`: every kernel's serial row loop.
ShardedSparseIntervalMatrix OneShardView(const SparseIntervalMatrix& m) {
  return ShardedSparseIntervalMatrix::View(
      std::make_shared<const SparseIntervalMatrix>(m),
      std::max<size_t>(1, m.rows()));
}

// Every kernel of `sharded` against a one-shard view of `mono`.
void ExpectKernelsMatchMonolithic(const SparseIntervalMatrix& mono,
                                  const ShardedSparseIntervalMatrix& sharded,
                                  const std::string& what) {
  ASSERT_EQ(sharded.rows(), mono.rows()) << what;
  ASSERT_EQ(sharded.cols(), mono.cols()) << what;
  ASSERT_EQ(sharded.nnz(), mono.nnz()) << what;
  EXPECT_EQ(sharded.IsProper(), mono.IsProper()) << what;
  EXPECT_EQ(sharded.IsNonNegative(), mono.IsNonNegative()) << what;
  const ShardedSparseIntervalMatrix serial = OneShardView(mono);

  const size_t rows = mono.rows(), cols = mono.cols();
  Rng rng(5);
  std::vector<double> x(cols), xt(rows);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);

  std::vector<double> got, want;
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    serial.Multiply(e, x, want);
    sharded.Multiply(e, x, got);
    ExpectVecNear(got, want, what + " Multiply");
    serial.MultiplyTranspose(e, xt, want);
    sharded.MultiplyTranspose(e, xt, got);
    ExpectVecNear(got, want, what + " MultiplyTranspose");
    serial.GramMultiply(e, x, want);
    sharded.GramMultiply(e, x, got);
    ExpectVecNear(got, want, what + " GramMultiply");
  }
  serial.MultiplyMid(x, want);
  sharded.MultiplyMid(x, got);
  ExpectVecNear(got, want, what + " MultiplyMid");
  serial.MultiplyTransposeMid(xt, want);
  sharded.MultiplyTransposeMid(xt, got);
  ExpectVecNear(got, want, what + " MultiplyTransposeMid");

  const Matrix b = RandomDense(cols, 3, 31);
  const Matrix bt = RandomDense(rows, 3, 32);
  for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
    ExpectMatNear(sharded.MultiplyDense(e, b), serial.MultiplyDense(e, b),
                  what + " MultiplyDense");
  }
  ExpectIntervalMatNear(sharded.IntervalMultiplyDense(b),
                        serial.IntervalMultiplyDense(b),
                        what + " IntervalMultiplyDense");
  ExpectIntervalMatNear(sharded.IntervalMultiplyDenseTranspose(bt),
                        serial.IntervalMultiplyDenseTranspose(bt),
                        what + " IntervalMultiplyDenseTranspose");

  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const Interval a = sharded.At(i, j);
      const Interval m = mono.At(i, j);
      EXPECT_EQ(a.lo, m.lo) << what << " At(" << i << ", " << j << ")";
      EXPECT_EQ(a.hi, m.hi) << what << " At(" << i << ", " << j << ")";
    }
  }
}

class ShardBoundaryTest : public ::testing::TestWithParam<bool> {};

// Partition shapes that stress the boundary arithmetic: single-row shards,
// an unaligned last shard (61 rows in shards of 7 leaves a 5-row tail),
// one exact-fit shard, and shard_rows past the row count.
TEST_P(ShardBoundaryTest, EveryKernelMatchesMonolithic) {
  const bool signed_values = GetParam();
  const size_t rows = 61, cols = 23;
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.15, signed_values, 77);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);
  ASSERT_EQ(mono.IsNonNegative(), !signed_values);

  const struct {
    size_t shard_rows;
    size_t want_shards;
  } configs[] = {{1, 61}, {7, 9}, {61, 1}, {100, 1}};
  for (const auto& config : configs) {
    const ShardedSparseIntervalMatrix sharded =
        ShardedSparseIntervalMatrix::FromTriplets(rows, cols, triplets,
                                                  config.shard_rows);
    EXPECT_EQ(sharded.num_shards(), config.want_shards);
    EXPECT_FALSE(sharded.mmap_backed());
    ExpectKernelsMatchMonolithic(
        mono, sharded,
        (signed_values ? "signed" : "nonneg") + std::string(" shard_rows=") +
            std::to_string(config.shard_rows));
  }
}

// Rows 16..40 carry no entries, so shards 2, 3, and 4 of the 8-row
// partition are entirely empty — the kernels must pass through them
// without perturbing the reduction order.
TEST_P(ShardBoundaryTest, WholeEmptyShards) {
  const bool signed_values = GetParam();
  const size_t rows = 64, cols = 19;
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.25, signed_values, 78, 16, 40);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromTriplets(rows, cols, triplets, 8);
  ASSERT_EQ(sharded.num_shards(), 8u);
  ExpectKernelsMatchMonolithic(mono, sharded, "empty-shards");
}

INSTANTIATE_TEST_SUITE_P(SignRegimes, ShardBoundaryTest, ::testing::Bool());

void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << "[" << i << "]";
  }
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ExpectBitIdentical(
      std::vector<double>(got.data(), got.data() + got.rows() * got.cols()),
      std::vector<double>(want.data(), want.data() + want.rows() * want.cols()),
      what);
}

// The header's promise: under one backend the forward kernels compute each
// output row by one per-row loop, so Multiply, MultiplyMid, MultiplyDense
// and IntervalMultiplyDense return the same bits for every shard size and
// backing — owned u32 shards, mapped segments and views of the u16 sidecar
// alike — and so does the CSR Multiply forward.
TEST(BlockMatrixForwardTest, BitIdenticalAcrossShardSizesAndBackings) {
  // ~42 nnz per row, so the AVX2 rows run their 32-wide main loop too.
  const size_t rows = 61, cols = 70;
  for (const bool signed_values : {false, true}) {
    const std::vector<IntervalTriplet> triplets =
        MakeTriplets(rows, cols, 0.6, signed_values, 79);
    for (const spk::Backend backend :
         {spk::Backend::kScalar, spk::Backend::kAvx2}) {
      auto base = std::make_shared<SparseIntervalMatrix>(
          SparseIntervalMatrix::FromTriplets(rows, cols, triplets));
      base->set_kernel(backend);
      const ShardedSparseIntervalMatrix serial = OneShardView(*base);
      Rng rng(6);
      std::vector<double> x(cols);
      for (double& v : x) v = rng.Uniform(-1.0, 1.0);
      const Matrix b = RandomDense(cols, 5, 33);
      std::vector<double> want_lo, want_hi, want_mid, got;
      serial.Multiply(Endpoint::kLower, x, want_lo);
      serial.Multiply(Endpoint::kUpper, x, want_hi);
      serial.MultiplyMid(x, want_mid);
      const Matrix want_dense = serial.MultiplyDense(Endpoint::kUpper, b);
      const IntervalMatrix want_interval = serial.IntervalMultiplyDense(b);
      base->Multiply(Endpoint::kLower, x, got);
      ExpectBitIdentical(got, want_lo, "csr Multiply");

      for (const size_t shard_rows : {1u, 7u, 61u, 100u}) {
        const ShardedSparseIntervalMatrix memory =
            ShardedSparseIntervalMatrix::FromCsr(*base, shard_rows);
        const ShardedSparseIntervalMatrix mapped =
            ShardedSparseIntervalMatrix::FromCsr(*base, shard_rows,
                                                 BackingPolicy::Mmap());
        const ShardedSparseIntervalMatrix view =
            ShardedSparseIntervalMatrix::View(base, shard_rows);
        const std::pair<const char*, const ShardedSparseIntervalMatrix*>
            stores[] = {{"memory", &memory}, {"mmap", &mapped}, {"view", &view}};
        for (const auto& [backing, store] : stores) {
          const std::string what =
              std::string(spk::BackendName(backend)) + "/" + backing +
              "/shard_rows=" + std::to_string(shard_rows) +
              (signed_values ? "/signed" : "/nonneg");
          store->Multiply(Endpoint::kLower, x, got);
          ExpectBitIdentical(got, want_lo, what + " Multiply lo");
          store->Multiply(Endpoint::kUpper, x, got);
          ExpectBitIdentical(got, want_hi, what + " Multiply hi");
          store->MultiplyMid(x, got);
          ExpectBitIdentical(got, want_mid, what + " MultiplyMid");
          ExpectBitIdentical(store->MultiplyDense(Endpoint::kUpper, b),
                             want_dense, what + " MultiplyDense");
          const IntervalMatrix interval = store->IntervalMultiplyDense(b);
          ExpectBitIdentical(interval.lower(), want_interval.lower(),
                             what + " IntervalMultiplyDense lo");
          ExpectBitIdentical(interval.upper(), want_interval.upper(),
                             what + " IntervalMultiplyDense hi");
        }
      }
    }
  }
}

TEST(BlockMatrixConstructionTest, FromCsrMatchesFromTriplets) {
  std::vector<IntervalTriplet> triplets = MakeTriplets(40, 17, 0.2, true, 81);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(40, 17, triplets);
  const ShardedSparseIntervalMatrix from_csr =
      ShardedSparseIntervalMatrix::FromCsr(mono, 9);
  const ShardedSparseIntervalMatrix from_triplets =
      ShardedSparseIntervalMatrix::FromTriplets(40, 17, std::move(triplets),
                                                9);
  ExpectKernelsMatchMonolithic(mono, from_csr, "FromCsr");
  ExpectKernelsMatchMonolithic(mono, from_triplets, "FromTriplets");
  EXPECT_EQ(from_csr.shard_rows(), 9u);
  EXPECT_EQ(from_csr.num_shards(), 5u);
}

// Row-streaming construction must land byte-for-byte where the batch
// routes do — same CSR content shard by shard, checked through ToCsr.
TEST(BlockMatrixConstructionTest, BuilderMatchesBatchConstruction) {
  const size_t rows = 53, cols = 21;
  // Skip a row range so the builder pads empty rows (and one empty shard).
  std::vector<IntervalTriplet> triplets =
      MakeTriplets(rows, cols, 0.2, true, 82, 10, 22);
  const SparseIntervalMatrix mono =
      SparseIntervalMatrix::FromTriplets(rows, cols, triplets);

  ShardedSparseIntervalMatrix::Builder builder(rows, cols, 10,
                                               BackingPolicy::Memory());
  for (const IntervalTriplet& t : triplets) {
    builder.Append(t.row, t.col, t.value);
  }
  const ShardedSparseIntervalMatrix built = builder.Finish();
  EXPECT_EQ(built.num_shards(), 6u);
  ExpectKernelsMatchMonolithic(mono, built, "Builder");

  const SparseIntervalMatrix round_trip = built.ToCsr();
  ASSERT_EQ(round_trip.nnz(), mono.nnz());
  const IntervalMatrix dense = mono.ToDense();
  const IntervalMatrix dense_round_trip = round_trip.ToDense();
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(dense_round_trip.At(i, j).lo, dense.At(i, j).lo);
      EXPECT_EQ(dense_round_trip.At(i, j).hi, dense.At(i, j).hi);
    }
  }
}

// The zero-copy View partitions the base in place and must keep it alive
// through the shared_ptr even after the caller drops its reference.
TEST(BlockMatrixConstructionTest, ViewSharesTheBaseStore) {
  auto base = std::make_shared<const SparseIntervalMatrix>(
      SparseIntervalMatrix::FromTriplets(45, 18,
                                         MakeTriplets(45, 18, 0.2, false, 83)));
  ShardedSparseIntervalMatrix view =
      ShardedSparseIntervalMatrix::View(base, 11);
  EXPECT_EQ(view.num_shards(), 5u);
  EXPECT_FALSE(view.mmap_backed());

  const SparseIntervalMatrix mono = *base;  // keep a reference copy
  base.reset();
  ExpectKernelsMatchMonolithic(mono, view, "View");
}

// The doc promises the dense-Gram statics walk the shards in ascending
// row order — the serial row loop — so every partition gives the same
// bits. A one-shard view of the matrix is that serial loop; the signed
// case is the four-product accumulation the sparse ISVD2-4 run.
TEST(BlockMatrixGramTest, DenseGramStaticsAreBitIdentical) {
  for (const bool signed_values : {false, true}) {
    const auto mono =
        std::make_shared<const SparseIntervalMatrix>(
            SparseIntervalMatrix::FromTriplets(
                37, 14, MakeTriplets(37, 14, 0.25, signed_values, 84)));
    const ShardedSparseIntervalMatrix serial =
        ShardedSparseIntervalMatrix::View(mono, 37);
    ASSERT_EQ(serial.num_shards(), 1u);

    for (const size_t shard_rows : {1u, 8u}) {
      const ShardedSparseIntervalMatrix sharded =
          ShardedSparseIntervalMatrix::FromCsr(*mono, shard_rows);
      for (const Endpoint e : {Endpoint::kLower, Endpoint::kUpper}) {
        const Matrix want = ShardedSparseIntervalMatrix::DenseGram(serial, e);
        const Matrix got = ShardedSparseIntervalMatrix::DenseGram(sharded, e);
        ASSERT_EQ(got.rows(), want.rows());
        for (size_t i = 0; i < want.rows(); ++i)
          for (size_t j = 0; j < want.cols(); ++j)
            EXPECT_EQ(got(i, j), want(i, j)) << "(" << i << ", " << j << ")";
      }
      const IntervalMatrix want =
          ShardedSparseIntervalMatrix::DenseGramEndpoints(serial);
      const IntervalMatrix got =
          ShardedSparseIntervalMatrix::DenseGramEndpoints(sharded);
      for (size_t i = 0; i < want.rows(); ++i) {
        for (size_t j = 0; j < want.cols(); ++j) {
          EXPECT_EQ(got.At(i, j).lo, want.At(i, j).lo);
          EXPECT_EQ(got.At(i, j).hi, want.At(i, j).hi);
        }
      }
    }
  }
}

TEST(BlockMatrixMmapTest, MappedStoreMatchesMonolithic) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      57, 22, MakeTriplets(57, 22, 0.2, true, 85));
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12, BackingPolicy::Mmap());
  EXPECT_TRUE(sharded.mmap_backed());
  EXPECT_FALSE(sharded.store_dir().empty());
  ExpectKernelsMatchMonolithic(mono, sharded, "mmap");
}

// kAuto compares the estimated store bytes against the budget: a tiny
// budget must spill to segment files, a huge one must stay on the heap.
TEST(BlockMatrixMmapTest, AutoPolicySpillsOnBudget) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      48, 16, MakeTriplets(48, 16, 0.25, false, 86));
  const ShardedSparseIntervalMatrix spilled =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12, BackingPolicy::Auto(64));
  EXPECT_TRUE(spilled.mmap_backed());
  const ShardedSparseIntervalMatrix resident =
      ShardedSparseIntervalMatrix::FromCsr(mono, 12,
                                           BackingPolicy::Auto(1u << 30));
  EXPECT_FALSE(resident.mmap_backed());
  ExpectKernelsMatchMonolithic(mono, spilled, "auto-mmap");
  ExpectKernelsMatchMonolithic(mono, resident, "auto-memory");
}

// Crash-consistency smoke: persist a store to an explicit directory, let
// the writing matrix die, reopen the segment files from a clean object,
// and re-verify the kernels — what a restart after a crash does.
TEST(BlockMatrixMmapTest, OpenStoreReopensPersistedSegments) {
  const SparseIntervalMatrix mono = SparseIntervalMatrix::FromTriplets(
      44, 15, MakeTriplets(44, 15, 0.25, true, 87));

  char dir_template[] = "/tmp/ivmf_block_store_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  size_t num_shards = 0;
  {
    const ShardedSparseIntervalMatrix writer =
        ShardedSparseIntervalMatrix::FromCsr(mono, 10,
                                             BackingPolicy::Mmap(dir));
    ASSERT_TRUE(writer.mmap_backed());
    ASSERT_EQ(writer.store_dir(), dir);
    num_shards = writer.num_shards();
  }  // explicit directories persist past the matrix

  ShardedSparseIntervalMatrix reopened;
  std::string error;
  ASSERT_TRUE(ShardedSparseIntervalMatrix::OpenStore(dir, &reopened, &error))
      << error;
  EXPECT_EQ(reopened.num_shards(), num_shards);
  EXPECT_TRUE(reopened.mmap_backed());
  ExpectKernelsMatchMonolithic(mono, reopened, "OpenStore");

  // An empty directory is not a store.
  char empty_template[] = "/tmp/ivmf_block_empty_XXXXXX";
  ASSERT_NE(::mkdtemp(empty_template), nullptr);
  ShardedSparseIntervalMatrix none;
  EXPECT_FALSE(
      ShardedSparseIntervalMatrix::OpenStore(empty_template, &none, &error));
  EXPECT_FALSE(error.empty());
  ::rmdir(empty_template);

  for (size_t s = 0; s < num_shards; ++s) {
    std::remove((dir + "/shard_" + std::to_string(s) + ".ivsh").c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(BlockMatrixEdgeTest, DefaultConstructedIsEmpty) {
  const ShardedSparseIntervalMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.num_shards(), 0u);
}

}  // namespace
}  // namespace ivmf
