// Google-benchmark microbenchmarks for the computational kernels under the
// ISVD pipeline: scalar/interval matrix products, the block-row store's
// sparse kernels (with the obs matvec/nnz counters surfaced per iteration),
// one-sided Jacobi SVD, symmetric Jacobi eigendecomposition, Hungarian
// assignment, ILSA, a full ISVD4-b decomposition, the serving layer's
// TopK query, and the triplet reader.
//
// Like the fig10 benches, accepts --json[=PATH] (default
// BENCH_microbench_kernels.json) and emits one flat record per benchmark
// run next to Google Benchmark's own console output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/assignment.h"
#include "align/ilsa.h"
#include "base/rng.h"
#include "bench_util.h"
#include "core/isvd.h"
#include "data/ratings.h"
#include "data/synthetic.h"
#include "interval/interval_matrix.h"
#include "io/triplets.h"
#include "linalg/eig.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "serve/serving_snapshot.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

namespace ivmf {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  return m;
}

IntervalMatrix RandomInterval(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config;
  config.rows = rows;
  config.cols = cols;
  return GenerateUniformIntervalMatrix(config, rng);
}

void BM_MatrixProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixProduct)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_IntervalMatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalMatrix a = RandomInterval(n, n, 3);
  const IntervalMatrix b = RandomInterval(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalMatMul(a, b));
  }
}
BENCHMARK(BM_IntervalMatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_IntervalMatMulExact(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const IntervalMatrix a = RandomInterval(n, n, 3);
  const IntervalMatrix b = RandomInterval(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalMatMulExact(a, b));
  }
}
BENCHMARK(BM_IntervalMatMulExact)->Arg(32)->Arg(64);

void BM_Svd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix m = RandomMatrix(2 * n, n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSvd(m));
  }
}
BENCHMARK(BM_Svd)->Arg(16)->Arg(32)->Arg(64);

void BM_SymmetricEig(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix base = RandomMatrix(n, n, 6);
  const Matrix sym = base * base.Transpose();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSymmetricEig(sym));
  }
}
BENCHMARK(BM_SymmetricEig)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Hungarian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix w = RandomMatrix(n, n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentMax(w));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(128);

void BM_Ilsa(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  const Matrix v_min = RandomMatrix(256, r, 8);
  const Matrix v_max = RandomMatrix(256, r, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeIlsa(v_min, v_max));
  }
}
BENCHMARK(BM_Ilsa)->Arg(8)->Arg(20)->Arg(40);

void BM_Isvd4FullPipeline(benchmark::State& state) {
  const size_t cols = static_cast<size_t>(state.range(0));
  const IntervalMatrix m = RandomInterval(40, cols, 10);
  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Isvd4(m, 10, options));
  }
}
BENCHMARK(BM_Isvd4FullPipeline)->Arg(60)->Arg(120)->Arg(250);

// -- Sparse kernels -----------------------------------------------------------
//
// The kernels under every matrix-free solve, on the same synthetic CF
// interval construction the fig10 benches use, run on a View of the matrix
// partitioned as the ISVD entry points partition it. Each benchmark
// brackets its timing loop with registry snapshots and reports the
// per-iteration matvec / nnz counter deltas, so the counters the solvers
// log are visible (and sanity-checkable) at kernel granularity.

SparseIntervalMatrix CfMatrix(size_t users,
                              spk::Backend backend = spk::Backend::kAvx2) {
  RatingsConfig config;
  config.num_users = users;
  config.num_items = users / 4;
  config.fill = 0.05;
  config.seed = 404;
  SparseIntervalMatrix m =
      SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
  m.set_kernel(backend);
  return m;
}

// A View of CfMatrix(users) on `backend`, with the ViewShardRows partition.
ShardedSparseIntervalMatrix CfView(size_t users,
                                   spk::Backend backend = spk::Backend::kAvx2) {
  return ShardedSparseIntervalMatrix::View(
      std::make_shared<const SparseIntervalMatrix>(CfMatrix(users, backend)),
      ShardedSparseIntervalMatrix::ViewShardRows(users));
}

// Per-iteration counter deltas into the benchmark's user counters.
void ReportMatvecCounters(benchmark::State& state,
                          const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  const double iterations = static_cast<double>(state.iterations());
  if (iterations <= 0.0) return;
  state.counters["matvecs"] =
      static_cast<double>(after.CounterSum("sparse.sharded.matvec.calls") -
                          before.CounterSum("sparse.sharded.matvec.calls")) /
      iterations;
  state.counters["nnz_streamed"] =
      static_cast<double>(after.CounterSum("sparse.sharded.matvec.nnz") -
                          before.CounterSum("sparse.sharded.matvec.nnz")) /
      iterations;
}

// The matvec and Gram benchmarks run once per backend: the plain name is
// the default avx2 request — what every solver call site gets — and the
// Scalar suffix pins the portable reference, so the speedup is measurable
// from one JSON file. Labels carry the variant the backend resolved to on
// this machine.
void SparseMultiplyBench(benchmark::State& state, spk::Backend backend) {
  const ShardedSparseIntervalMatrix m =
      CfView(static_cast<size_t>(state.range(0)), backend);
  state.SetLabel(spk::BackendName(spk::Resolve(backend)));
  std::vector<double> x(m.cols(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.Multiply(SparseIntervalMatrix::Endpoint::kLower, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
void BM_SparseMultiply(benchmark::State& state) {
  SparseMultiplyBench(state, spk::Backend::kAvx2);
}
void BM_SparseMultiplyScalar(benchmark::State& state) {
  SparseMultiplyBench(state, spk::Backend::kScalar);
}
BENCHMARK(BM_SparseMultiply)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseMultiplyScalar)->Arg(2000)->Arg(8000)->Arg(20000);

void BM_SparseMultiplyMid(benchmark::State& state) {
  const ShardedSparseIntervalMatrix m =
      CfView(static_cast<size_t>(state.range(0)));
  std::vector<double> x(m.cols(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.MultiplyMid(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseMultiplyMid)->Arg(2000)->Arg(8000)->Arg(20000);

void BM_SparseMultiplyTranspose(benchmark::State& state) {
  const ShardedSparseIntervalMatrix m =
      CfView(static_cast<size_t>(state.range(0)));
  std::vector<double> x(m.rows(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.MultiplyTranspose(SparseIntervalMatrix::Endpoint::kLower, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseMultiplyTranspose)->Arg(2000)->Arg(8000)->Arg(20000);

// y = M_eᵀ (M_e x): the fused one-pass Gram apply ISVD2-4 iterate, on the
// backend's kernel (the scalar one is what a scalar-pinned ISVD runs).
void SparseGramApplyBench(benchmark::State& state, spk::Backend backend) {
  const ShardedSparseIntervalMatrix m =
      CfView(static_cast<size_t>(state.range(0)), backend);
  state.SetLabel(spk::BackendName(spk::Resolve(backend)));
  std::vector<double> x(m.cols(), 1.0), y;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    m.GramMultiply(SparseIntervalMatrix::Endpoint::kUpper, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  ReportMatvecCounters(state, before);
  // One Gram apply touches every nonzero twice (M_e x, then M_eᵀ ·).
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(m.nnz()));
}
void BM_SparseGramApply(benchmark::State& state) {
  SparseGramApplyBench(state, spk::Backend::kAvx2);
}
void BM_SparseGramApplyScalar(benchmark::State& state) {
  SparseGramApplyBench(state, spk::Backend::kScalar);
}
BENCHMARK(BM_SparseGramApply)->Arg(2000)->Arg(8000)->Arg(20000);
BENCHMARK(BM_SparseGramApplyScalar)->Arg(2000)->Arg(8000)->Arg(20000);

// -- Serving TopK -------------------------------------------------------------
//
// One ranking query on a snapshot: rank-10 factors over `items` items and
// 1000 users with short rated rows (8 cells each, like the serving
// benchmark's matrix), k = 10 with rated items excluded. The factors are
// random and signed: the query's cost depends on the shape, not on the
// values. Target b is what the serving tools publish; target a scores four
// sums per item instead of two.

constexpr size_t kTopKUsers = 1000;

ServingSnapshot TopKSnapshot(DecompositionTarget target, size_t items) {
  constexpr size_t kRank = 10, kRatedPerUser = 8;
  Rng rng(505);
  const auto random = [&rng](size_t rows, size_t cols) {
    Matrix x(rows, cols);
    for (size_t i = 0; i < rows; ++i)
      for (size_t j = 0; j < cols; ++j) x(i, j) = rng.Uniform(-1.0, 1.0);
    return x;
  };
  const auto widened = [&rng](Matrix x) {
    for (size_t i = 0; i < x.rows(); ++i)
      for (size_t j = 0; j < x.cols(); ++j) x(i, j) += rng.Uniform(0.0, 0.2);
    return x;
  };
  IsvdResult result;
  result.target = target;
  const Matrix u = random(kTopKUsers, kRank), v = random(items, kRank);
  if (target == DecompositionTarget::kA) {
    result.u = IntervalMatrix(u, widened(u));
    result.v = IntervalMatrix(v, widened(v));
  } else {
    result.u = IntervalMatrix::FromScalar(u);
    result.v = IntervalMatrix::FromScalar(v);
  }
  for (size_t k = 0; k < kRank; ++k) {
    const double s = 10.0 / static_cast<double>(k + 1);
    result.sigma.emplace_back(s, s + rng.Uniform(0.0, 0.5));
  }
  std::vector<IntervalTriplet> rated;
  for (size_t i = 0; i < kTopKUsers; ++i) {
    for (size_t c = 0; c < kRatedPerUser; ++c) {
      rated.push_back({i, static_cast<size_t>(rng.UniformIndex(items)),
                       Interval(3.0, 4.0)});
    }
  }
  return ServingSnapshot(
      1, std::move(result),
      std::make_shared<const SparseIntervalMatrix>(
          SparseIntervalMatrix::FromTriplets(kTopKUsers, items, rated)));
}

void BM_ServingTopK(benchmark::State& state, DecompositionTarget target) {
  const size_t items = static_cast<size_t>(state.range(0));
  const ServingSnapshot snapshot = TopKSnapshot(target, items);
  size_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.TopK(user, 10, /*exclude_observed=*/true));
    user = (user + 1) % kTopKUsers;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(items));
}
BENCHMARK_CAPTURE(BM_ServingTopK, target_a, DecompositionTarget::kA)
    ->Arg(2000)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_ServingTopK, target_b, DecompositionTarget::kB)
    ->Arg(2000)
    ->Arg(20000);

// -- Triplet ingest -------------------------------------------------------------
//
// SparseIntervalMatrixFromTriplets on CfMatrix(n) rendered at precision 17
// (which round-trips every double). /2000 is ~2 MB of text, above the
// reader's one-chunk size, so the CI filter runs a multi-chunk parse;
// /20000 is the ~240 MB shape of the repository benchmark's ingest file.

void BM_TripletParse(benchmark::State& state) {
  const std::string text = SparseIntervalMatrixToTriplets(
      CfMatrix(static_cast<size_t>(state.range(0))), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseIntervalMatrixFromTriplets(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TripletParse)->Arg(2000)->Arg(20000);

// -- Differential self-check (--check) ---------------------------------------
//
// Compares the store kernels of an AVX2 (and an auto) view against a
// scalar view of the benchmark's own CF construction before any timing
// runs. A mismatch
// fails the process, so a CI bench run cannot publish numbers from a kernel
// that diverged. Tolerance matches the differential tests: blocked + FMA
// summation vs left-to-right, |diff| <= 1e-12 * max(1, |ref|).

bool VectorsAgree(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "check FAILED: %s size %zu vs %zu\n", what,
                 got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(want[i]));
    if (std::fabs(got[i] - want[i]) > tol) {
      std::fprintf(stderr, "check FAILED: %s entry %zu: %.17g vs %.17g\n",
                   what, i, got[i], want[i]);
      return false;
    }
  }
  return true;
}

bool CheckBackendAgainstScalar(const ShardedSparseIntervalMatrix& scalar,
                               size_t users, spk::Backend backend) {
  const ShardedSparseIntervalMatrix m = CfView(users, backend);
  const std::string label = spk::BackendName(backend);
  Rng rng(99);
  std::vector<double> x(m.cols()), xt(m.rows());
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  for (double& v : xt) v = rng.Uniform(-1.0, 1.0);
  Matrix b(m.cols(), 4);
  for (size_t i = 0; i < b.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.Uniform(-1.0, 1.0);

  bool ok = true;
  std::vector<double> want, got;
  const auto kLower = SparseIntervalMatrix::Endpoint::kLower;
  const auto kUpper = SparseIntervalMatrix::Endpoint::kUpper;

  scalar.Multiply(kLower, x, want);
  m.Multiply(kLower, x, got);
  ok &= VectorsAgree(got, want, (label + "/multiply").c_str());
  scalar.MultiplyMid(x, want);
  m.MultiplyMid(x, got);
  ok &= VectorsAgree(got, want, (label + "/mid").c_str());
  scalar.MultiplyTranspose(kUpper, xt, want);
  m.MultiplyTranspose(kUpper, xt, got);
  ok &= VectorsAgree(got, want, (label + "/transpose").c_str());
  const Matrix dense_want = scalar.MultiplyDense(kUpper, b);
  const Matrix dense_got = m.MultiplyDense(kUpper, b);
  std::vector<double> dw(dense_want.data(),
                         dense_want.data() + dense_want.rows() * 4);
  std::vector<double> dg(dense_got.data(),
                         dense_got.data() + dense_got.rows() * 4);
  ok &= VectorsAgree(dg, dw, (label + "/dense").c_str());
  scalar.GramMultiply(kLower, x, want);
  m.GramMultiply(kLower, x, got);
  ok &= VectorsAgree(got, want, (label + "/gram.lo").c_str());
  scalar.GramMultiply(kUpper, x, want);
  m.GramMultiply(kUpper, x, got);
  ok &= VectorsAgree(got, want, (label + "/gram.hi").c_str());
  return ok;
}

// Returns true when every backend's view reproduces the scalar view.
bool RunKernelSelfCheck() {
  bool ok = true;
  for (size_t users : {501u, 4000u}) {
    const ShardedSparseIntervalMatrix scalar =
        CfView(users, spk::Backend::kScalar);
    ok &= CheckBackendAgainstScalar(scalar, users, spk::Backend::kAvx2);
  }
  std::fprintf(stderr, "kernel self-check (dispatched=%s): %s\n",
               spk::BackendName(spk::Resolve(spk::Backend::kAvx2)),
               ok ? "OK" : "FAILED");
  return ok;
}

// Returns true when TopK on every BM_ServingTopK snapshot equals the brute
// force (every unrated item's Predict sorted by midpoint descending, then
// item ascending) item for item and score for score, on a spread of users.
bool RunTopKSelfCheck() {
  bool ok = true;
  for (const DecompositionTarget target :
       {DecompositionTarget::kA, DecompositionTarget::kB}) {
    for (size_t items : {2000u, 20000u}) {
      const ServingSnapshot snapshot = TopKSnapshot(target, items);
      const SparseIntervalMatrix& m = snapshot.matrix();
      for (size_t user = 0; user < kTopKUsers; user += 97) {
        const std::vector<ServingSnapshot::ScoredItem> top =
            snapshot.TopK(user, 10, /*exclude_observed=*/true);
        std::vector<ServingSnapshot::ScoredItem> all;
        size_t next = m.row_ptr()[user];
        for (size_t j = 0; j < items; ++j) {
          if (next < m.row_ptr()[user + 1] && m.col_idx()[next] == j) {
            ++next;
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
        all.resize(std::min<size_t>(all.size(), 10));
        bool same = top.size() == all.size();
        for (size_t r = 0; same && r < top.size(); ++r) {
          same = top[r].item == all[r].item && top[r].score == all[r].score;
        }
        if (!same) {
          std::fprintf(stderr,
                       "check FAILED: topk target %d items %zu user %zu "
                       "differs from the brute force\n",
                       static_cast<int>(target), items, user);
        }
        ok &= same;
      }
    }
  }
  std::fprintf(stderr, "topk self-check: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

// Returns true when the reader gives back CfMatrix(n) bit for bit from its
// precision-17 text, both as written (sorted: the direct CSR route) and
// with the entry lines shuffled (the FromTriplets route).
bool RunTripletSelfCheck() {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  bool ok = true;
  for (size_t users : {501u, 2000u}) {
    const SparseIntervalMatrix m = CfMatrix(users);
    const std::string sorted = SparseIntervalMatrixToTriplets(m, 17);
    const size_t body = sorted.find('\n', sorted.find('\n') + 1) + 1;
    std::vector<std::string> lines;
    for (size_t pos = body; pos < sorted.size();) {
      const size_t next = sorted.find('\n', pos) + 1;
      lines.push_back(sorted.substr(pos, next - pos));
      pos = next;
    }
    Rng rng(17);
    rng.Shuffle(lines);
    std::string shuffled = sorted.substr(0, body);
    for (const std::string& line : lines) shuffled += line;
    const std::pair<const char*, const std::string*> texts[] = {
        {"sorted", &sorted}, {"shuffled", &shuffled}};
    for (const auto& [order, text] : texts) {
      const auto parsed = SparseIntervalMatrixFromTriplets(*text);
      const bool same = parsed && parsed->rows() == m.rows() &&
                        parsed->cols() == m.cols() &&
                        parsed->row_ptr() == m.row_ptr() &&
                        parsed->col_idx() == m.col_idx() &&
                        same_bits(parsed->lower_values(), m.lower_values()) &&
                        same_bits(parsed->upper_values(), m.upper_values());
      if (!same) {
        std::fprintf(stderr,
                     "check FAILED: triplet parse of CfMatrix(%zu) (%s) "
                     "differs from the matrix\n",
                     users, order);
      }
      ok &= same;
    }
  }
  std::fprintf(stderr, "triplet self-check: %s\n", ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace

// -- JSON capture -------------------------------------------------------------

// Forwards to the console reporter while capturing one flat record per run,
// so --json output matches the fig10 benches' shape. Keyed by run name:
// Google Benchmark may repeat a benchmark (warmup, aggregates); the last
// report wins.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Record record;
      record.real_time_ns = run.GetAdjustedRealTime();
      record.cpu_time_ns = run.GetAdjustedCPUTime();
      record.iterations = static_cast<size_t>(run.iterations);
      record.label = run.report_label;  // kernel variant for sparse benches
      for (const auto& [name, counter] : run.counters) {
        record.counters.emplace_back(name, counter.value);
      }
      records_[run.benchmark_name()] = record;
    }
    ConsoleReporter::ReportRuns(reports);
  }

  bool WriteJson(const std::string& path) const {
    bench::JsonWriter json(path);
    for (const auto& [name, record] : records_) {
      json.BeginRecord();
      json.Field("bench", "microbench_kernels");
      json.Field("name", name);
      json.Field("real_time_ns", record.real_time_ns);
      json.Field("cpu_time_ns", record.cpu_time_ns);
      json.Field("iterations", record.iterations);
      if (!record.label.empty()) json.Field("kernel", record.label);
      for (const auto& [counter, value] : record.counters) {
        json.Field(counter.c_str(), value);
      }
      bench::WriteMemoryFields(json);
    }
    return json.Finish();
  }

 private:
  struct Record {
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    size_t iterations = 0;
    std::string label;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::map<std::string, Record> records_;
};

}  // namespace ivmf

int main(int argc, char** argv) {
  // Resolve and strip --json[=PATH] and --check before Google Benchmark
  // sees the arguments (it rejects flags it does not recognize).
  const std::string json_path =
      ivmf::bench::JsonPathFlag(argc, argv, "microbench_kernels");
  bool check = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json", 6) == 0 &&
        (arg[6] == '\0' || arg[6] == '=')) {
      continue;
    }
    if (std::strcmp(arg, "--check") == 0) {
      check = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  // Differential gate: with --check, every vectorized backend must
  // reproduce the scalar reference, TopK the brute-force ranking, and the
  // triplet reader the matrix it parses, on the bench's own constructions
  // before any timing runs — a diverged kernel cannot publish numbers.
  if (check) {
    bool ok = ivmf::RunKernelSelfCheck();
    ok &= ivmf::RunTopKSelfCheck();
    ok &= ivmf::RunTripletSelfCheck();
    if (!ok) return 1;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  ivmf::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.WriteJson(json_path)) {
    std::fprintf(stderr, "error: failed writing JSON output\n");
    return 1;
  }
  return 0;
}
