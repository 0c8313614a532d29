// Out-of-core decomposition through the block-row sharded store, plus the
// sharded/monolithic equivalence and throughput check.
//
// Two phases, selectable with --mode:
//
//  outofcore  Stream-generates a CF-style interval matrix row by row into a
//             ShardedSparseIntervalMatrix::Builder with mmap backing under
//             an enforced memory budget, then runs a full sparse ISVD
//             through the mmap'd segment files. The heap never holds more
//             than one shard plus the rank-r factors, and per-shard
//             residency drops (madvise MADV_DONTNEED) keep the resident set
//             near the budget while the store itself is several times
//             larger — the CI smoke job runs this phase under a hard
//             `ulimit -d` cap and asserts peak_rss_bytes < budget from the
//             JSON.
//
//  equiv      Builds one in-memory CF matrix, runs its Gram apply three
//             ways — a View of the matrix (what every in-memory ISVD runs;
//             the "monolithic" reference), sharded single-shard, sharded
//             multi-shard — and reports the max relative difference (the
//             kernels' 1e-12 differential bound) plus applies/second for
//             each, so the record tracks both the owned-shard store's
//             overhead vs the view and its shard-parallel speedup.
//
// --mode=both (the default) runs outofcore FIRST so its peak-RSS record is
// taken before the equiv phase's in-memory matrices inflate the high-water
// mark.
//
// Usage:
//   bench_fig10_outofcore [--mode=both|outofcore|equiv] [--json[=PATH]]
//     out-of-core: [--oc_users=44000] [--oc_items=4800] [--oc_fill_pct=5]
//                  [--oc_shard_rows=1024] [--budget_mb=48] [--rank=8]
//                  [--strategy=3]
//     equivalence: [--users=20000] [--items=5000] [--fill_pct=5]
//                  [--shard_rows=2048] [--reps=20]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/stopwatch.h"
#include "bench_util.h"
#include "core/sparse_isvd.h"
#include "data/ratings.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"

namespace {

using namespace ivmf;
using namespace ivmf::bench;

// Deterministic per-row cell stream: row i always produces the same cells
// regardless of which rows were generated before it, so the builder phase
// needs no global triplet buffer — O(cols) per row, one shard of heap.
void GenerateRow(size_t row, size_t cols, double fill, uint64_t seed,
                 ShardedSparseIntervalMatrix::Builder& builder) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (row + 1)));
  for (size_t j = 0; j < cols; ++j) {
    if (rng.Uniform() >= fill) continue;
    const double rating = rng.Uniform(1.0, 5.0);
    const double delta = 0.25 * rng.Uniform();
    builder.Append(row, j,
                   Interval(std::max(0.0, rating - delta), rating + delta));
  }
}

// Max |a - b| relative to ||a||_inf.
double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double scale = 0.0;
  for (const double v : a) scale = std::max(scale, std::fabs(v));
  if (scale == 0.0) scale = 1.0;
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
  }
  return diff / scale;
}

int RunOutOfCore(int argc, char** argv, JsonWriter& json) {
  const size_t users =
      static_cast<size_t>(IntFlag(argc, argv, "oc_users", 44000));
  const size_t items =
      static_cast<size_t>(IntFlag(argc, argv, "oc_items", 4800));
  const double fill = IntFlag(argc, argv, "oc_fill_pct", 5) / 100.0;
  const size_t shard_rows =
      static_cast<size_t>(IntFlag(argc, argv, "oc_shard_rows", 1024));
  const size_t budget_bytes =
      static_cast<size_t>(IntFlag(argc, argv, "budget_mb", 48)) << 20;
  const size_t rank = static_cast<size_t>(IntFlag(argc, argv, "rank", 8));
  const int strategy = IntFlag(argc, argv, "strategy", 3);

  std::printf("[out-of-core] %zu x %zu, fill %.2f, shard_rows %zu, budget "
              "%zu MiB\n",
              users, items, fill, shard_rows, budget_bytes >> 20);

  // Mmap backing with the budget set turns on per-shard residency drops.
  BackingPolicy policy = BackingPolicy::Mmap();
  policy.budget_bytes = budget_bytes;

  Stopwatch sw;
  ShardedSparseIntervalMatrix::Builder builder(users, items, shard_rows,
                                               policy);
  for (size_t i = 0; i < users; ++i) {
    GenerateRow(i, items, fill, /*seed=*/404, builder);
  }
  const ShardedSparseIntervalMatrix m = builder.Finish();
  const double build_seconds = sw.Seconds();
  const size_t store_bytes = MappedBytesTotal();
  std::printf("[out-of-core] built %zu shards, %zu nnz, store %.1f MiB "
              "(%.1fx budget) in %.2fs; peak RSS after build %.1f MiB\n",
              m.num_shards(), m.nnz(),
              static_cast<double>(store_bytes) / (1 << 20),
              static_cast<double>(store_bytes) /
                  static_cast<double>(budget_bytes),
              build_seconds,
              static_cast<double>(PeakRssBytes()) / (1 << 20));

  IsvdOptions options;
  options.target = DecompositionTarget::kB;
  options.eig_solver = EigSolver::kLanczos;
  sw.Restart();
  const IsvdResult result = RunIsvd(strategy, m, rank, options);
  const double decompose_seconds = sw.Seconds();

  const size_t peak_rss = PeakRssBytes();
  const bool rss_within_budget = peak_rss < budget_bytes;
  std::printf("[out-of-core] ISVD%d rank %zu in %.2fs; peak RSS %.1f MiB "
              "(budget %zu MiB): %s\n",
              strategy, result.rank(), decompose_seconds,
              static_cast<double>(peak_rss) / (1 << 20), budget_bytes >> 20,
              rss_within_budget ? "within budget" : "OVER budget");

  json.BeginRecord();
  json.Field("bench", "fig10_outofcore");
  json.Field("mode", "outofcore");
  json.Field("users", users);
  json.Field("items", items);
  json.Field("nnz", m.nnz());
  json.Field("shard_rows", shard_rows);
  json.Field("num_shards", m.num_shards());
  json.Field("rank", rank);
  json.Field("strategy", strategy);
  json.Field("budget_bytes", budget_bytes);
  json.Field("store_bytes", store_bytes);
  json.Field("store_over_budget",
             static_cast<double>(store_bytes) /
                 static_cast<double>(budget_bytes));
  json.Field("build_seconds", build_seconds);
  json.Field("decompose_seconds", decompose_seconds);
  json.Field("rss_within_budget", rss_within_budget);
  WriteMemoryFields(json);
  return rss_within_budget ? 0 : 3;
}

void RunEquiv(int argc, char** argv, JsonWriter& json) {
  const size_t users = static_cast<size_t>(IntFlag(argc, argv, "users", 20000));
  const size_t items = static_cast<size_t>(IntFlag(argc, argv, "items", 5000));
  const double fill = IntFlag(argc, argv, "fill_pct", 5) / 100.0;
  const size_t shard_rows =
      static_cast<size_t>(IntFlag(argc, argv, "shard_rows", 2048));
  const int reps = IntFlag(argc, argv, "reps", 20);

  RatingsConfig config;
  config.num_users = users;
  config.num_items = items;
  config.fill = fill;
  config.seed = 404;
  const SparseIntervalMatrix cf =
      SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
  const ShardedSparseIntervalMatrix mono =
      ShardedSparseIntervalMatrix::BorrowedView(cf);
  const ShardedSparseIntervalMatrix sharded =
      ShardedSparseIntervalMatrix::FromCsr(cf, shard_rows);
  const ShardedSparseIntervalMatrix single =
      ShardedSparseIntervalMatrix::FromCsr(cf, users);

  std::printf("\n[equiv] %zu x %zu, %zu nnz; %zu shards of %zu rows vs "
              "a view (%u threads)\n",
              users, items, cf.nnz(), sharded.num_shards(), shard_rows,
              std::thread::hardware_concurrency());

  Rng rng(7);
  std::vector<double> x(items);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  std::vector<double> y_mono(items), y_shard(items), y_single(items);

  double max_diff = 0.0;
  for (const auto e :
       {SparseIntervalMatrix::Endpoint::kLower,
        SparseIntervalMatrix::Endpoint::kUpper}) {
    mono.GramMultiply(e, x, y_mono);
    sharded.GramMultiply(e, x, y_shard);
    single.GramMultiply(e, x, y_single);
    max_diff = std::max(max_diff, MaxRelDiff(y_mono, y_shard));
    max_diff = std::max(max_diff, MaxRelDiff(y_mono, y_single));
  }

  struct Variant {
    const char* name;
    double applies_per_second = 0.0;
  };
  Variant variants[3] = {{"monolithic"}, {"sharded"}, {"single_shard"}};
  const auto time_applies = [&](const auto& matrix, std::vector<double>& y) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      matrix.GramMultiply(SparseIntervalMatrix::Endpoint::kUpper, x, y);
    }
    const double seconds = sw.Seconds();
    return seconds > 0.0 ? reps / seconds : 0.0;
  };
  variants[0].applies_per_second = time_applies(mono, y_mono);
  variants[1].applies_per_second = time_applies(sharded, y_shard);
  variants[2].applies_per_second = time_applies(single, y_single);

  const double relative_throughput =
      variants[0].applies_per_second > 0.0
          ? variants[1].applies_per_second / variants[0].applies_per_second
          : 0.0;
  const double parallel_speedup =
      variants[2].applies_per_second > 0.0
          ? variants[1].applies_per_second / variants[2].applies_per_second
          : 0.0;

  std::printf("[equiv] max relative diff %.3g\n", max_diff);
  for (const Variant& v : variants) {
    std::printf("[equiv] %-12s %8.2f Gram applies/s\n", v.name,
                v.applies_per_second);
  }
  std::printf("[equiv] sharded vs monolithic %.2fx, vs single-shard %.2fx\n",
              relative_throughput, parallel_speedup);

  json.BeginRecord();
  json.Field("bench", "fig10_outofcore");
  json.Field("mode", "equiv");
  json.Field("users", users);
  json.Field("items", items);
  json.Field("nnz", cf.nnz());
  json.Field("shard_rows", shard_rows);
  json.Field("num_shards", sharded.num_shards());
  json.Field("threads",
             static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Field("max_rel_diff", max_diff);
  json.Field("mono_applies_per_second", variants[0].applies_per_second);
  json.Field("sharded_applies_per_second", variants[1].applies_per_second);
  json.Field("single_shard_applies_per_second",
             variants[2].applies_per_second);
  json.Field("relative_throughput", relative_throughput);
  json.Field("parallel_speedup", parallel_speedup);
  WriteMemoryFields(json);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = StringFlag(argc, argv, "mode", "both");
  if (mode != "both" && mode != "outofcore" && mode != "equiv") {
    std::fprintf(stderr,
                 "error: unknown --mode=%s (both|outofcore|equiv)\n",
                 mode.c_str());
    return 1;
  }

  PrintHeader("Figure 10 out-of-core — block-row sharded decomposition");
  JsonWriter json(JsonPathFlag(argc, argv, "fig10_outofcore"));

  int status = 0;
  if (mode != "equiv") status = RunOutOfCore(argc, argv, json);
  if (mode != "outofcore") RunEquiv(argc, argv, json);

  if (!json.Finish()) {
    std::fprintf(stderr, "error: failed writing JSON output\n");
    return 1;
  }
  return status;
}
