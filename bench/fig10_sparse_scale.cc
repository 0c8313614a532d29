// Figure 10 at production scale: collaborative-filtering interval
// decompositions on rating matrices far beyond what the dense pipeline can
// touch.
//
// Sweeps users x items (fill <= 0.05 by default) through the sparse
// matrix-free ISVD path — CSR CF-interval construction, Lanczos on the
// O(nnz) midpoint Gram (ISVD0) and endpoint Gram operators (ISVD1–ISVD4),
// sparse solve/recompute — and reports per-phase timings. By
// default every strategy 0–4 runs on every shape (all five are matrix-free
// on the non-negative CF data); --strategy=N restricts to one. For shapes
// below --dense_limit cells the dense route (materialized matrices + the
// same solvers) runs side by side and the speedup is reported; above it the
// dense route is skipped and its endpoint-matrix memory footprint alone is
// printed for scale.
//
// Usage:
//   bench_fig10_sparse_scale [--rank=10] [--strategy=-1] [--fill_pct=5]
//                            [--alpha_pct=30] [--max_cells=100000000]
//                            [--dense_limit=1500000] [--json[=PATH]]
//                            [--kernel=avx2|scalar]
//
// --kernel pins the sparse kernel backend for the CF matrix (default avx2,
// which runs scalar on a CPU without AVX2); every record carries the
// variant that actually ran as "kernel".
//
// --json emits one record per (shape, strategy) row (see bench_util.h's
// JsonWriter) so CI tracks the perf trajectory.

#include <cstdio>
#include <vector>

#include "base/stopwatch.h"
#include "bench_util.h"
#include "core/sparse_isvd.h"
#include "data/ratings.h"
#include "sparse/sparse_interval_matrix.h"
#include "sparse/sparse_kernels.h"

int main(int argc, char** argv) {
  using namespace ivmf;
  using namespace ivmf::bench;

  const size_t rank = static_cast<size_t>(IntFlag(argc, argv, "rank", 10));
  const int strategy_flag = IntFlag(argc, argv, "strategy", -1);
  const double fill = IntFlag(argc, argv, "fill_pct", 5) / 100.0;
  const double alpha = IntFlag(argc, argv, "alpha_pct", 30) / 100.0;
  const double max_cells = IntFlag(argc, argv, "max_cells", 100000000);
  const double dense_limit = IntFlag(argc, argv, "dense_limit", 1500000);
  const std::string kernel_flag = StringFlag(argc, argv, "kernel", "avx2");
  spk::Backend kernel = spk::Backend::kAvx2;
  if (!spk::ParseBackend(kernel_flag, &kernel)) {
    std::fprintf(stderr, "error: unknown --kernel=%s (scalar|avx2)\n",
                 kernel_flag.c_str());
    return 1;
  }
  // The variant the kernels actually run under this selection.
  const char* kernel_name = spk::BackendName(spk::Resolve(kernel));

  std::vector<int> strategies;
  if (strategy_flag < 0) {
    strategies = {0, 1, 2, 3, 4};
  } else {
    strategies = {strategy_flag};
  }

  struct Shape {
    size_t users, items;
  };
  const std::vector<Shape> shapes = {
      {1000, 250}, {2000, 500}, {5000, 1250}, {10000, 2500}, {20000, 5000}};

  PrintHeader("Figure 10 at scale — sparse matrix-free ISVD on CF interval "
              "matrices");
  std::printf("strategies 0-4%s, rank %zu, fill %.2f, alpha %.2f\n\n",
              strategy_flag < 0 ? "" : " (restricted)", rank, fill, alpha);
  std::printf("%-14s %5s %10s %7s %9s %9s %9s %9s %10s\n", "users x items",
              "isvd", "nnz", "sparse", "preproc", "decomp", "solve", "recomp",
              "dense/spd");
  PrintRule(98);

  JsonWriter json(JsonPathFlag(argc, argv, "fig10_sparse_scale"));

  for (const Shape& shape : shapes) {
    const double cells =
        static_cast<double>(shape.users) * static_cast<double>(shape.items);
    if (cells > max_cells) continue;

    RatingsConfig config;
    config.num_users = shape.users;
    config.num_items = shape.items;
    config.fill = fill;
    config.seed = 404;
    const SparseRatingsData data = GenerateSparseRatings(config);
    SparseIntervalMatrix cf = SparseCfIntervalMatrix(data, alpha);
    cf.set_kernel(kernel);

    IsvdOptions options;
    options.target = DecompositionTarget::kB;
    options.gram_side = GramSide::kAuto;
    options.eig_solver = EigSolver::kLanczos;

    // Materialized once per shape for the side-by-side dense runs.
    IntervalMatrix dense;
    if (cells <= dense_limit) dense = cf.ToDense();

    for (const int strategy : strategies) {
      const obs::MetricsSnapshot counters_before =
          obs::MetricsRegistry::Global().Snapshot();
      Stopwatch sw;
      const IsvdResult sparse_result = RunIsvd(strategy, cf, rank, options);
      const double sparse_seconds = sw.Seconds();
      const SolverCounterDeltas solver(
          counters_before, obs::MetricsRegistry::Global().Snapshot());
      const PhaseTimings& t = sparse_result.timings;

      char label[32];
      std::snprintf(label, sizeof(label), "%zux%zu", shape.users, shape.items);
      std::printf("%-14s %5d %10zu %6.2fs %8.3fs %8.3fs %8.3fs %8.3fs", label,
                  strategy, cf.nnz(), sparse_seconds, t.preprocess,
                  t.decompose, t.solve, t.recompute);

      json.BeginRecord();
      json.Field("bench", std::string("fig10_sparse_scale"));
      json.Field("users", shape.users);
      json.Field("items", shape.items);
      json.Field("nnz", cf.nnz());
      json.Field("rank", rank);
      json.Field("strategy", strategy);
      json.Field("kernel", std::string(kernel_name));
      json.Field("sparse_seconds", sparse_seconds);
      json.Field("preprocess_seconds", t.preprocess);
      json.Field("decompose_seconds", t.decompose);
      json.Field("solve_seconds", t.solve);
      json.Field("recompute_seconds", t.recompute);
      solver.WriteFields(json);
      WriteMemoryFields(json);

      if (cells <= dense_limit) {
        // Dense route: materialized endpoint matrices (+ interval Gram for
        // strategies 2-4), same rank and solver options.
        sw.Restart();
        const IsvdResult dense_result =
            RunIsvd(strategy, dense, rank, options);
        const double dense_seconds = sw.Seconds();
        (void)dense_result;
        const double speedup =
            dense_seconds / (sparse_seconds > 0.0 ? sparse_seconds : 1.0);
        json.Field("dense_seconds", dense_seconds);
        json.Field("speedup_vs_dense", speedup);
        std::printf(" %6.2fs/%4.1fx\n", dense_seconds, speedup);
      } else {
        // 2 endpoint matrices x 8 bytes; the interval Gram adds another
        // 2 x min(n, m)^2 on top for strategies 2-4.
        const double gib = 2.0 * cells * 8.0 / (1024.0 * 1024.0 * 1024.0);
        std::printf("   (dense skipped: %.1f GiB endpoints)\n", gib);
      }
    }
  }

  PrintRule(98);
  std::printf(
      "sparse path peak memory is O(nnz) + factors on non-negative data: "
      "ISVD0-4 run Lanczos\non the midpoint or endpoint Gram operators and "
      "never materialize the Gram.\n");
  if (!json.Finish()) {
    std::fprintf(stderr, "error: failed writing JSON output\n");
    return 1;
  }
  return 0;
}
