// ivmf_stream — streaming interval SVD driver.
//
// Maintains a decomposition over a rating matrix that keeps growing:
// starts from a base triplet file (io/triplets.h format), applies batches
// of arriving / revised cells, and refreshes the decomposition after each
// batch through core/streaming_isvd.h — warm-started Krylov solves with a
// full-recompute fallback — printing per-batch stats (warm/cold, Krylov
// iterations, wall clock, leading sigma).
//
// Batches are triplet files with the SAME declared shape as the base (the
// universe is fixed; streaming revises and adds cells). A cell listed in a
// batch replaces the current cell outright (last-write-wins), so batch
// files may legitimately re-list cells: the strict duplicate-reject parse
// applies within one file, while revisions across files are the point.
//
// Without --input, a synthetic CF workload is generated and a slice of its
// cells is replayed as the arrival stream — a self-contained demo:
//   ivmf_stream --users=2000 --items=500 --batches=4 --batch_pct=2
//
// Usage:
//   ivmf_stream --input=base.trp --batch=b1.trp --batch=b2.trp ...
//               [--rank=10] [--strategy=2] [--target=a|b|c] [--cold]
//               [--out_prefix=P] [--metrics-json=PATH] [--trace=PATH]
//               [--http_port=N] [--stall_seconds=S]
//
// With --out_prefix=P the final factors are written as P_u.csv,
// P_sigma.csv, P_v.csv (interval CSV for target a, scalar otherwise).
// The observability flags match ivmf_serve (shared via obs/export_flags):
// --metrics-json and --trace dump the registry snapshot / Chrome trace at
// exit, and --http_port serves the live introspection endpoints while the
// batch replay runs, with /healthz beating once per refresh.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "base/flags.h"
#include "core/streaming_isvd.h"
#include "data/ratings.h"
#include "io/csv.h"
#include "io/triplets.h"
#include "obs/export_flags.h"
#include "obs/http_exporter.h"
#include "obs/log.h"
#include "obs/watchdog.h"

namespace {

using ivmf::BoolFlag;
using ivmf::IntFlag;
using ivmf::RepeatedFlag;
using ivmf::StringFlag;

void Usage() {
  std::fprintf(
      stderr,
      "usage: ivmf_stream --input=BASE.trp --batch=B1.trp [--batch=B2.trp...]\n"
      "                   [--rank=N] [--strategy=0..4] [--target=a|b|c]\n"
      "                   [--cold] [--out_prefix=P]\n"
      "   or: ivmf_stream --users=N --items=M [--batches=K] [--batch_pct=P]\n"
      "                   [--fill_pct=F] [--alpha_pct=A] [same options]\n"
      "observability: [--metrics-json=PATH] [--trace=PATH] [--http_port=N]\n"
      "               [--stall_seconds=S]\n");
}

void PrintRefresh(const char* label, const ivmf::StreamingIsvd& streaming) {
  const ivmf::StreamingRefreshStats& stats = streaming.last_stats();
  const ivmf::IsvdResult& result = streaming.result();
  const double sigma_1 = result.sigma.empty() ? 0.0 : result.sigma[0].hi;
  std::printf("%-12s %9zu cells  %4s  %5zu iters  %8.4fs  rank %zu  "
              "sigma1 %.6g\n",
              label, stats.delta_cells, stats.warm ? "warm" : "cold",
              stats.iterations, stats.seconds, result.rank(), sigma_1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ivmf;

  const int strategy = IntFlag(argc, argv, "strategy", 2);
  if (strategy < 0 || strategy > 4) {
    Usage();
    return 2;
  }
  const size_t rank = static_cast<size_t>(IntFlag(argc, argv, "rank", 10));
  const obs::ObsCliOptions obs_options = obs::ParseObsCliOptions(argc, argv);
  obs::StartObsCollection(obs_options);

  StreamingIsvdOptions options;
  const std::string target = StringFlag(argc, argv, "target", "b");
  if (target == "a") {
    options.isvd.target = DecompositionTarget::kA;
  } else if (target == "b") {
    options.isvd.target = DecompositionTarget::kB;
  } else if (target == "c") {
    options.isvd.target = DecompositionTarget::kC;
  } else {
    Usage();
    return 2;
  }
  if (BoolFlag(argc, argv, "cold")) options.warm_start = false;

  // Assemble the base matrix and the batch stream.
  SparseIntervalMatrix base;
  std::vector<std::vector<IntervalTriplet>> batches;
  const std::string input = StringFlag(argc, argv, "input", "");
  if (!input.empty()) {
    std::string error;
    std::optional<SparseIntervalMatrix> loaded =
        LoadSparseIntervalTriplets(input, DuplicatePolicy::kReject, &error);
    if (!loaded) {
      obs::LogError("stream_cli", "cannot parse base triplets",
                    {{"path", input}, {"error", error}});
      return 1;
    }
    base = std::move(*loaded);
    for (const std::string& path : RepeatedFlag(argc, argv, "batch")) {
      std::optional<SparseIntervalMatrix> batch =
          LoadSparseIntervalTriplets(path, DuplicatePolicy::kReject, &error);
      if (!batch) {
        obs::LogError("stream_cli", "cannot parse batch triplets",
                      {{"path", path}, {"error", error}});
        return 1;
      }
      if (batch->rows() != base.rows() || batch->cols() != base.cols()) {
        obs::LogError("stream_cli", "batch shape does not match base",
                      {{"path", path},
                       {"batch_rows", batch->rows()},
                       {"batch_cols", batch->cols()},
                       {"base_rows", base.rows()},
                       {"base_cols", base.cols()}});
        return 1;
      }
      batches.push_back(batch->ToTriplets());
    }
  } else {
    // Synthetic demo workload: generate CF intervals, stream the tail.
    RatingsConfig config;
    config.num_users = static_cast<size_t>(IntFlag(argc, argv, "users", 2000));
    config.num_items = static_cast<size_t>(IntFlag(argc, argv, "items", 500));
    config.fill = IntFlag(argc, argv, "fill_pct", 10) / 100.0;
    config.seed = static_cast<uint64_t>(IntFlag(argc, argv, "seed", 404));
    const double alpha = IntFlag(argc, argv, "alpha_pct", 30) / 100.0;
    const int num_batches = IntFlag(argc, argv, "batches", 4);
    const double batch_fraction =
        IntFlag(argc, argv, "batch_pct", 2) / 100.0;

    const SparseRatingsData data = GenerateSparseRatings(config);
    const SparseIntervalMatrix cf = SparseCfIntervalMatrix(data, alpha);
    const std::vector<IntervalTriplet> cells = cf.ToTriplets();
    const size_t batch_size = static_cast<size_t>(
        batch_fraction * static_cast<double>(cells.size()));
    const size_t stream = batch_size * static_cast<size_t>(num_batches);
    if (batch_size == 0 || stream >= cells.size()) {
      obs::LogError("stream_cli", "batches/batch_pct too large",
                    {{"generated_cells", cells.size()},
                     {"stream_cells", stream}});
      return 1;
    }
    base = SparseIntervalMatrix::FromTriplets(
        cf.rows(), cf.cols(),
        {cells.begin(), cells.begin() + static_cast<ptrdiff_t>(
                                            cells.size() - stream)});
    for (int b = 0; b < num_batches; ++b) {
      const auto begin = cells.begin() + static_cast<ptrdiff_t>(
                                             cells.size() - stream +
                                             static_cast<size_t>(b) * batch_size);
      batches.emplace_back(begin, begin + static_cast<ptrdiff_t>(batch_size));
    }
  }

  std::printf("base: %zu x %zu sparse interval matrix, %zu nnz (fill %.4f), "
              "ISVD%d rank %zu, %zu batches\n",
              base.rows(), base.cols(), base.nnz(), base.FillFraction(),
              strategy, rank, batches.size());

  // Batch replay is synchronous, so the watchdog runs in strict mode (no
  // busy probe): a refresh that exceeds --stall_seconds flips /healthz.
  obs::WatchdogOptions watchdog_options;
  watchdog_options.stall_seconds = obs_options.stall_seconds;
  obs::Watchdog watchdog(watchdog_options);
  obs::HttpExporter exporter([&] {
    obs::HttpExporterOptions http;
    http.port = static_cast<uint16_t>(obs_options.http_port);
    http.watchdog = &watchdog;
    return http;
  }());
  if (obs_options.http_requested) {
    if (!exporter.Start()) return 1;
    std::printf("introspection: http://127.0.0.1:%u/\n",
                static_cast<unsigned>(exporter.port()));
  }

  StreamingIsvd streaming(strategy, rank, std::move(base), options);
  watchdog.Beat();
  PrintRefresh("base", streaming);
  for (size_t b = 0; b < batches.size(); ++b) {
    streaming.ApplyBatch(batches[b]);
    streaming.Refresh();
    watchdog.Beat();
    char label[32];
    std::snprintf(label, sizeof(label), "batch %zu", b + 1);
    PrintRefresh(label, streaming);
  }

  const std::string prefix = StringFlag(argc, argv, "out_prefix", "");
  if (!prefix.empty()) {
    const IsvdResult& result = streaming.result();
    bool ok = true;
    if (options.isvd.target == DecompositionTarget::kA) {
      ok &= SaveIntervalMatrixCsv(prefix + "_u.csv", result.u);
      ok &= SaveIntervalMatrixCsv(prefix + "_v.csv", result.v);
    } else {
      ok &= SaveMatrixCsv(prefix + "_u.csv", result.ScalarU());
      ok &= SaveMatrixCsv(prefix + "_v.csv", result.ScalarV());
    }
    IntervalMatrix sigma(result.rank(), result.rank());
    for (size_t j = 0; j < result.rank(); ++j) sigma.Set(j, j, result.sigma[j]);
    ok &= SaveIntervalMatrixCsv(prefix + "_sigma.csv", sigma);
    if (!ok) {
      obs::LogError("stream_cli", "failed writing factor outputs",
                    {{"prefix", prefix}});
      return 1;
    }
    std::printf("wrote %s_{u,sigma,v}.csv\n", prefix.c_str());
  }
  exporter.Stop();
  return obs::WriteObsOutputs(obs_options) ? 0 : 1;
}
