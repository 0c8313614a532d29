// ivmf_serve — concurrent serving loop over a streaming interval SVD.
//
// Loads a rating matrix (triplet file, or a synthetic CF workload when no
// --input is given), runs the initial decomposition, and serves it: a
// ServingEngine publishes an immutable snapshot per refresh while reader
// threads issue a YCSB-style mix of point predictions, top-k ranking scans,
// and rating updates against zipfian-popular users. Prints per-op latency
// percentiles and throughput, then a few sample queries from the final
// epoch so the served values are visible.
//
// Observability: a monitor thread prints a stats line every --stats_ms
// (epoch, ops so far, queue depth, matvecs; 0 disables), --metrics-json
// dumps the full registry snapshot (counters, gauges, p50/p95/p99
// histograms) to a file, and --trace records spans (refreshes, solves,
// serving steps) to a Chrome trace_event file loadable in chrome://tracing.
// --http_port=N additionally serves /metrics, /metrics.json, /tracez,
// /logz, and /healthz live while the workload runs (port 0 = ephemeral,
// printed at startup); /healthz is backed by a watchdog that beats on every
// snapshot publication and reports stalled when cells are queued but
// nothing published for --stall_seconds.
//
// Usage:
//   ivmf_serve [--input=BASE.trp] [--rank=10] [--strategy=2]
//              [--readers=4] [--duration_ms=2000] [--read_pct=90]
//              [--topk_pct=5] [--topk=10] [--theta_pct=99] [--uniform]
//              [--seed=1234] [--probe_user=0] [--stats_ms=1000]
//              [--metrics-json=PATH] [--trace=PATH]
//              [--http_port=N] [--stall_seconds=S]
//   or synthetic: --users=N --items=M [--fill_pct=F] [--alpha_pct=A]

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/flags.h"
#include "data/ratings.h"
#include "io/triplets.h"
#include "obs/export_flags.h"
#include "obs/http_exporter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "serve/serving_engine.h"
#include "serve/workload.h"

namespace {

// Periodic one-line progress report, printed from its own thread while the
// workload runs. Wakes on a condition variable so shutdown is immediate.
class StatsMonitor {
 public:
  StatsMonitor(const ivmf::ServingEngine& engine, int interval_ms)
      : engine_(engine), interval_ms_(interval_ms) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { Loop(); });
  }

  ~StatsMonitor() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      const ivmf::obs::MetricsSnapshot snapshot =
          ivmf::obs::MetricsRegistry::Global().Snapshot();
      std::printf(
          "[stats] epoch %llu | ops %llu | pending %zu cells | "
          "refreshes %llu warm / %llu cold | matvecs %llu\n",
          static_cast<unsigned long long>(engine_.epoch()),
          static_cast<unsigned long long>(snapshot.CounterSum("serve.ops")),
          engine_.pending_cells(),
          static_cast<unsigned long long>(
              snapshot.CounterValue("streaming.refresh.count{mode=warm}")),
          static_cast<unsigned long long>(
              snapshot.CounterValue("streaming.refresh.count{mode=cold}")),
          static_cast<unsigned long long>(
              snapshot.CounterSum("sparse.sharded.matvec.calls")));
      std::fflush(stdout);
    }
  }

  const ivmf::ServingEngine& engine_;
  const int interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ivmf;

  const int strategy = IntFlag(argc, argv, "strategy", 2);
  if (strategy < 0 || strategy > 4) {
    obs::LogError("serve_cli", "--strategy must be 0..4",
                  {{"strategy", strategy}});
    return 2;
  }
  const size_t rank = static_cast<size_t>(IntFlag(argc, argv, "rank", 10));
  const obs::ObsCliOptions obs_options = obs::ParseObsCliOptions(argc, argv);
  const int stats_ms = IntFlag(argc, argv, "stats_ms", 1000);

  obs::StartObsCollection(obs_options);

  SparseIntervalMatrix base;
  const std::string input = StringFlag(argc, argv, "input", "");
  if (!input.empty()) {
    std::string error;
    std::optional<SparseIntervalMatrix> loaded =
        LoadSparseIntervalTriplets(input, DuplicatePolicy::kReject, &error);
    if (!loaded) {
      obs::LogError("serve_cli", "cannot parse base triplets",
                    {{"path", input}, {"error", error}});
      return 1;
    }
    base = std::move(*loaded);
  } else {
    RatingsConfig config;
    config.num_users =
        static_cast<size_t>(IntFlag(argc, argv, "users", 5000));
    config.num_items =
        static_cast<size_t>(IntFlag(argc, argv, "items", 1000));
    config.fill = IntFlag(argc, argv, "fill_pct", 5) / 100.0;
    config.seed = static_cast<uint64_t>(IntFlag(argc, argv, "gen_seed", 404));
    const double alpha = IntFlag(argc, argv, "alpha_pct", 30) / 100.0;
    base = SparseCfIntervalMatrix(GenerateSparseRatings(config), alpha);
  }
  if (base.rows() == 0 || base.cols() == 0) {
    obs::LogError("serve_cli", "base matrix is empty");
    return 1;
  }

  ServingWorkloadOptions workload;
  workload.readers = static_cast<size_t>(IntFlag(argc, argv, "readers", 4));
  workload.duration_seconds =
      IntFlag(argc, argv, "duration_ms", 2000) / 1000.0;
  workload.read_fraction = IntFlag(argc, argv, "read_pct", 90) / 100.0;
  workload.topk_fraction = IntFlag(argc, argv, "topk_pct", 5) / 100.0;
  workload.top_k = static_cast<size_t>(IntFlag(argc, argv, "topk", 10));
  workload.zipf_theta = IntFlag(argc, argv, "theta_pct", 99) / 100.0;
  workload.user_distribution = BoolFlag(argc, argv, "uniform")
                                   ? KeyDistribution::kUniform
                                   : KeyDistribution::kZipfian;
  workload.seed = static_cast<uint64_t>(IntFlag(argc, argv, "seed", 1234));

  std::printf("serving %zu x %zu sparse interval matrix, %zu nnz, ISVD%d "
              "rank %zu\n",
              base.rows(), base.cols(), base.nnz(), strategy, rank);

  // The watchdog watches refresh progress: the engine beats on every
  // snapshot publication, and "stalled" requires cells actually queued
  // (an idle engine with a stale heartbeat is healthy). The engine pointer
  // is filled in after construction; on_publish only fires from the engine
  // itself, so the beat never races the assignment.
  ServingEngine* engine_ptr = nullptr;
  obs::WatchdogOptions watchdog_options;
  watchdog_options.stall_seconds = obs_options.stall_seconds;
  watchdog_options.busy = [&engine_ptr] {
    return engine_ptr != nullptr && engine_ptr->pending_cells() > 0;
  };
  obs::Watchdog watchdog(watchdog_options);

  ServingEngineOptions engine_options;
  engine_options.on_publish =
      [&watchdog](const std::shared_ptr<const ServingSnapshot>&) {
        watchdog.Beat();
      };
  ServingEngine engine(strategy, rank, std::move(base),
                       std::move(engine_options));
  engine_ptr = &engine;

  obs::HttpExporter exporter([&] {
    obs::HttpExporterOptions http;
    http.port = static_cast<uint16_t>(obs_options.http_port);
    http.watchdog = &watchdog;
    return http;
  }());
  if (obs_options.http_requested) {
    if (!exporter.Start()) return 1;
    std::printf("introspection: http://127.0.0.1:%u/ (metrics, tracez, "
                "logz, healthz)\n",
                static_cast<unsigned>(exporter.port()));
  }

  std::printf("epoch %llu published (initial decomposition); running %zu "
              "readers for %.1fs...\n",
              static_cast<unsigned long long>(engine.epoch()),
              workload.readers, workload.duration_seconds);

  ServingWorkloadReport report;
  {
    StatsMonitor monitor(engine, stats_ms);
    report = RunServingWorkload(engine, workload);
  }

  const auto print_op = [&](const char* op, size_t ops,
                            const obs::Histogram& lat) {
    if (ops == 0) return;
    std::printf("  %-8s %9zu ops  %8.0f ops/s  p50 %7.1fus  p95 %7.1fus  "
                "p99 %7.1fus\n",
                op, ops, static_cast<double>(ops) / report.seconds,
                lat.Percentile(50) * 1e6, lat.Percentile(95) * 1e6,
                lat.Percentile(99) * 1e6);
  };
  print_op("predict", report.predict_ops, report.predict_latency);
  print_op("topk", report.topk_ops, report.topk_latency);
  print_op("update", report.update_ops, report.update_latency);
  std::printf("total %zu ops, %.0f ops/s; epochs %llu -> %llu "
              "(%llu published), %zu regressions\n",
              report.total_ops(), report.throughput(),
              static_cast<unsigned long long>(report.first_epoch),
              static_cast<unsigned long long>(report.last_epoch),
              static_cast<unsigned long long>(report.snapshots_published),
              report.epoch_regressions);
  if (report.epoch_regressions != 0) {
    obs::LogError("serve_cli", "readers observed non-monotonic epochs",
                  {{"regressions", report.epoch_regressions}});
    return 1;
  }

  // Sample queries from the final epoch.
  const std::shared_ptr<const ServingSnapshot> snapshot = engine.Acquire();
  const size_t probe_user = static_cast<size_t>(
      IntFlag(argc, argv, "probe_user", 0));
  if (probe_user < snapshot->users()) {
    std::printf("\nepoch %llu, user %zu, top-%zu unrated items "
                "(midpoint-ranked):\n",
                static_cast<unsigned long long>(snapshot->epoch()),
                probe_user, workload.top_k);
    for (const ServingSnapshot::ScoredItem& s : snapshot->TopK(
             probe_user, workload.top_k, /*exclude_observed=*/true)) {
      std::printf("  item %6zu  predicted [%.4f, %.4f]\n", s.item,
                  s.score.lo, s.score.hi);
    }
  }

  exporter.Stop();
  return obs::WriteObsOutputs(obs_options) ? 0 : 1;
}
