// The measured phases the three workloads are assembled from:
//
//   RunIsvdPhase     RunIsvd for strategies 0-4, round-robin, with result
//                    checks; the isvdN_s metrics.
//   MeasureKernels   the ShardedSparseIntervalMatrix::View kernels on one
//                    matrix (traced runs only).
//   RunServePhase    an open-loop read client (and optionally a steady
//                    Submit stream) against a live ServingEngine; the read
//                    latency, read rate and update-visibility metrics.
//
// Every call into the library is wrapped in an obs::TraceSpan (see
// ledger.h) when tracing is on; nothing here reaches inside the library.

#ifndef IVBENCH_PHASES_H_
#define IVBENCH_PHASES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "serve/serving_engine.h"
#include "sparse/sparse_interval_matrix.h"
#include "ledger.h"

namespace ivbench {

// Decomposition rank of every ISVD call (the ivmf_decompose and ivmf_serve
// default).
inline constexpr size_t kRank = 10;
// The serving engine's strategy (the ivmf_serve default, ISVD2).
inline constexpr int kServeStrategy = 2;
// The serving load: two open-loop client threads, zipfian users (θ 0.99),
// 95% Predict and 5% TopK(10, exclude rated); with writes, a Submit stream
// of 500 batches/s, each 4 random cells plus one probe cell.
inline constexpr size_t kClients = 2;
// Offered reads per second over the kClients open-loop threads, far below
// the measured capacity so no backlog builds.
inline constexpr double kReadRate = 20000.0;
inline constexpr double kZipfTheta = 0.99;
inline constexpr double kTopkFraction = 0.05;
inline constexpr size_t kTopK = 10;
inline constexpr double kBatchRate = 500.0;
inline constexpr size_t kBatchCells = 4;

// -- Inputs -------------------------------------------------------------------

// A synthetic collaborative-filtering interval matrix from src/data: the
// latent-factor ratings generator, then the X ± alpha·std(S_ij) intervals.
ivmf::SparseIntervalMatrix GenerateCfMatrix(size_t users, size_t items,
                                            double fill, double alpha,
                                            uint64_t seed);

// A deep copy that shares none of the source's lazily built kernel
// sidecars, so work done on it is never pre-paid by an earlier call.
ivmf::SparseIntervalMatrix FreshCopy(const ivmf::SparseIntervalMatrix& m);

// Bytes of the CSR arrays plus the packed column sidecar the vector kernels
// build.
double StoreBytes(const ivmf::SparseIntervalMatrix& m);

// Records shape, nnz, row-length statistics, the resolved kernel backend
// and store size (next to the L3 size) as inputs, and the sparse.row_nnz_*
// and sparse.store_mb layer metrics.
void RecordMatrixInputs(const ivmf::SparseIntervalMatrix& m,
                        Report& report);

// -- RunIsvd over strategies 0-4 ------------------------------------------------

// Values pinned for one strategy on the default seed.
struct PinnedIsvd {
  double sigma1_lo, sigma1_hi, sigma2_lo, sigma2_hi, theta_hm;
};

struct IsvdPhaseConfig {
  const char* phase = "isvd";
  double seconds = 5.0;   // rounds continue until this much time passed
  size_t min_rounds = 3;  // ... and at least this many (untraced) rounds
  bool trace = false;     // alternate untraced and traced rounds
  uint64_t seed = 1;      // picks the rows of the sampled Θ_HM
  const PinnedIsvd* pinned = nullptr;  // 5 entries, or none
  bool print_pins = false;             // print this run's values to pin
  // Runs after every round, outside its timing and spans (ingest_decompose
  // serves reads there, so its read probe is spread over the run).
  std::function<void()> after_round;
};

// Runs the phase on `m` and records isvdN_s (median of untraced rounds)
// and, when tracing, the per-strategy core/sparse/linalg layer metrics.
// Returns the traced/untraced time ratio minus one (0 when untraced).
double RunIsvdPhase(const std::shared_ptr<const ivmf::SparseIntervalMatrix>& m,
                    const IsvdPhaseConfig& config, Report& report);

// -- Kernels -------------------------------------------------------------------

// Times Multiply, MultiplyMid, MultiplyTranspose and GramMultiply of a
// zero-copy sharded view of `m` and records sparse.<kernel>_ms and
// sparse.<kernel>_gbps_computed (bytes from a per-kernel traffic model:
// computed, not measured).
void MeasureKernels(const std::shared_ptr<const ivmf::SparseIntervalMatrix>& m,
                    Report& report);

// -- Serving -------------------------------------------------------------------

// Watches every publication of one engine (install Hook() as its
// on_publish): checks that epochs strictly increase, marks submitted
// batches visible once the published matrix holds their probe cell, checks
// cells_applied() against the batches seen, and records per-refresh
// figures from the exported serving/streaming histograms and counters.
class PublishMonitor {
 public:
  struct Publish {
    Clock::time_point time;
    uint64_t epoch = 0;
    double refresh_s = 0.0;    // serving.refresh.seconds delta
    double snapshot_s = 0.0;   // streaming.refresh.snapshot.seconds delta
    double cells = 0.0;        // serving.batch.cells delta
    double iterations = 0.0;   // lanczos.{eig,svd}.iterations delta
    double warm = 0.0;         // streaming.refresh.count{mode=warm} delta
    double cold = 0.0;
  };

  PublishMonitor();
  PublishMonitor(const PublishMonitor&) = delete;
  PublishMonitor& operator=(const PublishMonitor&) = delete;

  std::function<void(const std::shared_ptr<const ivmf::ServingSnapshot>&)>
  Hook();
  // Gives the monitor the engine once constructed (for cells_applied()).
  void Attach(const ivmf::ServingEngine* engine) { engine_.store(engine); }

  // Registers a batch just before it is submitted; `probe` is a cell no
  // other batch writes, carrying `value`.
  void BatchSubmitted(Clock::time_point time, size_t probe_row,
                      size_t probe_col, ivmf::Interval value, size_t cells);
  uint64_t next_batch_id() const { return batch_ids_; }

  // Results; read after the writer stopped.
  std::vector<Publish> publishes() const;
  std::vector<double> visible_ms() const;
  size_t outstanding() const;
  size_t cells_submitted() const;
  // Check failures seen so far, with messages.
  std::vector<std::string> failures() const;

 private:
  void OnPublish(const std::shared_ptr<const ivmf::ServingSnapshot>& s);

  struct Pending {
    Clock::time_point time;
    size_t row, col;
    ivmf::Interval value;
    size_t cells;
  };

  std::atomic<const ivmf::ServingEngine*> engine_{nullptr};
  uint64_t batch_ids_ = 0;  // submitter thread only

  mutable std::mutex mu_;  // guards everything below
  std::deque<Pending> pending_;
  std::vector<Publish> publishes_;
  std::vector<double> visible_ms_;
  std::vector<std::string> failures_;
  size_t cells_submitted_ = 0;
  size_t cells_visible_ = 0;
  size_t cells_visible_before_ = 0;  // as of the previous publication
  uint64_t last_epoch_ = 0;
  Publish totals_;  // running totals behind the per-publication deltas
};

struct ServePhaseConfig {
  const char* phase = "serve";
  double seconds = 5.0;
  bool writes = false;  // run the writer and the Submit stream
  uint64_t seed = 1;
  bool trace = false;
};

// Per-op samples of one serve phase. *_us latencies run from each op's due
// time; *_op_us from its issue.
struct ServePhaseResult {
  std::vector<double> predict_us, topk_us;
  std::vector<Clock::time_point> predict_due, topk_due;
  // The same latencies split by whether a refresh was running when the op
  // was due (refresh windows come from the publications).
  std::vector<double> predict_refreshing_us, predict_idle_us;
  std::vector<double> topk_refreshing_us, topk_idle_us;
  std::vector<double> lateness_us;
  // The op's own time, from issue to completion (Acquire + query).
  std::vector<double> predict_op_us, topk_op_us;
  // Traced phases only: Acquire and the query timed apart.
  std::vector<double> acquire_ns, predict_self_ns, topk_self_us;
  size_t reads = 0;
  // Reads whose result failed its check: a non-finite Predict, or a TopK
  // short of min(k, unrated items) or with a non-finite score.
  size_t predict_failed = 0, topk_failed = 0;
  size_t epoch_regressions = 0;
  Clock::time_point start;  // the first op's due time
  double seconds = 0.0;     // the configured phase length
  double window_s = 0.0;    // first due time to last completion
  size_t batches = 0;
  double checksum = 0.0;
};

// The last value submitted for every cell, for the final-epoch check.
using CellLog = std::unordered_map<uint64_t, ivmf::Interval>;

// Runs one phase. With writes, the engine's writer runs for the phase
// (started and stopped here) and a submitter thread streams batches. With
// `config.trace`, the client and submitter threads record their spans.
ServePhaseResult RunServePhase(ivmf::ServingEngine& engine,
                               PublishMonitor& monitor,
                               const ServePhaseConfig& config,
                               CellLog& cell_log, Report& report);

// Checks, on the engine's final epoch, that Observed returns each logged
// cell's last-written value and that TopK matches a brute-force ranking
// over Predict for sampled users.
void CheckFinalEpoch(const ivmf::ServingEngine& engine,
                     const CellLog& cell_log, uint64_t seed,
                     const char* phase, Report& report);

// Records the serving metrics: the e2e read latency and read rate over
// `e2e_reads`, update visibility and (traced) refresh figures from
// `monitor`, and the traced per-op split metrics over `all_reads`.
void RecordServeMetrics(const std::vector<const ServePhaseResult*>& e2e_reads,
                        const std::vector<const ServePhaseResult*>& all_reads,
                        const PublishMonitor& monitor, bool trace,
                        Report& report);

}  // namespace ivbench

#endif  // IVBENCH_PHASES_H_
