#include "phases.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include <sys/prctl.h>

#include "base/rng.h"
#include "core/accuracy.h"
#include "core/sparse_isvd.h"
#include "data/ratings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serving_snapshot.h"
#include "serve/workload.h"
#include "sparse/block_matrix.h"

namespace ivbench {

using ivmf::Interval;
using ivmf::IsvdResult;
using ivmf::ServingEngine;
using ivmf::ServingSnapshot;
using ivmf::SparseIntervalMatrix;
using ivmf::obs::TraceSpan;

namespace {

const char* const kStrategyNames[5] = {"isvd0", "isvd1", "isvd2", "isvd3",
                                       "isvd4"};

// The PhaseTimings fields each strategy fills (the others stay zero).
struct PhaseField {
  const char* name;
  double ivmf::PhaseTimings::*field;
};
const std::vector<PhaseField>& StrategyPhases(int strategy) {
  using T = ivmf::PhaseTimings;
  static const std::vector<PhaseField> kPhases[5] = {
      {{"decompose", &T::decompose}},
      {{"decompose", &T::decompose}, {"align", &T::align}},
      {{"preprocess", &T::preprocess}, {"decompose", &T::decompose},
       {"solve", &T::solve}, {"align", &T::align}},
      {{"preprocess", &T::preprocess}, {"decompose", &T::decompose},
       {"align", &T::align}, {"solve", &T::solve}},
      {{"preprocess", &T::preprocess}, {"decompose", &T::decompose},
       {"align", &T::align}, {"solve", &T::solve},
       {"recompute", &T::recompute}}};
  return kPhases[strategy];
}

// Span names per strategy (spans need string literals).
const char* const kIsvdSpans[5] = {"core.run_isvd0", "core.run_isvd1",
                                   "core.run_isvd2", "core.run_isvd3",
                                   "core.run_isvd4"};

// Lets a thread's sleeps end within microseconds of their deadline (the
// default 50 us timer slack would dominate sub-microsecond reads).
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// Sleeps until `spin_margin` before `due`, then spins to it.
void WaitUntil(Clock::time_point due, std::chrono::nanoseconds spin_margin) {
  Clock::time_point now = Clock::now();
  if (due - now > spin_margin) {
    std::this_thread::sleep_until(due - spin_margin);
  }
  while (Clock::now() < due) {
  }
}

uint64_t CellKey(size_t row, size_t col) {
  return (static_cast<uint64_t>(row) << 32) | static_cast<uint64_t>(col);
}

bool AllFinite(const ivmf::Matrix& m) {
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) return false;
    }
  }
  return true;
}

// Returns "" when the result has the requested rank and finite factors and
// σ₁ leads; otherwise the reason. With `sorted`, σ must be non-increasing
// throughout (by midpoint): a plain SVD (ISVD0) guarantees that, while the
// aligned interval σ of ISVD1-4 can swap neighbours past σ₁ (seen on
// ingest_decompose seed 102, ISVD2, index 8).
std::string CheckResult(const IsvdResult& r, const SparseIntervalMatrix& m,
                        size_t rank, bool sorted) {
  if (r.rank() != rank) {
    return "rank " + std::to_string(r.rank()) + " != " + std::to_string(rank);
  }
  if (r.u.rows() != m.rows() || r.v.rows() != m.cols() ||
      r.u.cols() != rank || r.v.cols() != rank) {
    return "factor shapes do not match the matrix";
  }
  if (!AllFinite(r.u.lower()) || !AllFinite(r.u.upper()) ||
      !AllFinite(r.v.lower()) || !AllFinite(r.v.upper())) {
    return "non-finite factor entry";
  }
  const double tol = 1e-9 * std::fabs(r.sigma[0].Mid());
  for (size_t k = 0; k < r.sigma.size(); ++k) {
    if (!std::isfinite(r.sigma[k].lo) || !std::isfinite(r.sigma[k].hi)) {
      return "non-finite sigma";
    }
    const double previous = sorted ? r.sigma[k > 0 ? k - 1 : 0].Mid()
                                   : r.sigma[0].Mid();
    if (r.sigma[k].Mid() > previous + tol) {
      std::string values;
      for (const Interval& s : r.sigma) {
        values += " [" + std::to_string(s.lo) + "," + std::to_string(s.hi) +
                  "]";
      }
      return "sigma out of order at index " + std::to_string(k) + ":" +
             values;
    }
  }
  return "";
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b)) + 1e-12;
}

// Θ_HM (paper Definition 5) restricted to `rows`: the reconstruction is read
// cell by cell through ServingSnapshot::Predict, absent cells are [0, 0].
double SampledThetaHm(const ServingSnapshot& snapshot,
                      const std::vector<size_t>& rows) {
  const SparseIntervalMatrix& m = snapshot.matrix();
  double err_lo = 0.0, err_hi = 0.0, norm_lo = 0.0, norm_hi = 0.0;
  for (size_t i : rows) {
    size_t k = m.row_ptr()[i];
    const size_t end = m.row_ptr()[i + 1];
    for (size_t j = 0; j < m.cols(); ++j) {
      double lo = 0.0, hi = 0.0;
      if (k < end && m.col_idx()[k] == j) {
        lo = m.lower_values()[k];
        hi = m.upper_values()[k];
        ++k;
      }
      const Interval p = snapshot.Predict(i, j);
      err_lo += (lo - p.lo) * (lo - p.lo);
      err_hi += (hi - p.hi) * (hi - p.hi);
      norm_lo += lo * lo;
      norm_hi += hi * hi;
    }
  }
  const double theta_min =
      std::max(0.0, 1.0 - std::sqrt(err_lo) / std::sqrt(norm_lo));
  const double theta_max =
      std::max(0.0, 1.0 - std::sqrt(err_hi) / std::sqrt(norm_hi));
  return ivmf::HarmonicMean(theta_min, theta_max);
}

// Solver counters summed over their monolithic and sharded families.
struct SolverCounts {
  double matvecs = 0, matvec_nnz = 0, iterations = 0, restarts = 0;

  static SolverCounts Now() {
    const ivmf::obs::MetricsSnapshot s =
        ivmf::obs::MetricsRegistry::Global().Snapshot();
    SolverCounts c;
    c.matvecs = static_cast<double>(s.CounterSum("sparse.matvec.calls") +
                                    s.CounterSum("sparse.sharded.matvec.calls"));
    c.matvec_nnz = static_cast<double>(s.CounterSum("sparse.matvec.nnz") +
                                       s.CounterSum("sparse.sharded.matvec.nnz"));
    c.iterations = static_cast<double>(s.CounterSum("lanczos.eig.iterations") +
                                       s.CounterSum("lanczos.svd.iterations"));
    c.restarts = static_cast<double>(s.CounterSum("lanczos.eig.restarts") +
                                     s.CounterSum("lanczos.svd.restarts"));
    return c;
  }
};

}  // namespace

// -- Inputs -------------------------------------------------------------------

SparseIntervalMatrix GenerateCfMatrix(size_t users, size_t items, double fill,
                                      double alpha, uint64_t seed) {
  ivmf::RatingsConfig config;
  config.num_users = users;
  config.num_items = items;
  config.fill = fill;
  config.seed = seed;
  return ivmf::SparseCfIntervalMatrix(ivmf::GenerateSparseRatings(config),
                                      alpha);
}

SparseIntervalMatrix FreshCopy(const SparseIntervalMatrix& m) {
  return SparseIntervalMatrix::FromCsr(m.rows(), m.cols(), m.row_ptr(),
                                       m.col_idx(), m.lower_values(),
                                       m.upper_values());
}

double StoreBytes(const SparseIntervalMatrix& m) {
  const double index_bytes = m.cols() <= 65536 ? 2.0 : 4.0;
  return 8.0 * static_cast<double>(m.row_ptr().size()) +
         (8.0 + 8.0 + 8.0 + index_bytes) * static_cast<double>(m.nnz());
}

void RecordMatrixInputs(const SparseIntervalMatrix& m, Report& report) {
  std::vector<double> row_nnz(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    row_nnz[i] = static_cast<double>(m.row_ptr()[i + 1] - m.row_ptr()[i]);
  }
  const double mean = Mean(row_nnz);
  const double cv = CoefficientOfVariation(row_nnz);
  const double store_mb = StoreBytes(m) / (1024.0 * 1024.0);
  report.Input("rows", std::to_string(m.rows()));
  report.Input("cols", std::to_string(m.cols()));
  report.Input("nnz", std::to_string(m.nnz()));
  report.Input("fill", JsonNumber(m.FillFraction()));
  report.Input("row_nnz_mean", JsonNumber(mean));
  report.Input("row_nnz_cv", JsonNumber(cv));
  report.Input("kernel_backend",
               JsonString(ivmf::spk::BackendName(m.ResolvedKernel())));
  report.Input("store_mb", JsonNumber(store_mb));
  report.Input("l3_mb",
               JsonNumber(static_cast<double>(L3CacheBytes()) / (1 << 20)));
  report.Layer("sparse.row_nnz_mean", mean, "count");
  report.Layer("sparse.row_nnz_cv", cv, "ratio");
  report.Layer("sparse.store_mb", store_mb, "MB");
}

// -- RunIsvd over strategies 0-4 ------------------------------------------------

double RunIsvdPhase(const std::shared_ptr<const SparseIntervalMatrix>& m,
                    const IsvdPhaseConfig& config, Report& report) {
  ivmf::IsvdOptions options;  // the ivmf_decompose triplet-input defaults
  options.target = ivmf::DecompositionTarget::kB;
  options.eig_solver = ivmf::EigSolver::kLanczos;
  options.gram_side = ivmf::GramSide::kAuto;

  // Rows of the sampled Θ_HM, fixed by the seed.
  std::vector<size_t> theta_rows;
  {
    ivmf::Rng rng(config.seed ^ 0x7e7a5eedULL);
    for (int i = 0; i < 32; ++i) {
      theta_rows.push_back(static_cast<size_t>(rng.UniformIndex(m->rows())));
    }
  }

  struct PerStrategy {
    std::vector<double> untraced_s, traced_s, cpu_util;
    std::vector<std::vector<double>> phase_s;
    std::vector<Interval> first_sigma;
    double theta_hm = 0.0;
    SolverCounts counts;
    bool counted = false;
  };
  PerStrategy per[5];
  for (int s = 0; s < 5; ++s) per[s].phase_s.resize(StrategyPhases(s).size());

  TraceSpan phase_span("harness.isvd_phase");
  const Clock::time_point start = Clock::now();
  size_t untraced_rounds = 0, traced_rounds = 0;
  for (size_t round = 0;; ++round) {
    if (round > 0 && config.after_round) config.after_round();
    const bool traced = config.trace && round % 2 == 1;
    const bool enough_time =
        SecondsBetween(start, Clock::now()) >= config.seconds;
    const bool enough_rounds =
        untraced_rounds >= config.min_rounds &&
        (!config.trace || traced_rounds >= config.min_rounds);
    if (enough_time && enough_rounds) break;
    // In traced runs the untraced rounds are the overhead reference (the
    // library's own spans stay on in both).
    MaybeSpan round_span(config.trace && !traced,
                         "harness.untraced_reference");
    for (int s = 0; s < 5; ++s) {
      PerStrategy& p = per[s];
      SolverCounts before;
      if (traced && !p.counted) {
        TraceSpan counters("harness.read_counters");
        before = SolverCounts::Now();
      }
      const double cpu_before = traced ? ProcessCpuSeconds() : 0.0;
      IsvdResult result;
      const Clock::time_point t0 = Clock::now();
      {
        MaybeSpan span(traced, kIsvdSpans[s]);
        result = ivmf::RunIsvd(s, *m, kRank, options);
      }
      const Clock::time_point t1 = Clock::now();
      const double wall = SecondsBetween(t0, t1);
      if (traced) {
        p.traced_s.push_back(wall);
        p.cpu_util.push_back((ProcessCpuSeconds() - cpu_before) / wall);
        const std::vector<PhaseField>& fields = StrategyPhases(s);
        for (size_t f = 0; f < fields.size(); ++f) {
          p.phase_s[f].push_back(result.timings.*(fields[f].field));
        }
        if (!p.counted) {
          TraceSpan counters("harness.read_counters");
          const SolverCounts after = SolverCounts::Now();
          p.counts = {after.matvecs - before.matvecs,
                      after.matvec_nnz - before.matvec_nnz,
                      after.iterations - before.iterations,
                      after.restarts - before.restarts};
          p.counted = true;
        }
      } else {
        p.untraced_s.push_back(wall);
      }

      // Checks (untimed).
      MaybeSpan check_span(traced, "harness.check");
      std::string error = CheckResult(result, *m, kRank, s == 0);
      if (error.empty() && p.first_sigma.empty()) {
        p.first_sigma = result.sigma;
        const ServingSnapshot snapshot(1, result, m);
        p.theta_hm = SampledThetaHm(snapshot, theta_rows);
        if (config.print_pins) {
          std::fprintf(stderr,
                       "pin %s: {%.17g, %.17g, %.17g, %.17g, %.17g},\n",
                       kStrategyNames[s], result.sigma[0].lo,
                       result.sigma[0].hi, result.sigma[1].lo,
                       result.sigma[1].hi, p.theta_hm);
        }
        if (config.pinned != nullptr) {
          const PinnedIsvd& pin = config.pinned[s];
          if (!Near(result.sigma[0].lo, pin.sigma1_lo, 1e-6) ||
              !Near(result.sigma[0].hi, pin.sigma1_hi, 1e-6) ||
              !Near(result.sigma[1].lo, pin.sigma2_lo, 1e-6) ||
              !Near(result.sigma[1].hi, pin.sigma2_hi, 1e-6)) {
            error = "sigma_1/sigma_2 differ from the pinned values";
          } else if (std::fabs(p.theta_hm - pin.theta_hm) > 1e-6) {
            error = "sampled theta_hm " + std::to_string(p.theta_hm) +
                    " differs from the pinned " +
                    std::to_string(pin.theta_hm);
          }
        }
      } else if (error.empty()) {
        // Repeated calls on one matrix must agree (fixed-order kernels).
        for (size_t k = 0; k < kRank && error.empty(); ++k) {
          if (!Near(result.sigma[k].lo, p.first_sigma[k].lo, 1e-9) ||
              !Near(result.sigma[k].hi, p.first_sigma[k].hi, 1e-9)) {
            error = "sigma differs between repeated calls";
          }
        }
      }
      if (!error.empty()) {
        report.FailMessage(std::string(config.phase) + " " +
                           kStrategyNames[s] + ": " + error);
      }
      report.Op(config.phase, std::string("run_") + kStrategyNames[s],
                error.empty());
    }
    (traced ? traced_rounds : untraced_rounds) += 1;
  }

  double traced_sum = 0.0, untraced_sum = 0.0;
  std::string solver_counts;
  for (int s = 0; s < 5; ++s) {
    const PerStrategy& p = per[s];
    const std::string name = kStrategyNames[s];
    report.E2e(name + "_s", Median(p.untraced_s), "s", p.untraced_s.size());
    report.Samples(name + "_s", p.untraced_s);
    if (!config.trace) continue;
    traced_sum += Median(p.traced_s);
    untraced_sum += Median(p.untraced_s);
    const std::vector<PhaseField>& fields = StrategyPhases(s);
    for (size_t f = 0; f < fields.size(); ++f) {
      report.Layer("core." + name + "." + fields[f].name + "_s",
                   Median(p.phase_s[f]), "s");
    }
    report.Layer("core." + name + ".cpu_util", Median(p.cpu_util), "ratio");
    report.Layer("core." + name + ".theta_hm", p.theta_hm, "ratio");
    report.Layer("sparse.matvecs." + name, p.counts.matvecs, "count");
    report.Layer("sparse.matvec_nnz." + name, p.counts.matvec_nnz, "count");
    report.Layer("lanczos.iterations." + name, p.counts.iterations, "count");
    solver_counts += std::string(s == 0 ? "" : ", ") + JsonString(name) +
                     ": {\"matvecs\": " + JsonNumber(p.counts.matvecs) +
                     ", \"matvec_nnz\": " + JsonNumber(p.counts.matvec_nnz) +
                     ", \"iterations\": " + JsonNumber(p.counts.iterations) +
                     ", \"restarts\": " + JsonNumber(p.counts.restarts) + "}";
  }
  if (config.trace) {
    report.Section(std::string("solver_counts_") + config.phase,
                   "{" + solver_counts + "}");
  }
  return config.trace && untraced_sum > 0.0 ? traced_sum / untraced_sum - 1.0
                                            : 0.0;
}

// -- Kernels -------------------------------------------------------------------

void MeasureKernels(const std::shared_ptr<const SparseIntervalMatrix>& m,
                    Report& report) {
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t shard_rows =
      std::max<size_t>(256, (m->rows() + 4 * threads - 1) / (4 * threads));
  std::unique_ptr<ivmf::ShardedSparseIntervalMatrix> view;
  {
    TraceSpan span("sparse.view");
    view = std::make_unique<ivmf::ShardedSparseIntervalMatrix>(
        ivmf::ShardedSparseIntervalMatrix::View(m, shard_rows));
  }
  report.Input("view_shard_rows", std::to_string(shard_rows));

  ivmf::Rng rng(0x6b65726eULL);
  std::vector<double> x_cols(m->cols()), x_rows(m->rows());
  for (double& v : x_cols) v = rng.Uniform(-1.0, 1.0);
  for (double& v : x_rows) v = rng.Uniform(-1.0, 1.0);
  std::vector<double> y;

  const double nnz = static_cast<double>(m->nnz());
  const double rows = static_cast<double>(m->rows());
  const double cols = static_cast<double>(m->cols());
  const double idx = m->cols() <= 65536 ? 2.0 : 4.0;
  using Endpoint = ivmf::ShardedSparseIntervalMatrix::Endpoint;

  struct Kernel {
    const char* name;
    const char* span;
    double bytes;  // per call, from the traffic model
    std::function<void()> call;
  };
  // Traffic model per call: index + endpoint values + one 8-byte vector
  // access per nonzero, row pointer and output per row, and the column
  // vectors a transpose or Gram scatter touches.
  const std::vector<Kernel> kernels = {
      {"multiply", "sparse.multiply", nnz * (idx + 8 + 8) + rows * 16,
       [&] { view->Multiply(Endpoint::kLower, x_cols, y); }},
      {"multiply_mid", "sparse.multiply_mid",
       nnz * (idx + 16 + 8) + rows * 16,
       [&] { view->MultiplyMid(x_cols, y); }},
      {"multiply_transpose", "sparse.multiply_transpose",
       nnz * (idx + 8 + 8) + rows * 16 + cols * 8,
       [&] { view->MultiplyTranspose(Endpoint::kLower, x_rows, y); }},
      {"gram", "sparse.gram", nnz * (idx + 8 + 8 + 8) + rows * 8 + cols * 16,
       [&] { view->GramMultiply(Endpoint::kLower, x_cols, y); }},
  };
  for (const Kernel& kernel : kernels) {
    kernel.call();  // warm the caches and lazy sidecars
    std::vector<double> ms;
    const Clock::time_point start = Clock::now();
    while (ms.size() < 5 || SecondsBetween(start, Clock::now()) < 0.15) {
      const Clock::time_point t0 = Clock::now();
      {
        TraceSpan span(kernel.span);
        kernel.call();
      }
      ms.push_back(1e3 * SecondsBetween(t0, Clock::now()));
    }
    const double median_ms = Median(ms);
    report.Layer(std::string("sparse.") + kernel.name + "_ms", median_ms,
                 "ms");
    report.Layer(std::string("sparse.") + kernel.name + "_gbps_computed",
                 kernel.bytes / (median_ms * 1e-3) / 1e9, "GB/s");
  }
}

// -- PublishMonitor ------------------------------------------------------------

PublishMonitor::PublishMonitor() = default;

std::function<void(const std::shared_ptr<const ServingSnapshot>&)>
PublishMonitor::Hook() {
  return [this](const std::shared_ptr<const ServingSnapshot>& snapshot) {
    OnPublish(snapshot);
  };
}

void PublishMonitor::OnPublish(
    const std::shared_ptr<const ServingSnapshot>& snapshot) {
  const Clock::time_point now = Clock::now();
  ivmf::obs::MetricsRegistry& registry = ivmf::obs::MetricsRegistry::Global();
  // The instruments the engine and streaming core already export.
  static ivmf::obs::Histogram& refresh =
      registry.GetHistogram("serving.refresh.seconds");
  static ivmf::obs::Histogram& snapshot_s =
      registry.GetHistogram("streaming.refresh.snapshot.seconds");
  static ivmf::obs::Histogram& batch_cells =
      registry.GetHistogram("serving.batch.cells");
  static ivmf::obs::Counter& eig_iterations =
      registry.GetCounter("lanczos.eig.iterations");
  static ivmf::obs::Counter& svd_iterations =
      registry.GetCounter("lanczos.svd.iterations");
  static ivmf::obs::Counter& warm =
      registry.GetCounter("streaming.refresh.count", {{"mode", "warm"}});
  static ivmf::obs::Counter& cold =
      registry.GetCounter("streaming.refresh.count", {{"mode", "cold"}});
  Publish totals;
  totals.refresh_s = refresh.total();
  totals.snapshot_s = snapshot_s.total();
  totals.cells = batch_cells.total();
  totals.iterations =
      static_cast<double>(eig_iterations.value() + svd_iterations.value());
  totals.warm = static_cast<double>(warm.value());
  totals.cold = static_cast<double>(cold.value());

  const ServingEngine* engine = engine_.load();
  std::lock_guard<std::mutex> lock(mu_);
  Publish p;
  p.time = now;
  p.epoch = snapshot->epoch();
  p.refresh_s = totals.refresh_s - totals_.refresh_s;
  p.snapshot_s = totals.snapshot_s - totals_.snapshot_s;
  p.cells = totals.cells - totals_.cells;
  p.iterations = totals.iterations - totals_.iterations;
  p.warm = totals.warm - totals_.warm;
  p.cold = totals.cold - totals_.cold;
  totals_ = totals;
  publishes_.push_back(p);

  if (snapshot->epoch() <= last_epoch_) {
    failures_.push_back("published epoch " + std::to_string(p.epoch) +
                        " after " + std::to_string(last_epoch_));
  }
  last_epoch_ = snapshot->epoch();
  // cells_applied() is bumped after on_publish returns, so here it must
  // cover every batch seen visible at an earlier publication.
  if (engine != nullptr && engine->cells_applied() < cells_visible_before_) {
    failures_.push_back("cells_applied " +
                        std::to_string(engine->cells_applied()) +
                        " below the " + std::to_string(cells_visible_before_) +
                        " cells already published");
  }
  cells_visible_before_ = cells_visible_;
  // Batches drain in submission order, so visibility is a prefix.
  while (!pending_.empty()) {
    const Pending& b = pending_.front();
    if (!(snapshot->Observed(b.row, b.col) == b.value)) break;
    visible_ms_.push_back(1e3 * SecondsBetween(b.time, now));
    cells_visible_ += b.cells;
    pending_.pop_front();
  }
}

void PublishMonitor::BatchSubmitted(Clock::time_point time, size_t probe_row,
                                    size_t probe_col, Interval value,
                                    size_t cells) {
  ++batch_ids_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({time, probe_row, probe_col, value, cells});
    cells_submitted_ += cells;
  }
}

std::vector<PublishMonitor::Publish> PublishMonitor::publishes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return publishes_;
}

std::vector<double> PublishMonitor::visible_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return visible_ms_;
}

size_t PublishMonitor::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

size_t PublishMonitor::cells_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_submitted_;
}

std::vector<std::string> PublishMonitor::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// -- Serve phase ---------------------------------------------------------------

namespace {

// What one client thread measured.
struct ClientOutcome {
  ServePhaseResult samples;
  Clock::time_point last_done;
};

void RunClient(const ServingEngine& engine, const ServePhaseConfig& config,
               size_t client, Clock::time_point t0, Clock::time_point t_end,
               ClientOutcome& out) {
  TightenTimerSlack();
  constexpr std::chrono::nanoseconds kSpinMargin(20000);
  const bool traced = config.trace;
  MaybeSpan root(traced, "thread.client");
  const std::shared_ptr<const ServingSnapshot> first = engine.Acquire();
  const size_t users = first->users();
  const size_t items = first->items();
  const uint64_t seed = config.seed * 0x9E3779B97F4A7C15ULL + client + 1;
  ivmf::Rng rng(seed);
  ivmf::ZipfianGenerator zipf(users, kZipfTheta, seed ^ 0x5A5AULL);
  const std::chrono::duration<double> period(static_cast<double>(kClients) /
                                             kReadRate);
  const std::chrono::duration<double> offset(static_cast<double>(client) /
                                             kReadRate);
  ServePhaseResult& r = out.samples;
  uint64_t last_epoch = 0;
  out.last_done = t0;

  for (size_t k = 0;; ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(offset + k * period);
    if (due >= t_end) break;
    double which;
    size_t user, item;
    {
      MaybeSpan span(traced, "gen.wait");
      WaitUntil(due, kSpinMargin);
      which = rng.Uniform();
      user = zipf.Next();
      item = static_cast<size_t>(rng.UniformIndex(items));
    }

    // The clock reads sit inside the spans, so the samples leave out the
    // cost of recording the spans themselves.
    Clock::time_point start, acquired, query_start, done;
    std::shared_ptr<const ServingSnapshot> snapshot;
    {
      MaybeSpan span(traced, "serve.acquire");
      start = Clock::now();
      snapshot = engine.Acquire();
      acquired = traced ? Clock::now() : start;
    }
    const bool topk = which < kTopkFraction;
    std::vector<ServingSnapshot::ScoredItem> top;
    Interval p;
    {
      MaybeSpan span(traced, topk ? "serve.topk" : "serve.predict");
      query_start = traced ? Clock::now() : acquired;
      if (topk) {
        top = snapshot->TopK(user, kTopK, /*exclude_observed=*/true);
      } else {
        p = snapshot->Predict(user, item);
      }
      done = Clock::now();
    }

    // Checks (untimed).
    if (snapshot->epoch() < last_epoch) ++r.epoch_regressions;
    last_epoch = snapshot->epoch();
    if (topk) {
      const std::vector<size_t>& row_ptr = snapshot->matrix().row_ptr();
      const size_t unrated = items - (row_ptr[user + 1] - row_ptr[user]);
      bool ok = top.size() == std::min(kTopK, unrated);
      for (const ServingSnapshot::ScoredItem& s : top) {
        ok = ok && std::isfinite(s.score.lo) && std::isfinite(s.score.hi);
      }
      if (!ok) ++r.topk_failed;
      if (!top.empty()) r.checksum += top.front().score.Mid();
    } else {
      if (!std::isfinite(p.lo) || !std::isfinite(p.hi)) ++r.predict_failed;
      r.checksum += p.lo + p.hi;
    }

    const double latency_us = 1e6 * SecondsBetween(due, done);
    r.lateness_us.push_back(1e6 * SecondsBetween(due, start));
    const double op_us = 1e6 * SecondsBetween(start, done);
    if (topk) {
      r.topk_us.push_back(latency_us);
      r.topk_op_us.push_back(op_us);
      r.topk_due.push_back(due);
    } else {
      r.predict_us.push_back(latency_us);
      r.predict_op_us.push_back(op_us);
      r.predict_due.push_back(due);
    }
    if (traced) {
      r.acquire_ns.push_back(1e9 * SecondsBetween(start, acquired));
      if (topk) {
        r.topk_self_us.push_back(1e6 * SecondsBetween(query_start, done));
      } else {
        r.predict_self_ns.push_back(1e9 * SecondsBetween(query_start, done));
      }
    }
    ++r.reads;
    out.last_done = done;
  }
}

void RunSubmitter(ServingEngine& engine, PublishMonitor& monitor,
                  const ServePhaseConfig& config, Clock::time_point t0,
                  Clock::time_point t_end, CellLog& cell_log,
                  ServePhaseResult& out) {
  TightenTimerSlack();
  const bool traced = config.trace;
  MaybeSpan root(traced, "thread.submitter");
  const std::shared_ptr<const ServingSnapshot> first = engine.Acquire();
  const size_t users = first->users();
  const size_t items = first->items();
  ivmf::Rng rng(config.seed * 0xD1B54A32D192ED03ULL + 0x5b);
  const std::chrono::duration<double> period(1.0 / kBatchRate);
  for (size_t b = 0;; ++b) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(b * period);
    if (due >= t_end) break;
    {
      MaybeSpan span(traced, "gen.wait");
      std::this_thread::sleep_until(due);
    }

    std::vector<ivmf::IntervalTriplet> batch;
    {
      MaybeSpan span(traced, "gen.batch");
      batch.reserve(kBatchCells + 1);
      for (size_t c = 0; c < kBatchCells; ++c) {
        // Random cells avoid the last column, which holds the probes.
        const size_t row = static_cast<size_t>(rng.UniformIndex(users));
        const size_t col = static_cast<size_t>(rng.UniformIndex(items - 1));
        const double x = rng.Uniform(1.0, 5.0);
        batch.push_back({row, col, Interval(x - 0.25, x + 0.25)});
      }
      // The probe: a cell of the last column no other batch writes, with a
      // value unique to the batch (exact in binary).
      const uint64_t id = monitor.next_batch_id();
      const size_t probe_row = static_cast<size_t>(id % users);
      const double lo = 2.0 + static_cast<double>(id % (1u << 20)) / (1u << 20);
      batch.push_back({probe_row, items - 1, Interval(lo, lo + 0.5)});
      for (const ivmf::IntervalTriplet& t : batch) {
        cell_log[CellKey(t.row, t.col)] = t.value;
      }
      monitor.BatchSubmitted(Clock::now(), probe_row, items - 1,
                             batch.back().value, batch.size());
    }
    ++out.batches;
    MaybeSpan span(traced, "serve.submit");
    engine.Submit(std::move(batch));
  }
}

}  // namespace

ServePhaseResult RunServePhase(ServingEngine& engine, PublishMonitor& monitor,
                               const ServePhaseConfig& config,
                               CellLog& cell_log, Report& report) {
  const bool writes = config.writes;
  ServePhaseResult result;
  std::vector<ClientOutcome> outcomes(kClients);

  TraceSpan phase_span("harness.serve_phase");
  const size_t publishes_before = monitor.publishes().size();
  if (writes) {
    TraceSpan span("serve.start_writer");
    engine.StartWriter();
  }
  // A short lead lets every thread reach its loop before the first op.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(config.seconds));
  {
    TraceSpan wait("harness.wait_threads");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(engine, config, c, t0, t_end, outcomes[c]);
      });
    }
    if (writes) {
      threads.emplace_back([&] {
        RunSubmitter(engine, monitor, config, t0, t_end, cell_log, result);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (writes) {
    // The final flush refresh runs on this thread, inside this span.
    TraceSpan span("serve.stop_writer");
    engine.StopWriter();
  }

  Clock::time_point last_done = t0;
  for (ClientOutcome& o : outcomes) {
    ServePhaseResult& s = o.samples;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.predict_us, s.predict_us);
    append(result.topk_us, s.topk_us);
    result.predict_due.insert(result.predict_due.end(),
                              s.predict_due.begin(), s.predict_due.end());
    result.topk_due.insert(result.topk_due.end(), s.topk_due.begin(),
                           s.topk_due.end());
    append(result.lateness_us, s.lateness_us);
    append(result.predict_op_us, s.predict_op_us);
    append(result.topk_op_us, s.topk_op_us);
    append(result.acquire_ns, s.acquire_ns);
    append(result.predict_self_ns, s.predict_self_ns);
    append(result.topk_self_us, s.topk_self_us);
    result.reads += s.reads;
    result.predict_failed += s.predict_failed;
    result.topk_failed += s.topk_failed;
    result.epoch_regressions += s.epoch_regressions;
    result.checksum += s.checksum;
    last_done = std::max(last_done, o.last_done);
  }
  // The achieved rate counts from the first due time to the last
  // completion, so it drops below the offered rate when a backlog builds.
  result.start = t0;
  result.seconds = config.seconds;
  result.window_s = SecondsBetween(t0, last_done);

  // Split the latencies by whether a refresh was running at the due time:
  // each refresh ends at its publication and lasted its recorded seconds.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> refreshing;
  const std::vector<PublishMonitor::Publish> publishes = monitor.publishes();
  for (size_t i = publishes_before; i < publishes.size(); ++i) {
    const PublishMonitor::Publish& p = publishes[i];
    if (p.refresh_s <= 0.0) continue;
    refreshing.push_back(
        {p.time - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(p.refresh_s)),
         p.time});
  }
  const auto during_refresh = [&refreshing](Clock::time_point t) {
    const auto it = std::upper_bound(
        refreshing.begin(), refreshing.end(), t,
        [](Clock::time_point v, const auto& w) { return v < w.second; });
    return it != refreshing.end() && it->first <= t;
  };
  for (size_t i = 0; i < result.predict_us.size(); ++i) {
    (during_refresh(result.predict_due[i]) ? result.predict_refreshing_us
                                           : result.predict_idle_us)
        .push_back(result.predict_us[i]);
  }
  for (size_t i = 0; i < result.topk_us.size(); ++i) {
    (during_refresh(result.topk_due[i]) ? result.topk_refreshing_us
                                        : result.topk_idle_us)
        .push_back(result.topk_us[i]);
  }
  report.Ops(config.phase, "predict", result.predict_us.size(),
             result.predict_failed);
  report.Ops(config.phase, "topk", result.topk_us.size(), result.topk_failed);
  if (result.predict_failed + result.topk_failed > 0) {
    report.FailMessage(std::string(config.phase) + ": " +
                       std::to_string(result.predict_failed) +
                       " non-finite predicts, " +
                       std::to_string(result.topk_failed) +
                       " short or non-finite top-k lists");
  }
  report.Ops(config.phase, "epoch_monotonic", result.reads,
             result.epoch_regressions);
  if (result.epoch_regressions > 0) {
    report.FailMessage(std::string(config.phase) + ": " +
                       std::to_string(result.epoch_regressions) +
                       " reads saw the epoch go backwards");
  }
  if (writes) report.Ops(config.phase, "submit", result.batches, 0);

  return result;
}

void CheckFinalEpoch(const ServingEngine& engine, const CellLog& cell_log,
                     uint64_t seed, const char* phase, Report& report) {
  TraceSpan span("harness.check");
  const std::shared_ptr<const ServingSnapshot> snapshot = engine.Acquire();
  size_t mismatched = 0;
  for (const auto& [key, value] : cell_log) {
    const size_t row = static_cast<size_t>(key >> 32);
    const size_t col = static_cast<size_t>(key & 0xffffffffULL);
    if (!(snapshot->Observed(row, col) == value)) ++mismatched;
  }
  report.Ops(phase, "observed_last_write", cell_log.size(), mismatched);
  if (mismatched > 0) {
    report.FailMessage(std::string(phase) + ": " + std::to_string(mismatched) +
                       " submitted cells do not read back their last value");
  }

  // TopK against a brute-force ranking over Predict, on the hottest users
  // and a seeded sample.
  const ivmf::SparseIntervalMatrix& m = snapshot->matrix();
  std::vector<size_t> users = {0, 1, 2};
  ivmf::Rng rng(seed ^ 0x70b4ULL);
  while (users.size() < 24) {
    users.push_back(static_cast<size_t>(rng.UniformIndex(m.rows())));
  }
  for (size_t user : users) {
    const std::vector<ServingSnapshot::ScoredItem> top =
        snapshot->TopK(user, kTopK, /*exclude_observed=*/true);
    std::vector<ServingSnapshot::ScoredItem> all;
    size_t k = m.row_ptr()[user];
    const size_t end = m.row_ptr()[user + 1];
    for (size_t j = 0; j < m.cols(); ++j) {
      if (k < end && m.col_idx()[k] == j) {
        ++k;
        continue;
      }
      all.push_back({j, snapshot->Predict(user, j)});
    }
    std::sort(all.begin(), all.end(),
              [](const ServingSnapshot::ScoredItem& a,
                 const ServingSnapshot::ScoredItem& b) {
                if (a.score.Mid() != b.score.Mid()) {
                  return a.score.Mid() > b.score.Mid();
                }
                return a.item < b.item;
              });
    all.resize(std::min(all.size(), kTopK));
    bool ok = top.size() == all.size();
    for (size_t i = 0; ok && i < top.size(); ++i) {
      ok = top[i].item == all[i].item && top[i].score == all[i].score;
    }
    report.Op(phase, "topk_vs_bruteforce", ok);
    if (!ok) {
      report.FailMessage(std::string(phase) + ": TopK of user " +
                         std::to_string(user) +
                         " differs from the brute-force ranking");
    }
  }
}

namespace {

// The p99 of successive windows of each phase (by due time). Each window
// lasts at least 0.5 s and holds about 1000 ops, so its p99 has ten samples
// beyond it. The metric is the median over the windows, so a stall of the
// host moves the one window it falls in, not the metric.
std::vector<double> WindowP99s(
    const std::vector<const ServePhaseResult*>& phases,
    std::vector<double> ServePhaseResult::*latencies,
    std::vector<Clock::time_point> ServePhaseResult::*due) {
  constexpr double kWindowOps = 1000.0;
  constexpr double kMinWindowSeconds = 0.5;
  std::vector<double> window_p99;
  for (const ServePhaseResult* r : phases) {
    const std::vector<double>& values = r->*latencies;
    const std::vector<Clock::time_point>& times = r->*due;
    if (values.empty()) continue;
    const double rate = static_cast<double>(values.size()) / r->seconds;
    const double window_s = std::max(kMinWindowSeconds, kWindowOps / rate);
    const size_t count =
        std::max<size_t>(1, static_cast<size_t>(r->seconds / window_s));
    std::vector<std::vector<double>> windows(count);
    for (size_t i = 0; i < values.size(); ++i) {
      const size_t w =
          static_cast<size_t>(SecondsBetween(r->start, times[i]) / window_s);
      windows[std::min(w, count - 1)].push_back(values[i]);
    }
    for (std::vector<double>& w : windows) {
      if (!w.empty()) window_p99.push_back(Percentile(std::move(w), 99));
    }
  }
  return window_p99;
}

}  // namespace

void RecordServeMetrics(const std::vector<const ServePhaseResult*>& e2e_reads,
                        const std::vector<const ServePhaseResult*>& all_reads,
                        const PublishMonitor& monitor, bool trace,
                        Report& report) {
  const auto gather = [](const std::vector<const ServePhaseResult*>& phases,
                         std::vector<double> ServePhaseResult::*field) {
    std::vector<double> out;
    for (const ServePhaseResult* r : phases) {
      out.insert(out.end(), (r->*field).begin(), (r->*field).end());
    }
    return out;
  };
  using R = ServePhaseResult;
  const std::vector<double> predict = gather(e2e_reads, &R::predict_op_us);
  const std::vector<double> topk = gather(e2e_reads, &R::topk_op_us);
  double window = 0.0;
  size_t done = 0;
  for (const ServePhaseResult* r : e2e_reads) {
    window += r->window_s;
    done += r->reads;
  }
  // The end-to-end read latencies are the ops' own time, from issue to
  // completion. Latency from the due time adds how late the host ran the
  // client, which on a shared host swamps a sub-microsecond predict; it is
  // reported per layer (serve.*_p99_us.{refreshing,idle}).
  const std::vector<double> predict_p99s =
      WindowP99s(e2e_reads, &R::predict_op_us, &R::predict_due);
  const std::vector<double> topk_p99s =
      WindowP99s(e2e_reads, &R::topk_op_us, &R::topk_due);
  report.E2e("predict_p99_us", Median(predict_p99s), "us", predict.size());
  report.Samples("predict_p99_us.windows", predict_p99s);
  report.E2e("topk_p50_us", Percentile(topk, 50), "us", topk.size());
  report.E2e("topk_p99_us", Median(topk_p99s), "us", topk.size());
  report.Samples("topk_p99_us.windows", topk_p99s);
  report.E2e("read_ops_per_s", window > 0 ? done / window : 0.0, "1/s", done);
  const std::vector<double> visible = monitor.visible_ms();
  report.E2e("update_visible_p50_ms", Percentile(visible, 50), "ms",
             visible.size());
  report.E2e("update_visible_p99_ms", Percentile(visible, 99), "ms",
             visible.size());
  if (!trace) return;

  // Traced phases time Acquire apart from the query.
  const std::vector<double> acquire = gather(all_reads, &R::acquire_ns);
  const std::vector<double> predict_self = gather(all_reads, &R::predict_self_ns);
  const std::vector<double> topk_self = gather(all_reads, &R::topk_self_us);
  report.Layer("serve.acquire_ns_p50", Percentile(acquire, 50), "ns");
  report.Layer("serve.acquire_ns_p99", Percentile(acquire, 99), "ns");
  report.Layer("serve.predict_self_ns_p50", Percentile(predict_self, 50), "ns");
  report.Layer("serve.predict_self_ns_p99", Percentile(predict_self, 99), "ns");
  report.Layer("serve.topk_self_us_p50", Percentile(topk_self, 50), "us");
  report.Layer("serve.topk_self_us_p99", Percentile(topk_self, 99), "us");
  report.Layer("serve.predict_p99_us.refreshing",
               Percentile(gather(all_reads, &R::predict_refreshing_us), 99),
               "us");
  report.Layer("serve.predict_p99_us.idle",
               Percentile(gather(all_reads, &R::predict_idle_us), 99), "us");
  report.Layer("serve.topk_p99_us.refreshing",
               Percentile(gather(all_reads, &R::topk_refreshing_us), 99), "us");
  report.Layer("serve.topk_p99_us.idle",
               Percentile(gather(all_reads, &R::topk_idle_us), 99), "us");
  report.Layer("gen.lateness_p99_us",
               Percentile(gather(all_reads, &R::lateness_us), 99), "us");
  size_t predicts = 0, topks = 0;
  for (const ServePhaseResult* r : all_reads) {
    predicts += r->predict_us.size();
    topks += r->topk_us.size();
  }
  report.Layer("serve.ops_attempted.predict", static_cast<double>(predicts),
               "count");
  report.Layer("serve.ops_attempted.topk", static_cast<double>(topks),
               "count");

  // Refresh figures from the publications that followed a refresh (the
  // construction-time publication has none).
  std::vector<double> refresh_ms, snapshot_ms, cells, interval_ms;
  double iterations = 0.0, warm = 0.0, cold = 0.0;
  const std::vector<PublishMonitor::Publish> publishes = monitor.publishes();
  for (size_t i = 0; i < publishes.size(); ++i) {
    const PublishMonitor::Publish& p = publishes[i];
    if (p.refresh_s <= 0.0) continue;
    refresh_ms.push_back(1e3 * p.refresh_s);
    snapshot_ms.push_back(1e3 * p.snapshot_s);
    cells.push_back(p.cells);
    iterations += p.iterations;
    warm += p.warm;
    cold += p.cold;
    if (i > 0 && publishes[i - 1].refresh_s > 0.0) {
      interval_ms.push_back(
          1e3 * SecondsBetween(publishes[i - 1].time, p.time));
    }
  }
  report.Layer("core.refresh_ms_p50", Percentile(refresh_ms, 50), "ms");
  report.Layer("core.refresh_ms_p99", Percentile(refresh_ms, 99), "ms");
  report.Layer("core.snapshot_ms", Median(snapshot_ms), "ms");
  report.Layer("core.refresh_cells_p50", Percentile(cells, 50), "count");
  report.Layer("core.warm_hit_rate",
               warm + cold > 0 ? warm / (warm + cold) : 0.0, "ratio");
  report.Layer("lanczos.iterations_per_refresh",
               refresh_ms.empty() ? 0.0 : iterations / refresh_ms.size(),
               "count");
  report.Layer("serve.publish_interval_ms", Median(interval_ms), "ms");
}

}  // namespace ivbench
