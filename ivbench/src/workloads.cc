#include "workloads.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "io/file_util.h"
#include "io/triplets.h"
#include "ledger.h"
#include "obs/trace.h"
#include "phases.h"
#include "serve/serving_engine.h"

namespace ivbench {

using ivmf::ServingEngine;
using ivmf::SparseIntervalMatrix;
using ivmf::obs::TraceCollector;
using ivmf::obs::TraceSpan;

namespace {

// -- Workload shapes ------------------------------------------------------------

// ingest_decompose: the ROADMAP reference shape, 20k x 5k at 5% fill.
constexpr size_t kIngestUsers = 20000;
constexpr size_t kIngestItems = 5000;
constexpr double kIngestFill = 0.05;
// serve_*: short rows (about 8 per user), built in memory.
constexpr size_t kServeUsers = 200000;
constexpr size_t kServeItems = 2000;
constexpr double kServeFill = 0.004;
// Users of the serving matrix the serve_* decompositions run on. At 5000
// rows the left Krylov basis (~2 MB) stays near the core's L2; at 20000,
// cache traffic from other tenants of the host moved ISVD0/1 by up to 2x.
constexpr size_t kIsvdSliceRows = 5000;
// CF interval half-width factor (supplementary F.2 eq. 5-7).
constexpr double kAlpha = 0.3;

// The seed whose ingest_decompose results are pinned below.
constexpr uint64_t kPinnedSeed = 1;
// σ₁, σ₂ (lo, hi) and the sampled Θ_HM of strategies 0-4 on kPinnedSeed.
// (Regenerate with `ivbench run ... --print_pins` if the generator changes.)
constexpr PinnedIsvd kIngestPins[5] = {
    {1503.9496825412411, 1503.9496825412411, 208.07168037797936,
     208.07168037797936, 0.02611494354606619},
    {1377.9468256116313, 1629.9518951731918, 203.17670234504473,
     212.75876782531262, 0.02631036709648326},
    {1377.9468256116211, 1629.9518951731827, 203.17670234504098,
     212.75876782530833, 0.026300232027610396},
    {1377.9470752192692, 1629.9521904301921, 203.27816722592712,
     212.86501791592261, 0.026340901343244204},
    {1377.9471073321822, 1629.952228416058, 203.27823963640847,
     212.86509374137216, 0.026341405691666486}};

// Layers of the ledger, reported as self.<layer>_s in traced runs.
const char* const kLedgerLayers[] = {"io",    "sparse", "linalg", "core",
                                     "serve", "gen",    "harness"};

// Spans kept per thread. A traced client thread records three per read,
// about 180k in the longest traced window; nothing may be overwritten, or
// the ledger would miss time.
constexpr size_t kSpansPerThread = 1 << 19;

// Shared frame of every workload: in traced runs it starts span collection
// and the main thread's root span; its tail records resources, the ledger
// and the spans file.
struct RunContext {
  const RunOptions& options;
  Report& report;
  Clock::time_point start;
  double cpu_start = 0.0;
  std::optional<TraceSpan> root;

  RunContext(const RunOptions& o, Report& r) : options(o), report(r) {
    if (options.trace) {
      TraceCollector::Global().Start(kSpansPerThread);
      root.emplace("thread.main");
    }
    start = Clock::now();
    cpu_start = ProcessCpuSeconds();
  }

  void Finish(double trace_overhead) {
    const Clock::time_point end = Clock::now();
    const double wall = SecondsBetween(start, end);
    report.E2e("peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1 << 20),
               "MB", 1);
    if (!options.trace) return;
    root.reset();
    TraceCollector& collector = TraceCollector::Global();
    collector.Stop();
    report.Layer("base.cpu_util", (ProcessCpuSeconds() - cpu_start) / wall,
                 "ratio");
    report.Layer("obs.trace_overhead_frac", trace_overhead, "ratio");
    const std::string trace_json = collector.ChromeTraceJson();
    const Ledger ledger = BuildLedger(trace_json);
    const size_t dropped = collector.total_dropped();
    report.Op("trace", "ledger_complete", dropped == 0 && ledger.well_formed);
    if (dropped > 0 || !ledger.well_formed) {
      report.FailMessage("trace: " + std::to_string(dropped) +
                         " spans overwritten" +
                         (ledger.well_formed ? "" : ", spans do not nest"));
    }
    report.Layer("ledger.unaccounted_frac", ledger.unaccounted_fraction(),
                 "ratio");
    for (const char* layer : kLedgerLayers) {
      const auto it = ledger.layer_self.find(layer);
      report.Layer(std::string("self.") + layer + "_s",
                   it == ledger.layer_self.end() ? 0.0 : it->second, "s");
    }
    report.Section("ledger", LedgerJson(ledger));
    report.Section("wall_s", JsonNumber(wall));
    PrintLedger(ledger);
    // One spans file per workload (tens of MB each); the next traced run of
    // the workload replaces it.
    const std::string trace_path =
        options.out_dir + "/spans_" + options.workload + ".json";
    std::ofstream trace_file(trace_path);
    trace_file << trace_json;
    trace_file.close();
    if (!trace_file) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
    report.Section("spans_file", JsonString(trace_path));
  }
};

// The first `rows` rows of `m`, with its own kernel sidecars.
SparseIntervalMatrix RowSlice(const SparseIntervalMatrix& m, size_t rows) {
  const size_t end = m.row_ptr()[rows];
  return SparseIntervalMatrix::FromCsr(
      rows, m.cols(),
      std::vector<size_t>(m.row_ptr().begin(), m.row_ptr().begin() + rows + 1),
      std::vector<size_t>(m.col_idx().begin(), m.col_idx().begin() + end),
      std::vector<double>(m.lower_values().begin(),
                          m.lower_values().begin() + end),
      std::vector<double>(m.upper_values().begin(),
                          m.upper_values().begin() + end));
}

// Loads a triplet file through the two halves of LoadSparseIntervalTriplets
// (ReadFileToString, then SparseIntervalMatrixFromTriplets), timed apart,
// and records the io.* layer metrics.
std::optional<SparseIntervalMatrix> SplitLoad(const std::string& path,
                                              Report& report) {
  ResetPeakRss();
  const double rss_before = static_cast<double>(CurrentRssBytes());
  const Clock::time_point t0 = Clock::now();
  std::optional<std::string> text;
  {
    TraceSpan span("io.read");
    text = ivmf::io_internal::ReadFileToString(path);
  }
  const Clock::time_point t1 = Clock::now();
  std::optional<SparseIntervalMatrix> matrix;
  if (text) {
    TraceSpan span("io.parse");
    matrix = ivmf::SparseIntervalMatrixFromTriplets(*text);
  }
  const Clock::time_point t2 = Clock::now();
  const double bytes = text ? static_cast<double>(text->size()) : 0.0;
  text.reset();
  report.Layer("io.read_s", SecondsBetween(t0, t1), "s");
  report.Layer("io.parse_s", SecondsBetween(t1, t2), "s");
  report.Layer("io.mb_per_s", bytes / 1e6 / SecondsBetween(t0, t2), "MB/s");
  report.Layer("io.rss_over_store",
               matrix ? (static_cast<double>(PeakRssBytes()) - rss_before) /
                            StoreBytes(*matrix)
                      : 0.0,
               "ratio");
  return matrix;
}

void RecordMonitorChecks(const ServingEngine& engine,
                         const PublishMonitor& monitor, const char* phase,
                         Report& report) {
  const std::vector<std::string> failures = monitor.failures();
  report.Ops(phase, "publish_checks", monitor.publishes().size(),
             failures.size());
  for (const std::string& f : failures) {
    report.FailMessage(std::string(phase) + ": " + f);
  }
  const bool drained = monitor.outstanding() == 0 &&
                       engine.cells_applied() == monitor.cells_submitted();
  report.Op(phase, "cells_applied_covers_submitted", drained);
  if (!drained) {
    report.FailMessage(std::string(phase) + ": cells_applied " +
                       std::to_string(engine.cells_applied()) + " of " +
                       std::to_string(monitor.cells_submitted()) +
                       " submitted, " + std::to_string(monitor.outstanding()) +
                       " batches never visible");
  }
}

void RecordLoadInputs(Report& report) {
  report.Input("offered_read_rate", JsonNumber(kReadRate));
  report.Input("clients", std::to_string(kClients));
  report.Input("update_batch_rate", JsonNumber(kBatchRate));
  report.Input("update_cell_rate",
               JsonNumber(kBatchRate * static_cast<double>(kBatchCells + 1)));
}

// -- ingest_decompose -----------------------------------------------------------

bool RunIngest(const RunOptions& options, Report& report) {
  RunContext ctx(options, report);
  struct stat st;
  if (stat(options.input.c_str(), &st) != 0) {
    std::fprintf(stderr, "missing input file %s\n", options.input.c_str());
    return false;
  }
  const double file_bytes = static_cast<double>(st.st_size);
  report.Input("file_bytes", JsonNumber(file_bytes));

  // Setup: triplet file -> matrix, twice (each load takes seconds); the
  // median counts. Traced runs load once through LoadSparseIntervalTriplets
  // and once through its two halves, timed apart.
  const size_t loads = 2;
  std::vector<double> setup_s;
  std::optional<SparseIntervalMatrix> matrix;
  for (size_t rep = 0; rep < loads; ++rep) {
    matrix.reset();
    if (options.trace && rep + 1 == loads) {
      matrix = SplitLoad(options.input, report);
    } else {
      const Clock::time_point t0 = Clock::now();
      {
        TraceSpan span("io.load");
        matrix = ivmf::LoadSparseIntervalTriplets(options.input);
      }
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
    }
    const bool ok = matrix && matrix->rows() == kIngestUsers &&
                    matrix->cols() == kIngestItems && matrix->nnz() > 0;
    report.Op("setup", "load_triplets", ok);
    if (!ok) {
      report.FailMessage("setup: the triplet file did not load as a " +
                         std::to_string(kIngestUsers) + " x " +
                         std::to_string(kIngestItems) + " matrix");
      return false;
    }
  }
  report.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  report.Samples("setup_s", setup_s);
  RecordMatrixInputs(*matrix, report);
  RecordLoadInputs(report);
  auto shared =
      std::make_shared<const SparseIntervalMatrix>(std::move(*matrix));
  matrix.reset();

  // The lazily built kernel sidecars are paid once per matrix, before the
  // first decomposition; build them outside the timed calls.
  {
    TraceSpan span("sparse.warmup");
    std::vector<double> x(shared->cols(), 1.0), y;
    shared->Multiply(SparseIntervalMatrix::Endpoint::kLower, x, y);
  }

  // A serving engine over the loaded matrix, for the read and update
  // probes that supply this workload's serving metrics.
  PublishMonitor monitor;
  ivmf::ServingEngineOptions engine_options;
  engine_options.on_publish = monitor.Hook();
  std::unique_ptr<ServingEngine> engine;
  {
    SparseIntervalMatrix copy = FreshCopy(*shared);
    TraceSpan span("serve.engine_construct");
    engine = std::make_unique<ServingEngine>(kServeStrategy, kRank,
                                             std::move(copy), engine_options);
  }
  monitor.Attach(engine.get());
  CellLog cell_log;

  // Primary phase: RunIsvd for strategies 0-4. After every round a short
  // read-only slice runs on the engine, so the read probe samples the whole
  // phase rather than one stretch of it.
  ServePhaseConfig reads;
  reads.phase = "read_probe";
  reads.seconds = 0.05 * options.seconds;
  reads.trace = options.trace;
  std::vector<ServePhaseResult> read_results;
  IsvdPhaseConfig isvd;
  isvd.phase = "decompose";
  isvd.seconds = 0.4 * options.seconds;
  isvd.min_rounds = options.trace ? 3 : 5;
  isvd.trace = options.trace;
  isvd.seed = options.seed;
  isvd.print_pins = options.print_pins;
  if (options.seed == kPinnedSeed) isvd.pinned = kIngestPins;
  isvd.after_round = [&] {
    reads.seed = options.seed + 16 + read_results.size();
    read_results.push_back(
        RunServePhase(*engine, monitor, reads, cell_log, report));
  };
  const double overhead = RunIsvdPhase(shared, isvd, report);
  if (options.trace) MeasureKernels(shared, report);
  shared.reset();

  // Secondary phase: the reads with a Submit stream, for update visibility.
  ServePhaseConfig writes = reads;
  writes.phase = "update_probe";
  writes.seconds = 0.15 * options.seconds;
  writes.writes = true;
  writes.seed = options.seed + 1;
  const ServePhaseResult write_result =
      RunServePhase(*engine, monitor, writes, cell_log, report);

  CheckFinalEpoch(*engine, cell_log, options.seed, "final_epoch", report);
  RecordMonitorChecks(*engine, monitor, "final_epoch", report);
  std::vector<const ServePhaseResult*> e2e_reads, all_reads = {&write_result};
  for (const ServePhaseResult& r : read_results) {
    e2e_reads.push_back(&r);
    all_reads.push_back(&r);
  }
  RecordServeMetrics(e2e_reads, all_reads, monitor, options.trace, report);
  ctx.Finish(overhead);
  return true;
}

// -- serve_read / serve_write -----------------------------------------------------

bool RunServe(const RunOptions& options, Report& report, bool writes) {
  SparseIntervalMatrix generated =
      GenerateCfMatrix(kServeUsers, kServeItems, kServeFill, kAlpha,
                       options.seed);
  // Generation is input preparation: peak RSS and the run clock start here.
  ResetPeakRss();
  RunContext ctx(options, report);
  RecordMatrixInputs(generated, report);
  RecordLoadInputs(report);
  const auto base =
      std::make_shared<const SparseIntervalMatrix>(std::move(generated));

  // Setup: ServingEngine construction (cold decomposition and the epoch-1
  // publication), several times; the median counts and the last is kept.
  std::vector<double> setup_s;
  std::unique_ptr<PublishMonitor> monitor;
  std::unique_ptr<ServingEngine> engine;
  for (size_t rep = 0; rep < 5; ++rep) {
    engine.reset();
    monitor = std::make_unique<PublishMonitor>();
    ivmf::ServingEngineOptions engine_options;
    engine_options.on_publish = monitor->Hook();
    SparseIntervalMatrix copy = FreshCopy(*base);
    const Clock::time_point t0 = Clock::now();
    {
      TraceSpan span("serve.engine_construct");
      engine = std::make_unique<ServingEngine>(
          kServeStrategy, kRank, std::move(copy), std::move(engine_options));
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    monitor->Attach(engine.get());
    report.Op("setup", "engine_construct", engine->epoch() == 1);
  }
  report.E2e("setup_s", Median(setup_s), "s", setup_s.size());
  report.Samples("setup_s", setup_s);

  // Primary phase. Traced runs split it: an untraced half as the overhead
  // reference, then a traced half.
  CellLog cell_log;
  ServePhaseConfig primary;
  primary.phase = writes ? "serve_write" : "serve_read";
  primary.seconds = 0.6 * options.seconds;
  primary.writes = writes;
  primary.seed = options.seed;
  std::vector<ServePhaseResult> primary_results;
  double overhead = 0.0;
  if (options.trace) {
    primary.seconds *= 0.5;
    ServePhaseConfig untraced = primary;
    untraced.phase = writes ? "serve_write_untraced" : "serve_read_untraced";
    {
      TraceSpan span("harness.untraced_reference");
      primary_results.push_back(
          RunServePhase(*engine, *monitor, untraced, cell_log, report));
    }
    primary.trace = true;
    primary.seed = options.seed + 7;
    primary_results.push_back(
        RunServePhase(*engine, *monitor, primary, cell_log, report));
    overhead = Median(primary_results[1].predict_op_us) /
                   Median(primary_results[0].predict_op_us) -
               1.0;
  } else {
    primary_results.push_back(
        RunServePhase(*engine, *monitor, primary, cell_log, report));
  }

  // Secondary phases: serve_read measures update visibility in a short
  // Submit stream after its read-only window.
  std::vector<ServePhaseResult> secondary;
  if (!writes) {
    ServePhaseConfig update = primary;
    update.phase = "update_probe";
    update.seconds = 0.2 * options.seconds;
    update.writes = true;
    update.seed = options.seed + 1;
    secondary.push_back(
        RunServePhase(*engine, *monitor, update, cell_log, report));
  }
  CheckFinalEpoch(*engine, cell_log, options.seed, "final_epoch", report);
  RecordMonitorChecks(*engine, *monitor, "final_epoch", report);
  engine.reset();

  // The batch path on the serving matrix's short-row shape: RunIsvd for
  // strategies 0-4 on its first kIsvdSliceRows users (the whole matrix
  // would take seconds per ISVD0/1 call).
  const auto slice = std::make_shared<const SparseIntervalMatrix>(
      RowSlice(*base, kIsvdSliceRows));
  IsvdPhaseConfig isvd;
  isvd.phase = "decompose";
  isvd.seconds = 0.2 * options.seconds;
  isvd.min_rounds = options.trace ? 5 : 16;
  isvd.trace = options.trace;
  isvd.seed = options.seed;
  {
    TraceSpan span("sparse.warmup");
    std::vector<double> x(slice->cols(), 1.0), y;
    slice->Multiply(SparseIntervalMatrix::Endpoint::kLower, x, y);
  }
  RunIsvdPhase(slice, isvd, report);
  if (options.trace) {
    MeasureKernels(base, report);
    // The io layer on this workload's shape: the slice as a triplet file.
    const std::string path = options.out_dir + "/serve_slice_" +
                             std::to_string(options.seed) + ".tri";
    bool saved = false;
    {
      TraceSpan span("harness.write_input");
      saved = ivmf::SaveSparseIntervalTriplets(path, *slice);
    }
    const std::optional<SparseIntervalMatrix> loaded =
        saved ? SplitLoad(path, report) : std::nullopt;
    std::remove(path.c_str());
    const bool ok = loaded && loaded->nnz() == slice->nnz();
    report.Op("io_probe", "load_triplets", ok);
    if (!ok) report.FailMessage("io_probe: the slice did not round-trip");
  }

  std::vector<const ServePhaseResult*> e2e_reads, all_reads;
  for (const ServePhaseResult& r : primary_results) {
    e2e_reads.push_back(&r);
    all_reads.push_back(&r);
  }
  for (const ServePhaseResult& r : secondary) all_reads.push_back(&r);
  RecordServeMetrics(e2e_reads, all_reads, *monitor, options.trace, report);
  ctx.Finish(overhead);
  return true;
}

}  // namespace

bool WriteIngestInput(uint64_t seed, const std::string& path) {
  const SparseIntervalMatrix m =
      GenerateCfMatrix(kIngestUsers, kIngestItems, kIngestFill, kAlpha, seed);
  return ivmf::SaveSparseIntervalTriplets(path, m);
}

bool RunWorkload(const RunOptions& options, Report& report) {
  RecordHost(report);
  report.Host("git_commit", JsonString(options.commit));
  report.Input("workload", JsonString(options.workload));
  report.Input("seed", std::to_string(options.seed));
  if (options.workload == "ingest_decompose") return RunIngest(options, report);
  if (options.workload == "serve_read") return RunServe(options, report, false);
  if (options.workload == "serve_write") return RunServe(options, report, true);
  std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
  return false;
}

}  // namespace ivbench
