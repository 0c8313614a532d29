#include "serve/serving_engine.h"

#include <cmath>
#include <utility>

#include "base/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ivmf {

namespace {

struct EngineInstruments {
  obs::Gauge& queue_cells;
  obs::Counter& epochs;
  obs::Counter& cells;
  obs::Histogram& batch_cells;
  obs::Histogram& refresh_seconds;

  static EngineInstruments& Get() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static EngineInstruments instruments{
        registry.GetGauge("serving.queue.cells"),
        registry.GetCounter("serving.epochs.published"),
        registry.GetCounter("serving.cells.applied"),
        registry.GetHistogram("serving.batch.cells"),
        registry.GetHistogram("serving.refresh.seconds")};
    return instruments;
  }
};

// Why a submitted cell cannot enter a rows x cols matrix, or nullptr when
// it can. The reasons label serving.submit.rejected.
const char* RejectReason(const IntervalTriplet& cell, size_t rows,
                         size_t cols) {
  if (cell.row >= rows || cell.col >= cols) return "shape";
  if (!std::isfinite(cell.value.lo) || !std::isfinite(cell.value.hi)) {
    return "non_finite";
  }
  if (cell.value.lo > cell.value.hi) return "improper";
  return nullptr;
}

}  // namespace

ServingEngine::ServingEngine(int strategy, size_t rank,
                             SparseIntervalMatrix base,
                             ServingEngineOptions options)
    : options_(std::move(options)),
      rows_(base.rows()),
      cols_(base.cols()),
      streaming_(strategy, rank, std::move(base), options_.streaming) {
  PublishCurrent();  // epoch 1: the construction-time cold decomposition
}

ServingEngine::~ServingEngine() {
  if (writer_running()) StopWriter();
}

void ServingEngine::PublishCurrent() {
  auto snapshot = std::make_shared<const ServingSnapshot>(
      streaming_.refresh_count(), streaming_.result(),
      streaming_.matrix_snapshot());
  registry_.Publish(snapshot);
  epoch_.store(snapshot->epoch(), std::memory_order_release);
  EngineInstruments::Get().epochs.Add(1);
  obs::LogDebug("serve", "published snapshot",
                {{"epoch", snapshot->epoch()}});
  if (options_.on_publish) options_.on_publish(snapshot);
}

bool ServingEngine::Submit(std::vector<IntervalTriplet> batch) {
  for (size_t k = 0; k < batch.size(); ++k) {
    const IntervalTriplet& cell = batch[k];
    const char* reason = RejectReason(cell, rows_, cols_);
    if (reason == nullptr) continue;
    obs::MetricsRegistry::Global()
        .GetCounter("serving.submit.rejected", {{"reason", reason}})
        .Add(1);
    obs::LogWarn("serve", "submitted batch rejected",
                 {{"reason", reason},
                  {"index", k},
                  {"batch_cells", batch.size()},
                  {"row", cell.row},
                  {"col", cell.col},
                  {"lo", cell.value.lo},
                  {"hi", cell.value.hi}});
    return false;
  }
  if (batch.empty()) return true;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_cells_ += batch.size();
    depth = pending_cells_;
    pending_.push_back(std::move(batch));
  }
  EngineInstruments::Get().queue_cells.Set(static_cast<double>(depth));
  cv_.notify_one();
  return true;
}

size_t ServingEngine::pending_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_cells_;
}

std::vector<std::vector<IntervalTriplet>> ServingEngine::Drain() {
  std::vector<std::vector<IntervalTriplet>> drained;
  std::lock_guard<std::mutex> lock(mu_);
  drained.swap(pending_);
  pending_cells_ = 0;
  return drained;
}

size_t ServingEngine::Step() {
  obs::TraceSpan span("serving.step");
  EngineInstruments& instruments = EngineInstruments::Get();
  const std::vector<std::vector<IntervalTriplet>> drained = Drain();
  instruments.queue_cells.Set(0.0);
  size_t cells = 0;
  for (const std::vector<IntervalTriplet>& batch : drained) {
    streaming_.ApplyBatch(batch);
    cells += batch.size();
  }
  if (cells == 0) return 0;  // nothing new: keep the current epoch
  // Coalesced batch: how many submitted cells one refresh absorbed.
  instruments.batch_cells.Record(static_cast<double>(cells));

  {
    obs::ScopedTimer timer(instruments.refresh_seconds);
    streaming_.Refresh();
  }
  PublishCurrent();
  cells_applied_.fetch_add(cells, std::memory_order_relaxed);
  instruments.cells.Add(cells);
  return cells;
}

void ServingEngine::StartWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    IVMF_CHECK_MSG(!running_, "writer thread already running");
    running_ = true;
    stop_ = false;
  }
  writer_ = std::thread([this] { WriterLoop(); });
  obs::LogInfo("serve", "writer thread started", {{"epoch", epoch()}});
}

void ServingEngine::StopWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    IVMF_CHECK_MSG(running_, "no writer thread to stop");
    stop_ = true;
  }
  cv_.notify_one();
  writer_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  Step();  // flush anything submitted during shutdown
  obs::LogInfo("serve", "writer thread stopped",
               {{"epoch", epoch()},
                {"cells_applied", cells_applied()}});
}

bool ServingEngine::writer_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void ServingEngine::WriterLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;  // StopWriter flushes the remainder
    }
    // Drain + refresh + publish outside the lock: submitters never wait on
    // the decomposition.
    Step();
  }
}

}  // namespace ivmf
