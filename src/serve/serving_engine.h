// The writer side of the serving layer: one StreamingIsvd driven behind a
// SnapshotRegistry.
//
// ServingEngine owns the streaming decomposition and the publication point.
// Ratings arrive from any thread through Submit (a mutex-guarded pending
// queue — the only lock in the subsystem, held for a vector push, never
// across a refresh). A single writer — either the caller invoking Step() or
// the built-in background thread (StartWriter) — drains the queue, applies
// the cells to the delta log, refreshes the decomposition (warm-started
// with cold fallback, exactly the batch semantics), and publishes a fresh
// immutable ServingSnapshot. Readers meanwhile Acquire() whatever epoch is
// current and never block on the writer.
//
// Staleness is bounded by one refresh: the background writer wakes as soon
// as work is pending, drains EVERYTHING submitted so far into one refresh
// (so bursts coalesce instead of queueing refreshes), and publishes before
// sleeping again. A prediction served at any instant is therefore at most
// one in-flight refresh behind the submitted stream.

#ifndef IVMF_SERVE_SERVING_ENGINE_H_
#define IVMF_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/streaming_isvd.h"
#include "serve/snapshot_registry.h"

namespace ivmf {

struct ServingEngineOptions {
  // Streaming refresh policy (warm bounds, compaction threshold, solver).
  StreamingIsvdOptions streaming;
  // Observation hook, invoked on the publishing thread immediately after
  // every publication (including the initial epoch) with the snapshot just
  // published. Used by tests to retain the epoch history and by harnesses
  // for logging; must be thread-compatible with running on the writer.
  std::function<void(const std::shared_ptr<const ServingSnapshot>&)>
      on_publish;
};

class ServingEngine {
 public:
  // Runs the initial cold decomposition of `base` and publishes epoch 1,
  // so Acquire() never returns null.
  ServingEngine(int strategy, size_t rank, SparseIntervalMatrix base,
                ServingEngineOptions options = {});

  // Stops the background writer (flushing pending work) if running.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // -- Reader API (any thread, never blocks on refreshes) -------------------

  std::shared_ptr<const ServingSnapshot> Acquire() const {
    return registry_.Acquire();
  }
  const SnapshotRegistry& registry() const { return registry_; }

  // Last published epoch (== refresh count of the streaming core).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // -- Ingest API (any thread) ----------------------------------------------

  // Enqueues arriving / revised cells (last-write-wins per cell, applied in
  // submission order). Wakes the background writer when one is running.
  // Every cell is checked first, on the caller's thread, by the triplet
  // reader's rules: inside the matrix shape, finite endpoints, lo <= hi.
  // One bad cell rejects the whole batch: nothing is enqueued, the served
  // epoch stays as it is, and Submit returns false. Each rejected batch
  // counts once in serving.submit.rejected{reason=shape|non_finite|
  // improper}, and a warning log names its first bad cell.
  bool Submit(std::vector<IntervalTriplet> batch);

  // Cells submitted but not yet applied by a refresh.
  size_t pending_cells() const;

  // Cells applied across all refreshes so far.
  size_t cells_applied() const {
    return cells_applied_.load(std::memory_order_relaxed);
  }

  // -- Writer API (one thread; exclusive with the background writer) --------

  // Drains the pending queue; when any cells were drained, applies them,
  // refreshes, and publishes the next epoch. Returns the number of cells
  // applied (0 = nothing pending, no refresh, no publication).
  size_t Step();

  // Starts / stops the built-in writer thread. StopWriter flushes pending
  // work with a final Step() before returning; it is called by the
  // destructor when still running.
  void StartWriter();
  void StopWriter();
  bool writer_running() const;

 private:
  void PublishCurrent();
  void WriterLoop();
  std::vector<std::vector<IntervalTriplet>> Drain();

  ServingEngineOptions options_;
  // The matrix shape, fixed for the engine's life (streaming revises cells;
  // it does not grow the universe). Submit checks cells against these
  // copies and never reads the writer-owned matrix.
  const size_t rows_;
  const size_t cols_;
  StreamingIsvd streaming_;  // writer-thread-only after construction
  SnapshotRegistry registry_;

  mutable std::mutex mu_;  // guards pending_, pending_cells_, stop_, running_
  std::condition_variable cv_;
  std::vector<std::vector<IntervalTriplet>> pending_;
  size_t pending_cells_ = 0;
  bool stop_ = false;
  bool running_ = false;
  std::thread writer_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> cells_applied_{0};
};

}  // namespace ivmf

#endif  // IVMF_SERVE_SERVING_ENGINE_H_
