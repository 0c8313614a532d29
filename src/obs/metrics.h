// Process-wide observability: named, tagged instruments behind a single
// registry, built so the instrumented hot paths (Lanczos iterations, sparse
// matvec kernels, streaming refreshes, the serving loop) pay near nothing.
//
// Three instrument kinds:
//   Counter    monotone relaxed-atomic event count (matvecs, iterations)
//   Gauge      last-written double (queue depth, convergence residual)
//   Histogram  lock-free log-bucketed value distribution with nearest-rank
//              percentiles (latencies, batch sizes)
//
// Every mutation first takes one relaxed load of the process-wide enable
// flag (obs::Enabled); with observability off, that load IS the entire cost
// of an instrumented call site. The flag defaults to on — an enabled
// counter bump is one relaxed fetch_add, invisible next to the O(nnz) work
// it counts — and can be cleared either programmatically (SetEnabled) or by
// launching with IVMF_OBS=0/off/false in the environment (how benches
// measure their own instrumentation overhead).
//
// Instruments are created through MetricsRegistry::Global() and live for
// the process: a returned reference never dangles, so hot paths cache it in
// a function-local static and touch the registry mutex exactly once.
// Identity is name + tag set; the same key always returns the same
// instrument. Naming scheme (see README "Observability"): dotted lowercase
// "<subsystem>.<object>.<measure>", units spelled out in the final segment
// (".seconds", ".cells"), variants as tags rather than name suffixes, e.g.
//   sparse.sharded.matvec.calls{kernel=multiply}
//   streaming.refresh.seconds{mode=warm}
//
// All instruments are safe for concurrent mutation from any thread and are
// exercised under ThreadSanitizer (tests/obs_concurrency_test.cc).

#ifndef IVMF_OBS_METRICS_H_
#define IVMF_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/stopwatch.h"

namespace ivmf::obs {

namespace internal {
// Constant-initialized so Enabled() needs no static-init guard; metrics.cc
// applies the IVMF_OBS environment override during dynamic initialization.
extern std::atomic<bool> g_enabled;
}  // namespace internal

// The process-wide master switch. Disabled => every instrument mutation
// returns after this one relaxed load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

// -- Instruments -------------------------------------------------------------

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written double value (Set) with an accumulate variant (Add).
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double d);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Lock-free log-bucketed histogram over positive doubles.
//
// Buckets split each power-of-two octave of the value range into
// kSubBuckets linear sub-buckets, so a bucket's representative (its center)
// is within kMaxRelativeError of every value it absorbed. Percentile()
// keeps the nearest-rank convention of the old LatencyRecorder — the
// ceil(p/100 * count)-th smallest sample — but answers from the buckets, so
// interior percentiles carry the bucket's relative error while p = 0 and
// p = 100 return the exactly-tracked min / max. Values <= 0 (or below the
// tiny-value floor) land in a dedicated underflow bucket whose
// representative is the tracked minimum.
//
// Record is wait-free: one bucket fetch_add plus CAS loops on the exact
// sum / min / max cells. Readers (Percentile, count, sum) use relaxed loads
// and may observe a mid-update mixture under concurrency; aggregate after
// the writers quiesce when exact totals matter, exactly like the per-thread
// recorder + merge pattern the workload driver uses.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 32;
  static constexpr int kMinExponent = -64;  // ~5e-20: below => underflow
  static constexpr int kMaxExponent = 64;   // ~1.8e19: above => overflow
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;
  // Bucket width / bucket lower edge = 1/kSubBuckets; the center therefore
  // sits within half of that of any absorbed value.
  static constexpr double kMaxRelativeError = 0.5 / kSubBuckets;

  Histogram();
  // Copying snapshots the source with relaxed loads — meant for report
  // structs after the writers quiesced, not for racing an active writer.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // Exact sum of recorded values (same role as LatencyRecorder::total()).
  double total() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty

  // Nearest-rank percentile, p in [0, 100]; 0 with no samples. p = 0 maps
  // to the exact minimum, p = 100 to the exact maximum; interior ranks
  // return their bucket's representative (clamped into [min, max]).
  double Percentile(double p) const;

  // Adds `other`'s samples into this histogram (bucket-count addition).
  void Merge(const Histogram& other);

  void Reset();

 private:
  static size_t BucketIndex(double v);
  double BucketRepresentative(size_t index) const;

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// RAII wall-clock timer recording its lifetime (seconds) into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) : histogram_(histogram) {}
  ~ScopedTimer() { histogram_.Record(clock_.Seconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  Stopwatch clock_;
};

// -- Registry ----------------------------------------------------------------

// Tag set attached to an instrument's identity, e.g. {{"kernel", "multiply"}}.
using TagSet = std::vector<std::pair<std::string, std::string>>;

// Canonical instrument key: `name` alone, or "name{k1=v1,k2=v2}" with the
// tags sorted by key. Snapshot maps are indexed by this string.
std::string MetricKey(std::string_view name, const TagSet& tags);

// Point-in-time aggregation of every registered instrument, decoupled from
// the live atomics so exporters and benches can diff two snapshots.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;    // key -> value
  std::map<std::string, double> gauges;        // key -> value
  std::map<std::string, HistogramStats> histograms;

  // Value of one counter key (0 when absent).
  uint64_t CounterValue(std::string_view key) const;
  // Sum over every counter whose key starts with `name_prefix` — the usual
  // way to total a tagged family, e.g.
  // CounterSum("sparse.sharded.matvec.calls").
  uint64_t CounterSum(std::string_view name_prefix) const;

  // One JSON object {"counters": {...}, "gauges": {...},
  // "histograms": {key: {count, sum, min, max, p50, p95, p99}}}.
  std::string ToJson() const;
  // Prometheus-style text exposition (names sanitized to [a-z0-9_], tags as
  // labels, histograms as summaries with quantile labels).
  std::string ToPrometheusText() const;
};

// The process-wide instrument registry. GetX creates on first use and
// returns the same instrument for the same name + tags forever after;
// requesting an existing key as a different kind is a checked error.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, const TagSet& tags = {});
  Gauge& GetGauge(std::string_view name, const TagSet& tags = {});
  Histogram& GetHistogram(std::string_view name, const TagSet& tags = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered instrument (instruments stay registered and
  // all cached references stay valid). Intended for tests and for benches
  // that want per-phase deltas without snapshot arithmetic.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry;
  Entry& GetEntry(std::string_view name, const TagSet& tags, Kind kind);

  mutable std::mutex mu_;  // guards the index; instruments mutate lock-free
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
};

// Escapes a string for inclusion inside JSON double quotes (", \, and
// control characters). Shared by the snapshot/trace exporters and the bench
// JsonWriter so no caller hand-rolls escaping again.
std::string JsonEscape(std::string_view s);

}  // namespace ivmf::obs

#endif  // IVMF_OBS_METRICS_H_
