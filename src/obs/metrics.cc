#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "base/check.h"

namespace ivmf::obs {

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

namespace {

// Applied during dynamic initialization (g_enabled itself is
// constant-initialized, so ordering against other TUs cannot misfire):
// IVMF_OBS=0/off/false launches with observability disabled.
bool ApplyEnvironmentSwitch() {
  const char* value = std::getenv("IVMF_OBS");
  if (value != nullptr &&
      (std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
       std::strcmp(value, "false") == 0)) {
    internal::g_enabled.store(false, std::memory_order_relaxed);
  }
  return true;
}
const bool g_env_applied = ApplyEnvironmentSwitch();

void AtomicAddDouble(std::atomic<double>& cell, double d) {
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + d,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& cell, double v) {
  double expected = cell.load(std::memory_order_relaxed);
  while (v < expected && !cell.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& cell, double v) {
  double expected = cell.load(std::memory_order_relaxed);
  while (v > expected && !cell.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void SetEnabled(bool enabled) {
  (void)g_env_applied;
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Gauge::Add(double d) {
  if (!Enabled()) return;
  AtomicAddDouble(value_, d);
}

// -- Histogram ---------------------------------------------------------------

Histogram::Histogram()
    : buckets_(kBuckets),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

Histogram::Histogram(const Histogram& other) : Histogram() { Merge(other); }

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  Reset();
  Merge(other);
  return *this;
}

size_t Histogram::BucketIndex(double v) {
  // Bucket 0 is the underflow bin (v <= 0, NaN, or below 2^kMinExponent);
  // the last bucket absorbs overflow (including +inf).
  if (!(v > 0.0)) return 0;
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant ∈ [0.5, 1)
  if (exp <= kMinExponent) return 0;
  if (exp > kMaxExponent) return kBuckets - 1;
  if (!std::isfinite(v)) return kBuckets - 1;
  size_t sub = static_cast<size_t>((mant - 0.5) * 2.0 *
                                   static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + static_cast<size_t>(exp - 1 - kMinExponent) * kSubBuckets + sub;
}

double Histogram::BucketRepresentative(size_t index) const {
  if (index == 0) {
    const double lo = min();
    return lo < std::ldexp(1.0, kMinExponent) ? lo : 0.0;
  }
  if (index >= kBuckets - 1) return max();
  const size_t linear = index - 1;
  const int exp = kMinExponent + 1 + static_cast<int>(linear / kSubBuckets);
  const size_t sub = linear % kSubBuckets;
  const double octave_lo = std::ldexp(0.5, exp);  // 2^(exp-1)
  const double width = octave_lo / static_cast<double>(kSubBuckets);
  return octave_lo + (static_cast<double>(sub) + 0.5) * width;
}

void Histogram::Record(double v) {
  if (!Enabled()) return;
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
  AtomicMinDouble(min_, v);
  AtomicMaxDouble(max_, v);
}

double Histogram::total() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      const double value = BucketRepresentative(b);
      // Bucket centers can poke past the true extremes; clamp so reported
      // percentiles always lie inside the observed range.
      return std::min(std::max(value, min()), max());
    }
  }
  return max();  // racing writers: counts moved under us, answer the tail
}

void Histogram::Merge(const Histogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t add = other.buckets_[b].load(std::memory_order_relaxed);
    if (add != 0) buckets_[b].fetch_add(add, std::memory_order_relaxed);
  }
  const uint64_t add_count = other.count_.load(std::memory_order_relaxed);
  if (add_count != 0) count_.fetch_add(add_count, std::memory_order_relaxed);
  AtomicAddDouble(sum_, other.sum_.load(std::memory_order_relaxed));
  AtomicMinDouble(min_, other.min_.load(std::memory_order_relaxed));
  AtomicMaxDouble(max_, other.max_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// -- Registry ----------------------------------------------------------------

std::string MetricKey(std::string_view name, const TagSet& tags) {
  std::string key(name);
  if (tags.empty()) return key;
  TagSet sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  key.push_back('{');
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

struct MetricsRegistry::Entry {
  Kind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;

  explicit Entry(Kind k) : kind(k) {}
};

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  const TagSet& tags,
                                                  Kind kind) {
  const std::string key = MetricKey(name, tags);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    it = entries_.emplace(key, std::make_unique<Entry>(kind)).first;
  }
  IVMF_CHECK_MSG(it->second->kind == kind,
                 "metric re-requested as a different instrument kind");
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     const TagSet& tags) {
  return GetEntry(name, tags, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, const TagSet& tags) {
  return GetEntry(name, tags, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         const TagSet& tags) {
  return GetEntry(name, tags, Kind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        snapshot.counters[key] = entry->counter.value();
        break;
      case Kind::kGauge:
        snapshot.gauges[key] = entry->gauge.value();
        break;
      case Kind::kHistogram: {
        HistogramStats stats;
        const Histogram& h = entry->histogram;
        stats.count = h.count();
        stats.sum = h.total();
        stats.min = h.min();
        stats.max = h.max();
        stats.p50 = h.Percentile(50);
        stats.p95 = h.Percentile(95);
        stats.p99 = h.Percentile(99);
        snapshot.histograms[key] = stats;
        break;
      }
    }
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    entry->counter.Reset();
    entry->gauge.Reset();
    entry->histogram.Reset();
  }
}

// -- Export ------------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view key) const {
  const auto it = counters.find(std::string(key));
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::CounterSum(std::string_view name_prefix) const {
  uint64_t sum = 0;
  for (const auto& [key, value] : counters) {
    if (key.size() >= name_prefix.size() &&
        std::string_view(key).substr(0, name_prefix.size()) == name_prefix) {
      sum += value;
    }
  }
  return sum;
}

namespace {

// JSON has no NaN/Inf literals; a non-finite gauge renders as null.
void AppendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  out += buffer;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(key) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [key, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(key) + "\": ";
    AppendJsonNumber(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [key, stats] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(key) + "\": {\"count\": " +
           std::to_string(stats.count);
    const std::pair<const char*, double> fields[] = {
        {"sum", stats.sum}, {"min", stats.min}, {"max", stats.max},
        {"p50", stats.p50}, {"p95", stats.p95}, {"p99", stats.p99}};
    for (const auto& [label, value] : fields) {
      out += ", \"";
      out += label;
      out += "\": ";
      AppendJsonNumber(out, value);
    }
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Label values may hold anything; the exposition format requires \\, \",
// and \n escaped inside the quotes.
std::string PrometheusLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// Label names are restricted to [a-zA-Z_][a-zA-Z0-9_]*.
std::string PrometheusLabelName(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(
                            std::tolower(static_cast<unsigned char>(c)))
                      : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

// "sparse.sharded.matvec.calls{kernel=multiply}" ->
//   name "ivmf_sparse_sharded_matvec_calls", labels {kernel="multiply"}.
void SplitPrometheusKey(const std::string& key, std::string& name,
                        std::string& labels) {
  const size_t brace = key.find('{');
  const std::string base = key.substr(0, brace);
  name = "ivmf_";
  for (const char c : base) {
    name.push_back(std::isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(
                             std::tolower(static_cast<unsigned char>(c)))
                       : '_');
  }
  labels.clear();
  if (brace == std::string::npos) return;
  // key tags are "k=v" pairs; Prometheus wants k="v" with the value escaped.
  const std::string inner = key.substr(brace + 1, key.size() - brace - 2);
  size_t pos = 0;
  while (pos < inner.size()) {
    size_t comma = inner.find(',', pos);
    if (comma == std::string::npos) comma = inner.size();
    const std::string pair = inner.substr(pos, comma - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      if (!labels.empty()) labels.push_back(',');
      labels += PrometheusLabelName(pair.substr(0, eq)) + "=\"" +
                PrometheusLabelEscape(pair.substr(eq + 1)) + "\"";
    }
    pos = comma + 1;
  }
}

bool EndsWithTotal(const std::string& name) {
  constexpr const char kSuffix[] = "_total";
  constexpr size_t kLen = sizeof(kSuffix) - 1;
  return name.size() >= kLen &&
         name.compare(name.size() - kLen, kLen, kSuffix) == 0;
}

void AppendPrometheusLine(std::string& out, const std::string& name,
                          const std::string& labels,
                          const std::string& extra_label, double value) {
  out += name;
  if (!labels.empty() || !extra_label.empty()) {
    out.push_back('{');
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out.push_back(',');
    out += extra_label;
    out.push_back('}');
  }
  char buffer[48];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), " %.9g\n", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), " NaN\n");
  }
  out += buffer;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  std::string name, labels;
  // Sanitization can collapse distinct raw names onto one exposition name
  // (and counters share a family with gauges after the _total suffix only
  // by accident), so dedupe # TYPE headers with a set, not adjacency.
  std::set<std::string> typed;
  const auto type_line = [&](const char* kind) {
    if (!typed.insert(name).second) return;
    out += "# TYPE " + name + " " + kind + "\n";
  };
  for (const auto& [key, value] : counters) {
    SplitPrometheusKey(key, name, labels);
    // Prometheus counters carry the _total suffix on the sample name.
    if (!EndsWithTotal(name)) name += "_total";
    type_line("counter");
    AppendPrometheusLine(out, name, labels, "", static_cast<double>(value));
  }
  for (const auto& [key, value] : gauges) {
    SplitPrometheusKey(key, name, labels);
    type_line("gauge");
    AppendPrometheusLine(out, name, labels, "", value);
  }
  for (const auto& [key, stats] : histograms) {
    SplitPrometheusKey(key, name, labels);
    type_line("summary");
    AppendPrometheusLine(out, name, labels, "quantile=\"0.5\"", stats.p50);
    AppendPrometheusLine(out, name, labels, "quantile=\"0.95\"", stats.p95);
    AppendPrometheusLine(out, name, labels, "quantile=\"0.99\"", stats.p99);
    AppendPrometheusLine(out, name + "_sum", labels, "", stats.sum);
    AppendPrometheusLine(out, name + "_count", labels, "",
                         static_cast<double>(stats.count));
  }
  return out;
}

}  // namespace ivmf::obs
