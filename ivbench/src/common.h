// Shared pieces of the repository benchmark: the run options, the result
// record every workload fills (metrics, op counts, failed checks, input and
// host properties), exact-sample statistics, and process resource probes.
//
// Every metric is tagged end-to-end ("e2e") or per-layer ("layer"); the
// Python runner prints the e2e set for untraced runs and the layer set for
// traced runs, as BENCHMARK.json declares them.

#ifndef IVBENCH_COMMON_H_
#define IVBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ivbench {

using Clock = std::chrono::steady_clock;

// Seconds between two steady-clock points.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input;    // ingest_decompose: the prepared triplet file
  std::string out_dir;  // where the spans of a traced run are written
  std::string commit;   // source revision, recorded with the host
  bool print_pins = false;  // print the values the correctness pins hold
};

// Exact order statistics over recorded samples (the benchmark keeps every
// sample, so percentiles carry no bucket error).
double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
// Coefficient of variation (population stddev / mean).
double CoefficientOfVariation(const std::vector<double>& values);

// The result of one benchmark run.
class Report {
 public:
  enum class Kind { kEndToEnd, kLayer };

  void Metric(const std::string& name, double value, const std::string& unit,
              Kind kind, size_t samples = 0);
  void E2e(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    Metric(name, value, unit, Kind::kEndToEnd, samples);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    Metric(name, value, unit, Kind::kLayer);
  }

  // Counts one attempted operation of `op` in `phase`; `ok` false counts it
  // as failed too.
  void Op(const std::string& phase, const std::string& op, bool ok);
  // Adds `attempted` operations (of which `failed` failed) in one call.
  void Ops(const std::string& phase, const std::string& op, size_t attempted,
           size_t failed);
  // Records why a check failed (the first few messages are kept verbatim).
  void FailMessage(const std::string& message);

  // Free-form input / host properties ("inputs" and "host" objects).
  void Input(const std::string& key, const std::string& json_value);
  void Host(const std::string& key, const std::string& json_value);
  // The raw samples behind a metric (kept in the report for inspection).
  void Samples(const std::string& name, const std::vector<double>& values);
  // A top-level JSON member of the report (e.g. the ledger).
  void Section(const std::string& key, const std::string& json_value);

  size_t attempted() const;
  size_t failed() const;

  // The whole record as one JSON object.
  std::string ToJson() const;

  // Human-readable summary on stderr.
  void PrintSummary(const std::string& workload) const;

 private:
  struct MetricValue {
    double value = 0.0;
    std::string unit;
    Kind kind = Kind::kLayer;
    size_t samples = 0;
  };
  struct OpCount {
    size_t attempted = 0;
    size_t failed = 0;
  };
  std::vector<std::pair<std::string, MetricValue>> metrics_;
  std::map<std::pair<std::string, std::string>, OpCount> ops_;
  std::vector<std::string> fail_messages_;
  size_t fail_message_count_ = 0;
  std::vector<std::pair<std::string, std::string>> inputs_;
  std::vector<std::pair<std::string, std::string>> host_;
  std::vector<std::pair<std::string, std::string>> sections_;
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
};

// JSON helpers for the report's free-form objects.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

// -- Process resources --------------------------------------------------------

// Peak resident set size (VmHWM) in bytes; falls back to getrusage.
size_t PeakRssBytes();
// Current resident set size (VmRSS) in bytes.
size_t CurrentRssBytes();
// Resets the peak-RSS high-water mark to the current RSS (Linux
// /proc/self/clear_refs); returns false when the kernel refuses.
bool ResetPeakRss();
// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();

// Records nproc, CPU model, L3 size, AVX2 support, build type and source
// revision into the report's host object.
void RecordHost(Report& report);
// L3 cache size in bytes as the OS reports it (0 when unknown).
size_t L3CacheBytes();

}  // namespace ivbench

#endif  // IVBENCH_COMMON_H_
