// Shared helpers for the experiment harnesses in bench/.
//
// Each binary regenerates one table or figure of the paper's evaluation
// (see DESIGN.md for the index). Output is plain text in the same row /
// column layout the paper uses so results can be compared side by side.

#ifndef IVMF_BENCH_BENCH_UTIL_H_
#define IVMF_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "base/check.h"
#include "base/flags.h"
#include "base/stopwatch.h"
#include "core/accuracy.h"
#include "core/isvd.h"
#include "core/lp_isvd.h"
#include "obs/export_flags.h"
#include "obs/metrics.h"
#include "sparse/shard_store.h"

namespace ivmf::bench {

// -- Minimal flag parsing ---------------------------------------------------
// One shared implementation (base/flags.h), re-exported so bench code keeps
// calling the unqualified names.

using ivmf::BoolFlag;
using ivmf::DoubleFlag;
using ivmf::IntFlag;
using ivmf::StringFlag;

// -- Machine-readable results -------------------------------------------------
//
// Every bench accepts --json=PATH (or bare --json, defaulting to
// BENCH_<bench>.json in the working directory) and emits one flat JSON
// record per measured row alongside the human-readable table, so CI can
// track the perf trajectory without scraping text.

// Resolves the --json flag to an output path; "" means disabled.
inline std::string JsonPathFlag(int argc, char** argv,
                                const char* bench_name) {
  const std::string explicit_path = StringFlag(argc, argv, "json", "");
  if (!explicit_path.empty()) return explicit_path;
  if (BoolFlag(argc, argv, "json")) {
    return std::string("BENCH_") + bench_name + ".json";
  }
  return "";
}

// Collects flat records and writes them as a JSON array. Values are
// rendered eagerly, so Field() accepts mixed types without a variant.
class JsonWriter {
 public:
  // Empty path disables the writer; every call becomes a no-op.
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void BeginRecord() {
    if (enabled()) records_.emplace_back();
  }

  void Field(const char* key, double value) {
    // NaN / Inf have no JSON representation; "null" keeps the record
    // parseable instead of poisoning the whole file.
    if (!std::isfinite(value)) {
      Raw(key, "null");
      return;
    }
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    Raw(key, buffer);
  }
  void Field(const char* key, size_t value) {
    Raw(key, std::to_string(value));
  }
  void Field(const char* key, int value) { Raw(key, std::to_string(value)); }
  void Field(const char* key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  // The literal overload matters: without it a string literal would take
  // the bool overload through pointer decay.
  void Field(const char* key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const char* key, const std::string& value) {
    Raw(key, "\"" + obs::JsonEscape(value) + "\"");
  }

  // Writes the collected array; returns false on I/O failure (and is a
  // successful no-op when disabled).
  bool Finish() const {
    if (!enabled()) return true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[\n", out);
    for (size_t r = 0; r < records_.size(); ++r) {
      std::fputs("  {", out);
      for (size_t f = 0; f < records_[r].size(); ++f) {
        std::fprintf(out, "%s\"%s\": %s", f == 0 ? "" : ", ",
                     records_[r][f].first.c_str(),
                     records_[r][f].second.c_str());
      }
      std::fprintf(out, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", out);
    const bool ok = std::fclose(out) == 0;
    if (ok) std::printf("wrote %zu records to %s\n", records_.size(),
                        path_.c_str());
    return ok;
  }

 private:
  void Raw(const char* key, std::string value) {
    if (!enabled()) return;
    IVMF_CHECK_MSG(!records_.empty(),
                   "JsonWriter::Field before the first BeginRecord");
    records_.back().emplace_back(key, std::move(value));
  }

  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

// -- Memory accounting --------------------------------------------------------

// Peak resident set size of the process so far, in bytes. getrusage reports
// ru_maxrss in KiB on Linux (and bytes on some BSDs — this header targets
// the Linux convention the CI runners use). High-water mark: it never
// decreases, so per-phase deltas need a fresh process.
inline size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

// The memory record every bench JSON carries: the process peak RSS and the
// bytes currently mmap'd by shard stores (0 for in-core benches). Both are
// lower-is-better for the perf gate (obs/bench_diff.cc knows the names).
inline void WriteMemoryFields(JsonWriter& json) {
  json.Field("peak_rss_bytes", PeakRssBytes());
  json.Field("mapped_bytes", MappedBytesTotal());
}

// -- Solver internals ---------------------------------------------------------

// Difference of the solver-side counters between two registry snapshots:
// what one measured phase cost in matvecs / Krylov iterations, and which
// refresh path the streaming layer took. Benches bracket a phase with
// Snapshot() calls and emit the delta next to the wall clock, so the
// BENCH_*.json perf trajectory records why a number moved, not only that
// it did.
struct SolverCounterDeltas {
  uint64_t matvecs = 0;        // sparse kernel invocations, all kernels
  uint64_t matvec_nnz = 0;     // nonzeros those invocations streamed
  uint64_t iterations = 0;     // Krylov steps of the Lanczos eigensolver
  uint64_t restarts = 0;       // invariant-subspace restarts
  uint64_t warm_refreshes = 0;
  uint64_t cold_refreshes = 0;

  SolverCounterDeltas() = default;
  SolverCounterDeltas(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after) {
    const auto delta = [&](const char* prefix) {
      return after.CounterSum(prefix) - before.CounterSum(prefix);
    };
    // Every sparse kernel is a block-row store kernel and counts under
    // sparse.sharded.matvec.*.
    matvecs = delta("sparse.sharded.matvec.calls");
    matvec_nnz = delta("sparse.sharded.matvec.nnz");
    iterations = delta("lanczos.eig.iterations");
    restarts = delta("lanczos.eig.restarts");
    warm_refreshes = delta("streaming.refresh.count{mode=warm}");
    cold_refreshes = delta("streaming.refresh.count{mode=cold}");
  }

  double warm_hit_rate() const {
    const uint64_t total = warm_refreshes + cold_refreshes;
    return total > 0 ? static_cast<double>(warm_refreshes) / total : 0.0;
  }

  void WriteFields(JsonWriter& json) const {
    json.Field("matvecs", static_cast<size_t>(matvecs));
    json.Field("matvec_nnz", static_cast<size_t>(matvec_nnz));
    json.Field("krylov_iterations", static_cast<size_t>(iterations));
    json.Field("krylov_restarts", static_cast<size_t>(restarts));
    json.Field("warm_refreshes", static_cast<size_t>(warm_refreshes));
    json.Field("cold_refreshes", static_cast<size_t>(cold_refreshes));
    json.Field("warm_hit_rate", warm_hit_rate());
  }
};

// Honors an optional --metrics-json=PATH flag: dumps the full registry
// snapshot (counters, gauges, histogram percentiles) next to the bench's
// BENCH_*.json, in the same format ivmf_serve writes. Returns false only on
// I/O failure with the flag set. One parse + one writer shared with the
// tools (obs/export_flags.h) so the flag surface cannot drift.
inline bool MaybeWriteMetricsSnapshot(int argc, char** argv) {
  obs::ObsCliOptions options = obs::ParseObsCliOptions(argc, argv);
  // Benches never started span collection, so an exit-time --trace dump
  // would always be empty; only the metrics part of the surface applies.
  options.trace_path.clear();
  return obs::WriteObsOutputs(options);
}

// -- Strategy sweeps ----------------------------------------------------------

struct MethodScore {
  std::string name;
  double harmonic_mean = 0.0;
  double seconds = 0.0;
  PhaseTimings timings;
};

// Runs ISVD0 and ISVD1–ISVD4 under the given target on one matrix,
// reusing `gram` for strategies 2–4. Appends one MethodScore per method.
inline void ScoreIsvdFamily(const IntervalMatrix& m, size_t rank,
                            DecompositionTarget target, const GramEig& gram,
                            std::vector<MethodScore>& out,
                            bool include_isvd0 = true) {
  IsvdOptions options;
  options.target = target;
  for (int strategy = include_isvd0 ? 0 : 1; strategy <= 4; ++strategy) {
    // ISVD0 is target-c only; report it once under target c.
    if (strategy == 0 && target != DecompositionTarget::kC) continue;
    Stopwatch sw;
    IsvdResult result;
    switch (strategy) {
      case 0:
        result = Isvd0(m, rank, options);
        break;
      case 1:
        result = Isvd1(m, rank, options);
        break;
      case 2:
        result = Isvd2(m, rank, gram, options);
        break;
      case 3:
        result = Isvd3(m, rank, gram, options);
        break;
      default:
        result = Isvd4(m, rank, gram, options);
        break;
    }
    MethodScore score;
    score.name = IsvdName(strategy, target);
    score.seconds = (strategy >= 2)
                        ? sw.Seconds() + gram.preprocess_seconds +
                              gram.decompose_seconds
                        : sw.Seconds();
    score.harmonic_mean =
        DecompositionAccuracy(m, result.Reconstruct()).harmonic_mean;
    score.timings = result.timings;
    out.push_back(score);
  }
}

// Accumulates per-method means over trials.
class ScoreAccumulator {
 public:
  void Add(const std::vector<MethodScore>& scores) {
    for (const MethodScore& s : scores) {
      Entry& e = entries_[s.name];
      e.h_sum += s.harmonic_mean;
      e.sec_sum += s.seconds;
      e.timings += s.timings;
      ++e.count;
    }
    ++trials_;
  }

  double MeanH(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end() || it->second.count == 0) return 0.0;
    return it->second.h_sum / it->second.count;
  }

  double MeanSeconds(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end() || it->second.count == 0) return 0.0;
    return it->second.sec_sum / it->second.count;
  }

  PhaseTimings MeanTimings(const std::string& name) const {
    PhaseTimings t;
    const auto it = entries_.find(name);
    if (it == entries_.end() || it->second.count == 0) return t;
    t = it->second.timings;
    const double inv = 1.0 / it->second.count;
    t.preprocess *= inv;
    t.decompose *= inv;
    t.align *= inv;
    t.solve *= inv;
    t.recompute *= inv;
    t.renormalize *= inv;
    return t;
  }

  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

 private:
  struct Entry {
    double h_sum = 0.0;
    double sec_sum = 0.0;
    PhaseTimings timings;
    int count = 0;
  };
  std::map<std::string, Entry> entries_;
  int trials_ = 0;
};

// -- Formatting ---------------------------------------------------------------

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const char* title) {
  PrintRule();
  std::printf("%s\n", title);
  PrintRule();
}

}  // namespace ivmf::bench

#endif  // IVMF_BENCH_BENCH_UTIL_H_
