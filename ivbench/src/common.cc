#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "obs/metrics.h"
#include "sparse/sparse_kernels.h"

#ifndef IVBENCH_BUILD_TYPE
#define IVBENCH_BUILD_TYPE "unknown"
#endif

namespace ivbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double CoefficientOfVariation(const std::vector<double>& values) {
  const double mean = Mean(values);
  if (values.empty() || mean == 0.0) return 0.0;
  double sq = 0.0;
  for (double v : values) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(values.size())) / mean;
}

// -- Report -------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, Kind kind, size_t samples) {
  for (auto& [existing, metric] : metrics_) {
    if (existing == name) {
      metric = {value, unit, kind, samples};
      return;
    }
  }
  metrics_.push_back({name, {value, unit, kind, samples}});
}

void Report::Op(const std::string& phase, const std::string& op, bool ok) {
  Ops(phase, op, 1, ok ? 0 : 1);
}

void Report::Ops(const std::string& phase, const std::string& op,
                 size_t attempted, size_t failed) {
  OpCount& count = ops_[{phase, op}];
  count.attempted += attempted;
  count.failed += failed;
}

void Report::FailMessage(const std::string& message) {
  constexpr size_t kKeptMessages = 20;
  if (fail_messages_.size() < kKeptMessages) fail_messages_.push_back(message);
  ++fail_message_count_;
}

void Report::Input(const std::string& key, const std::string& json_value) {
  inputs_.push_back({key, json_value});
}

void Report::Host(const std::string& key, const std::string& json_value) {
  host_.push_back({key, json_value});
}

void Report::Samples(const std::string& name,
                     const std::vector<double>& values) {
  samples_.push_back({name, values});
}

void Report::Section(const std::string& key, const std::string& json_value) {
  sections_.push_back({key, json_value});
}

size_t Report::attempted() const {
  size_t total = 0;
  for (const auto& [key, count] : ops_) total += count.attempted;
  return total;
}

size_t Report::failed() const {
  size_t total = 0;
  for (const auto& [key, count] : ops_) total += count.failed;
  return total;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  return "\"" + ivmf::obs::JsonEscape(s) + "\"";
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted() << ", \"failed\": " << failed()
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    out << (i == 0 ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
        << ", \"kind\": \""
        << (m.kind == Kind::kEndToEnd ? "e2e" : "layer") << "\"";
    if (m.samples > 0) out << ", \"samples\": " << m.samples;
    out << "}";
  }
  out << "}, \"ops\": [";
  bool first = true;
  for (const auto& [key, count] : ops_) {
    out << (first ? "" : ", ") << "{\"phase\": " << JsonString(key.first)
        << ", \"op\": " << JsonString(key.second)
        << ", \"attempted\": " << count.attempted
        << ", \"succeeded\": " << count.attempted - count.failed
        << ", \"failed\": " << count.failed << "}";
    first = false;
  }
  out << "], \"fail_messages\": [";
  for (size_t i = 0; i < fail_messages_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(fail_messages_[i]);
  }
  out << "], \"fail_message_count\": " << fail_message_count_;
  const auto object = [&out](const char* key,
                             const std::vector<std::pair<std::string,
                                                         std::string>>& kv) {
    out << ", \"" << key << "\": {";
    for (size_t i = 0; i < kv.size(); ++i) {
      out << (i == 0 ? "" : ", ") << JsonString(kv[i].first) << ": "
          << kv[i].second;
    }
    out << "}";
  };
  object("inputs", inputs_);
  object("host", host_);
  out << ", \"samples\": {";
  for (size_t i = 0; i < samples_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(samples_[i].first) << ": [";
    for (size_t k = 0; k < samples_[i].second.size(); ++k) {
      out << (k == 0 ? "" : ", ") << JsonNumber(samples_[i].second[k]);
    }
    out << "]";
  }
  out << "}";
  for (const auto& [key, value] : sections_) {
    out << ", " << JsonString(key) << ": " << value;
  }
  out << "}";
  return out.str();
}

void Report::PrintSummary(const std::string& workload) const {
  std::fprintf(stderr, "== %s ==\n", workload.c_str());
  for (const auto& [name, m] : metrics_) {
    std::fprintf(stderr, "  %-6s %-40s %16.6g %-8s",
                 m.kind == Kind::kEndToEnd ? "e2e" : "layer", name.c_str(),
                 m.value, m.unit.c_str());
    if (m.samples > 0) std::fprintf(stderr, " (n=%zu)", m.samples);
    std::fputc('\n', stderr);
  }
  for (const auto& [key, count] : ops_) {
    std::fprintf(stderr, "  ops %-18s %-22s attempted %8zu failed %zu\n",
                 key.first.c_str(), key.second.c_str(), count.attempted,
                 count.failed);
  }
  for (const std::string& message : fail_messages_) {
    std::fprintf(stderr, "  FAILED CHECK: %s\n", message.c_str());
  }
}

// -- Process resources --------------------------------------------------------

namespace {

// Value in KiB of a "Key:   123 kB" line of /proc/self/status (0 if absent).
size_t ProcStatusKib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return static_cast<size_t>(
          std::strtoull(line.c_str() + key.size() + 1, nullptr, 10));
    }
  }
  return 0;
}

std::string FirstCpuinfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "";
}

}  // namespace

size_t PeakRssBytes() {
  const size_t kib = ProcStatusKib("VmHWM");
  if (kib > 0) return kib * 1024;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

size_t CurrentRssBytes() { return ProcStatusKib("VmRSS") * 1024; }

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

size_t L3CacheBytes() {
  // The sysfs cache index with level 3, in "<n>K" form.
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(base + "/level");
    int level = 0;
    if (!(level_in >> level) || level != 3) continue;
    std::ifstream size_in(base + "/size");
    std::string size;
    if (!(size_in >> size) || size.empty()) continue;
    size_t value = std::strtoull(size.c_str(), nullptr, 10);
    const char unit = size.back();
    if (unit == 'K') value <<= 10;
    if (unit == 'M') value <<= 20;
    return value;
  }
  return 0;
}

void RecordHost(Report& report) {
  report.Host("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Host("cpu_model", JsonString(FirstCpuinfoField("model name")));
  report.Host("l3_bytes", std::to_string(L3CacheBytes()));
  report.Host("avx2_compiled", ivmf::spk::Avx2Compiled() ? "true" : "false");
  report.Host("avx2_supported",
              ivmf::spk::Avx2Supported() ? "true" : "false");
  report.Host("build_type", JsonString(IVBENCH_BUILD_TYPE));
}

}  // namespace ivbench
