#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace ivbench {

namespace {

// The layer a span counts toward: the prefix of its name, with the library's
// own span families mapped to the module they live in.
std::string LayerOf(const std::string& name) {
  const std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "serving") return "serve";
  if (prefix == "streaming") return "core";
  if (prefix == "lanczos") return "linalg";
  return prefix;
}

bool IsRoot(const std::string& name) { return name.rfind("thread.", 0) == 0; }

// One "B"/"E" event of the collector's export, whose objects read
// {"name":"…","cat":"ivmf","ph":"B","pid":1,"tid":3,"ts":12.345}.
struct Event {
  std::string name;
  char phase = 0;
  long tid = 0;
  int64_t ts_ns = 0;
};

// Parses the event starting at `pos`; returns false when none is left.
bool NextEvent(const std::string& json, size_t& pos, Event& event) {
  static const std::string kName = "{\"name\":\"";
  pos = json.find(kName, pos);
  if (pos == std::string::npos) return false;
  const size_t name_start = pos + kName.size();
  const size_t name_end = json.find('"', name_start);
  if (name_end == std::string::npos) return false;
  event.name = json.substr(name_start, name_end - name_start);
  const size_t ph = json.find("\"ph\":\"", name_end);
  const size_t tid = json.find("\"tid\":", name_end);
  const size_t ts = json.find("\"ts\":", name_end);
  if (ph == std::string::npos || tid == std::string::npos ||
      ts == std::string::npos) {
    return false;
  }
  event.phase = json[ph + 6];
  event.tid = std::strtol(json.c_str() + tid + 6, nullptr, 10);
  // Microseconds with three decimals: whole nanoseconds.
  event.ts_ns = std::llround(1e3 * std::strtod(json.c_str() + ts + 5, nullptr));
  pos = ts;
  return true;
}

}  // namespace

Ledger BuildLedger(const std::string& chrome_trace_json) {
  struct Frame {
    std::string name;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct ThreadState {
    std::vector<Frame> stack;
    std::string name;
    int64_t total_ns = 0;
    int64_t unaccounted_ns = 0;
  };
  struct RowNs {
    size_t count = 0;
    int64_t inclusive_ns = 0, self_ns = 0;
  };

  Ledger ledger;
  std::map<long, ThreadState> threads;
  std::map<std::string, RowNs> rows;
  std::map<std::string, int64_t> layer_ns;
  Event event;
  for (size_t pos = 0; NextEvent(chrome_trace_json, pos, event);) {
    ThreadState& thread = threads[event.tid];
    if (event.phase == 'B') {
      if (thread.stack.empty() && thread.name.empty()) {
        thread.name = IsRoot(event.name) ? event.name : "library:" + event.name;
      }
      thread.stack.push_back({event.name, event.ts_ns, 0});
      continue;
    }
    if (thread.stack.empty() || thread.stack.back().name != event.name) {
      ledger.well_formed = false;
      continue;
    }
    const Frame frame = thread.stack.back();
    thread.stack.pop_back();
    const int64_t duration = event.ts_ns - frame.start_ns;
    const int64_t self = duration - frame.child_ns;
    if (!thread.stack.empty()) thread.stack.back().child_ns += duration;
    if (thread.stack.empty()) thread.total_ns += duration;
    if (thread.stack.empty() && IsRoot(frame.name)) {
      thread.unaccounted_ns += self;
      continue;
    }
    RowNs& row = rows[frame.name];
    ++row.count;
    row.inclusive_ns += duration;
    row.self_ns += self;
    layer_ns[LayerOf(frame.name)] += self;
  }

  int64_t total_ns = 0, unaccounted_ns = 0;
  for (const auto& [tid, thread] : threads) {
    if (!thread.stack.empty()) ledger.well_formed = false;
    ledger.threads.push_back({thread.name, 1e-9 * thread.total_ns,
                              1e-9 * thread.unaccounted_ns});
    total_ns += thread.total_ns;
    unaccounted_ns += thread.unaccounted_ns;
  }
  ledger.total_s = 1e-9 * total_ns;
  ledger.unaccounted_s = 1e-9 * unaccounted_ns;
  for (const auto& [layer, ns] : layer_ns) ledger.layer_self[layer] = 1e-9 * ns;
  for (const auto& [name, row] : rows) {
    ledger.rows.push_back(
        {name, row.count, 1e-9 * row.inclusive_ns, 1e-9 * row.self_ns});
  }
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.self_s > b.self_s;
            });
  return ledger;
}

std::string LedgerJson(const Ledger& ledger) {
  std::string out = "{\"total_thread_s\": " + JsonNumber(ledger.total_s) +
                    ", \"unaccounted_s\": " +
                    JsonNumber(ledger.unaccounted_s) +
                    ", \"unaccounted_frac\": " +
                    JsonNumber(ledger.unaccounted_fraction()) +
                    ", \"well_formed\": " +
                    (ledger.well_formed ? "true" : "false") + ", \"layers\": {";
  bool first = true;
  for (const auto& [layer, self] : ledger.layer_self) {
    out += (first ? "" : ", ") + JsonString(layer) + ": " + JsonNumber(self);
    first = false;
  }
  out += "}, \"threads\": [";
  for (size_t i = 0; i < ledger.threads.size(); ++i) {
    const Ledger::Thread& thread = ledger.threads[i];
    out += (i == 0 ? "" : ", ");
    out += "{\"name\": " + JsonString(thread.name) +
           ", \"total_s\": " + JsonNumber(thread.total_s) +
           ", \"unaccounted_s\": " + JsonNumber(thread.unaccounted_s) + "}";
  }
  out += "], \"spans\": [";
  for (size_t i = 0; i < ledger.rows.size(); ++i) {
    const LedgerRow& row = ledger.rows[i];
    out += (i == 0 ? "" : ", ");
    out += "{\"name\": " + JsonString(row.name) +
           ", \"count\": " + std::to_string(row.count) +
           ", \"inclusive_s\": " + JsonNumber(row.inclusive_s) +
           ", \"self_s\": " + JsonNumber(row.self_s) + "}";
  }
  out += "]}";
  return out;
}

void PrintLedger(const Ledger& ledger) {
  std::fprintf(stderr,
               "  ledger: %.3f thread-s over %zu threads, unaccounted %.4f s "
               "(%.2f%%)\n",
               ledger.total_s, ledger.threads.size(), ledger.unaccounted_s,
               100.0 * ledger.unaccounted_fraction());
  for (const Ledger::Thread& thread : ledger.threads) {
    std::fprintf(stderr, "    thread %-24s %10.4f s  unaccounted %.4f s\n",
                 thread.name.c_str(), thread.total_s, thread.unaccounted_s);
  }
  for (const auto& [layer, self] : ledger.layer_self) {
    std::fprintf(stderr, "    layer %-10s self %10.4f s  %6.2f%%\n",
                 layer.c_str(), self,
                 ledger.total_s > 0 ? 100.0 * self / ledger.total_s : 0.0);
  }
  for (const LedgerRow& row : ledger.rows) {
    std::fprintf(stderr, "    span %-30s n %8zu  incl %10.4f s  self %10.4f s\n",
                 row.name.c_str(), row.count, row.inclusive_s, row.self_s);
  }
}

}  // namespace ivbench
