// The per-layer time ledger of a traced run, built from the spans the
// library's own collector (obs::TraceCollector) gathered.
//
// The benchmark never adds spans inside the library: it wraps each public
// call it makes (LoadSparseIntervalTriplets, RunIsvd, Acquire, Predict, ...)
// in an obs::TraceSpan named "<layer>.<call>", where the layer is the library
// module the call enters (io, sparse, linalg, core, serve) or a harness
// activity (gen, harness). Every thread the benchmark runs opens a root span
// named "thread.<name>" first. The library's existing spans (serving.step,
// streaming.*, lanczos.*) land in the same collection and count toward the
// serve, core and linalg layers.
//
// A span's self time is its duration minus the time its children cover.
// Summed by layer over every thread, the self times plus the roots' own self
// time ("unaccounted") add up to the total thread time exactly, which is the
// ledger's invariant. A thread the library owns (the engine writer) has no
// root: its total is the time its top-level spans cover, so time it spends
// blocked between refreshes is not thread time here.

#ifndef IVBENCH_LEDGER_H_
#define IVBENCH_LEDGER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ivbench {

// An obs::TraceSpan over a scope when `on`; otherwise nothing at all (not
// even the clock read a TraceSpan makes while collection is active). Lets a
// traced run keep untraced stretches as its overhead reference.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<ivmf::obs::TraceSpan> span_;
};

struct LedgerRow {
  std::string name;
  size_t count = 0;
  double inclusive_s = 0.0;
  double self_s = 0.0;
};

struct Ledger {
  double total_s = 0.0;        // thread-seconds over every thread
  double unaccounted_s = 0.0;  // sum of root self times
  std::vector<LedgerRow> rows;               // by span name, roots excluded
  std::map<std::string, double> layer_self;  // layer -> self seconds
  struct Thread {
    std::string name;  // its root span, or "library:<first span>"
    double total_s = 0.0;
    double unaccounted_s = 0.0;
  };
  std::vector<Thread> threads;
  bool well_formed = true;  // every span opened and closed in order

  double unaccounted_fraction() const {
    return total_s > 0.0 ? unaccounted_s / total_s : 0.0;
  }
};

// Builds the ledger from obs::TraceCollector::ChromeTraceJson() output.
Ledger BuildLedger(const std::string& chrome_trace_json);

// The ledger as a JSON object, and as a table on stderr.
std::string LedgerJson(const Ledger& ledger);
void PrintLedger(const Ledger& ledger);

}  // namespace ivbench

#endif  // IVBENCH_LEDGER_H_
