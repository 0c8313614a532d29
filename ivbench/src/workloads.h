// The three workloads of the repository benchmark (README.md gives the
// rationale and the layer -> metric predictions).

#ifndef IVBENCH_WORKLOADS_H_
#define IVBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace ivbench {

// Writes the ingest_decompose input for `seed` as a triplet file (the
// untimed preparation step, run in its own process). Returns false on
// failure.
bool WriteIngestInput(uint64_t seed, const std::string& path);

// Runs one workload; fills `report` (metrics, op counts, checks) and writes
// the ledger and spans into options.out_dir when tracing. Returns false when
// the workload could not run at all (bad input file, unknown workload).
bool RunWorkload(const RunOptions& options, Report& report);

}  // namespace ivbench

#endif  // IVBENCH_WORKLOADS_H_
