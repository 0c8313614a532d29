// ivbench — the repository benchmark's measuring program (see README.md).
//
//   ivbench gen --seed=N --out=FILE
//       Writes the ingest_decompose input (a triplet file) for seed N.
//   ivbench run --workload=W --seed=N --seconds=S --trace=0|1
//               --report=FILE [--input=FILE] [--out_dir=DIR] [--commit=REV]
//               [--print_pins]
//       Runs one workload and writes its report (metrics, op counts,
//       inputs, host, and for traced runs the ledger) as JSON to FILE.
//
// Exit status: 0 when the workload ran (its checks may still have failed;
// the report says), 1 when it could not run, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "base/flags.h"
#include "common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ivbench gen --seed=N --out=FILE\n"
               "       ivbench run --workload=W --seed=N --seconds=S "
               "--trace=0|1 --report=FILE [--input=FILE] [--out_dir=DIR] "
               "[--commit=REV] [--print_pins]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const uint64_t seed = std::strtoull(
      ivmf::StringFlag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  if (command == "gen") {
    const std::string out = ivmf::StringFlag(argc, argv, "out", "");
    if (out.empty()) {
      Usage();
      return 2;
    }
    return ivbench::WriteIngestInput(seed, out) ? 0 : 1;
  }
  if (command != "run") {
    Usage();
    return 2;
  }
  ivbench::RunOptions options;
  options.workload = ivmf::StringFlag(argc, argv, "workload", "");
  options.seed = seed;
  options.seconds = ivmf::DoubleFlag(argc, argv, "seconds", 10.0);
  options.trace = ivmf::IntFlag(argc, argv, "trace", 0) != 0;
  options.input = ivmf::StringFlag(argc, argv, "input", "");
  options.out_dir = ivmf::StringFlag(argc, argv, "out_dir", ".");
  options.commit = ivmf::StringFlag(argc, argv, "commit", "unknown");
  options.print_pins = ivmf::BoolFlag(argc, argv, "print_pins");
  const std::string report_path = ivmf::StringFlag(argc, argv, "report", "");
  if (options.workload.empty() || report_path.empty() ||
      !(options.seconds > 0.0)) {
    Usage();
    return 2;
  }

  ivbench::Report report;
  const bool ran = ivbench::RunWorkload(options, report);
  report.PrintSummary(options.workload);
  std::ofstream out(report_path);
  out << report.ToJson() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }
  return ran ? 0 : 1;
}
