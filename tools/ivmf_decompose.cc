// ivmf_decompose — command-line interval SVD.
//
// Reads an interval matrix from a file and auto-detects the format: dense
// interval CSV (cells `lo:hi`, bare numbers are scalars) or the sparse
// triplet format of io/triplets.h (first line `%%ivmf interval coordinate`).
// Runs the selected ISVD strategy / decomposition target, prints the Θ_HM
// reconstruction accuracy, and optionally writes the factors. Triplet input
// is decomposed through the matrix-free sparse path — all five strategies,
// signed or non-negative; accuracy and the dense reconstruction output are
// skipped when the dense shape would be unreasonably large.
//
// Usage:
//   ivmf_decompose --input=m.csv [--rank=10] [--strategy=4] [--target=b]
//                  [--matcher=hungarian|greedy|stable] [--eig=jacobi|lanczos]
//                  [--shard_rows=N] [--backing=memory|mmap|auto:MB]
//                  [--out_prefix=result]
//
// With --out_prefix=P the tool writes P_u.csv, P_sigma.csv, P_v.csv (interval
// CSV for interval-valued outputs, scalar CSV otherwise) and P_recon.csv.
//
// Triplet input decomposes through a zero-copy block-row view of the
// loaded matrix on the smaller Gram side; a transpose is built only when
// the matrix is wider than it is tall. --shard_rows=N (triplet input only)
// instead copies the matrix into a block-row store of N-row shards, which
// always eigendecomposes MᵀM. --backing selects where those shard segments live: memory
// (default), mmap (segment files in a temp store — the out-of-core path),
// or auto:MB (memory unless the estimated store exceeds MB mebibytes).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "base/flags.h"
#include "core/accuracy.h"
#include "core/isvd.h"
#include "core/sparse_isvd.h"
#include "io/csv.h"
#include "io/file_util.h"
#include "io/triplets.h"
#include "obs/log.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"

namespace {

using ivmf::IntFlag;
using ivmf::StringFlag;

void Usage() {
  std::fprintf(stderr,
               "usage: ivmf_decompose --input=FILE.csv [--rank=N] "
               "[--strategy=0..4] [--target=a|b|c]\n"
               "                      [--matcher=hungarian|greedy|stable] "
               "[--eig=jacobi|lanczos]\n"
               "                      [--shard_rows=N] "
               "[--backing=memory|mmap|auto:MB] [--out_prefix=P]\n"
               "triplet input runs on a zero-copy view of the matrix "
               "(transposed only when wide);\n"
               "--shard_rows copies it into N-row shards (MtM Gram "
               "only), stored per --backing\n");
}

// Parses --backing. Returns false (after Usage) on a malformed value.
bool ParseBacking(const std::string& backing, ivmf::BackingPolicy* policy) {
  if (backing.empty() || backing == "memory") {
    *policy = ivmf::BackingPolicy::Memory();
    return true;
  }
  if (backing == "mmap") {
    *policy = ivmf::BackingPolicy::Mmap();
    return true;
  }
  constexpr char kAutoPrefix[] = "auto:";
  if (backing.rfind(kAutoPrefix, 0) == 0) {
    char* end = nullptr;
    const std::string mb = backing.substr(sizeof(kAutoPrefix) - 1);
    const unsigned long long value = std::strtoull(mb.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && !mb.empty()) {
      *policy = ivmf::BackingPolicy::Auto(static_cast<size_t>(value) << 20);
      return true;
    }
  }
  Usage();
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ivmf;

  const std::string input = StringFlag(argc, argv, "input", "");
  if (input.empty()) {
    Usage();
    return 2;
  }

  const std::optional<std::string> loaded =
      io_internal::ReadFileToString(input);
  if (!loaded) {
    obs::LogError("decompose_cli", "cannot read input", {{"path", input}});
    return 1;
  }
  const std::string& text = *loaded;

  // Format auto-detection: triplet files announce themselves on line 1.
  const bool sparse_input = LooksLikeTriplets(text);
  std::optional<SparseIntervalMatrix> sparse;
  std::optional<IntervalMatrix> m;
  if (sparse_input) {
    std::string error;
    sparse = SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kReject,
                                              &error);
    if (!sparse) {
      obs::LogError("decompose_cli", "cannot parse interval triplets",
                    {{"path", input}, {"error", error}});
      return 1;
    }
    // Densify small matrices so accuracy / reconstruction still work.
    constexpr size_t kDensifyLimit = 4u << 20;  // dense cells
    if (sparse->rows() * sparse->cols() <= kDensifyLimit) {
      m = sparse->ToDense();
    }
  } else {
    m = IntervalMatrixFromCsv(text);
    if (!m) {
      obs::LogError("decompose_cli", "cannot parse interval CSV",
                    {{"path", input}});
      return 1;
    }
  }

  const int strategy = IntFlag(argc, argv, "strategy", 4);
  if (strategy < 0 || strategy > 4) {
    Usage();
    return 2;
  }
  const size_t rank = static_cast<size_t>(IntFlag(argc, argv, "rank", 0));

  IsvdOptions options;
  const std::string target = StringFlag(argc, argv, "target", "b");
  if (target == "a") {
    options.target = DecompositionTarget::kA;
  } else if (target == "b") {
    options.target = DecompositionTarget::kB;
  } else if (target == "c") {
    options.target = DecompositionTarget::kC;
  } else {
    Usage();
    return 2;
  }
  const std::string matcher = StringFlag(argc, argv, "matcher", "hungarian");
  if (matcher == "greedy") {
    options.ilsa.matcher = AlignMatcher::kGreedy;
  } else if (matcher == "stable") {
    options.ilsa.matcher = AlignMatcher::kStableMarriage;
  } else if (matcher != "hungarian") {
    Usage();
    return 2;
  }
  // Dense input keeps the exact-by-default Jacobi solver; triplet input
  // defaults to the matrix-free Lanczos route (the reason to use triplets).
  const std::string eig = StringFlag(argc, argv, "eig", "");
  if (eig == "lanczos") {
    options.eig_solver = EigSolver::kLanczos;
  } else if (eig == "jacobi") {
    options.eig_solver = EigSolver::kJacobi;
  } else if (!eig.empty()) {
    Usage();
    return 2;
  } else if (sparse_input) {
    options.eig_solver = EigSolver::kLanczos;
  }
  options.gram_side = GramSide::kAuto;

  const size_t shard_rows =
      static_cast<size_t>(IntFlag(argc, argv, "shard_rows", 0));
  BackingPolicy backing;
  if (!ParseBacking(StringFlag(argc, argv, "backing", ""), &backing)) {
    return 2;
  }
  if (shard_rows > 0 && !sparse_input) {
    obs::LogError("decompose_cli",
                  "--shard_rows needs sparse triplet input", {});
    return 2;
  }

  IsvdResult result;
  if (sparse_input) {
    std::printf("input: %zu x %zu sparse interval matrix (%zu nnz, fill "
                "%.4f) from %s\n",
                sparse->rows(), sparse->cols(), sparse->nnz(),
                sparse->FillFraction(), input.c_str());
    if (shard_rows > 0) {
      const ShardedSparseIntervalMatrix sharded =
          ShardedSparseIntervalMatrix::FromCsr(*sparse, shard_rows, backing);
      std::printf("sharded: %zu shards of %zu rows, %s-backed\n",
                  sharded.num_shards(), sharded.shard_rows(),
                  sharded.mmap_backed() ? "mmap" : "memory");
      result = RunIsvd(strategy, sharded, rank, options);
    } else {
      result = RunIsvd(strategy, *sparse, rank, options);
    }
  } else {
    std::printf("input: %zu x %zu interval matrix from %s\n", m->rows(),
                m->cols(), input.c_str());
    result = RunIsvd(strategy, *m, rank, options);
  }

  IntervalMatrix recon;
  if (m.has_value()) {
    recon = result.Reconstruct();
    const AccuracyReport report = DecompositionAccuracy(*m, recon);
    std::printf("%s, rank %zu: Θ(min)=%.4f Θ(max)=%.4f Θ_HM=%.4f\n",
                IsvdName(strategy, options.target).c_str(), result.rank(),
                report.theta_min, report.theta_max, report.harmonic_mean);
  } else {
    std::printf("%s, rank %zu (dense shape too large: accuracy / "
                "reconstruction skipped)\n",
                IsvdName(strategy, options.target).c_str(), result.rank());
  }
  const PhaseTimings& t = result.timings;
  std::printf("time: total %.4fs (preproc %.4f, decomp %.4f, align %.4f, "
              "solve %.4f, recomp %.4f, renorm %.4f)\n",
              t.Total(), t.preprocess, t.decompose, t.align, t.solve,
              t.recompute, t.renormalize);

  const std::string prefix = StringFlag(argc, argv, "out_prefix", "");
  if (!prefix.empty()) {
    bool ok = true;
    if (options.target == DecompositionTarget::kA) {
      ok &= SaveIntervalMatrixCsv(prefix + "_u.csv", result.u);
      ok &= SaveIntervalMatrixCsv(prefix + "_v.csv", result.v);
    } else {
      ok &= SaveMatrixCsv(prefix + "_u.csv", result.ScalarU());
      ok &= SaveMatrixCsv(prefix + "_v.csv", result.ScalarV());
    }
    IntervalMatrix sigma(result.rank(), result.rank());
    for (size_t j = 0; j < result.rank(); ++j)
      sigma.Set(j, j, result.sigma[j]);
    ok &= SaveIntervalMatrixCsv(prefix + "_sigma.csv", sigma);
    if (m.has_value()) {
      ok &= SaveIntervalMatrixCsv(prefix + "_recon.csv", recon);
    }
    if (!ok) {
      obs::LogError("decompose_cli", "failed writing factor outputs",
                    {{"prefix", prefix}});
      return 1;
    }
    std::printf("wrote %s_{u,sigma,v%s}.csv\n", prefix.c_str(),
                m.has_value() ? ",recon" : "");
  }
  return 0;
}
