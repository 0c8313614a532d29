// Bit-identity probe for changes that must not move a bit of the ISVD
// results: prints every σ, U and V entry at %.17g over a fixed grid of
// dense, CSR and block-store decompositions. Build it against two trees'
// libivmf.a with the same compiler command and diff the outputs; a change
// that claims unchanged numerics must print the same bytes. For each tree,
// with <build> its CMake build directory:
//
//   g++ -std=c++17 -O2 -I<tree>/src tools/ivmf_isvd_probe.cc
//       <build>/libivmf.a -lpthread -o probe
//   ./probe > out.txt
//
// (The CMake build also builds it as ivmf_isvd_probe, which keeps it
// compiling; the comparison compiles both sides with one command.)
//
// The grid:
//  - dense 40x25 / 25x40 non-negative and 40x25 / 30x30 signed, × GramSide
//    kMtM/kMMt/kAuto × Jacobi/Lanczos × targets a/b/c: ISVD0–4 at rank 6
//    through RunIsvd, and ComputeGramEig → TruncateGramEig → Isvd2/3/4 at
//    rank 5; LpIsvd on a 10 x 7 matrix at rank 3;
//  - CSR 600x150 / 150x600 CF (fill 0.1) and 120x50 / 50x120 signed, × 3
//    sides × Jacobi/Lanczos/Auto × 3 targets: ISVD0–4 at rank 8;
//  - FromCsr block stores of the tall CSR inputs with 32-row shards, memory
//    and mmap backed, × Jacobi/Lanczos × 3 targets: ISVD0–4 at rank 8;
//  - a 0 x 5 CSR matrix on every side.
// It prints about 5.3M lines (~113 MB) in about two minutes on 4 vCPUs, and
// two runs of one build print the same bytes. It uses only the dense API,
// LpIsvd and the two sparse RunIsvd overloads, so one source builds against
// trees on either side of a refactor of the ISVD internals.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/isvd.h"
#include "core/lp_isvd.h"
#include "core/sparse_isvd.h"
#include "data/ratings.h"
#include "sparse/block_matrix.h"
#include "sparse/shard_store.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {
namespace {

const GramSide kSides[] = {GramSide::kMtM, GramSide::kMMt, GramSide::kAuto};
const char* const kSideNames[] = {"mtm", "mmt", "auto"};
const EigSolver kSolvers[] = {EigSolver::kJacobi, EigSolver::kLanczos,
                              EigSolver::kAuto};
const char* const kSolverNames[] = {"jacobi", "lanczos", "auto"};
const DecompositionTarget kTargets[] = {
    DecompositionTarget::kA, DecompositionTarget::kB, DecompositionTarget::kC};

void PrintMatrix(const char* tag, const Matrix& m) {
  std::printf("%s %zu %zu\n", tag, m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j) std::printf("%.17g\n", m(i, j));
}

void Print(const std::string& label, const IsvdResult& r) {
  std::printf("== %s target=%d rank=%zu iters=%zu\n", label.c_str(),
              static_cast<int>(r.target), r.rank(), r.iterations);
  for (const Interval& s : r.sigma) std::printf("s %.17g %.17g\n", s.lo, s.hi);
  PrintMatrix("ulo", r.u.lower());
  PrintMatrix("uhi", r.u.upper());
  PrintMatrix("vlo", r.v.lower());
  PrintMatrix("vhi", r.v.upper());
}

std::string Strategy(int s) { return " isvd" + std::to_string(s); }

IntervalMatrix DenseRandom(size_t n, size_t m, bool signed_values,
                           uint64_t seed) {
  Rng rng(seed);
  Matrix lo(n, m), hi(n, m);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < m; ++j) {
      lo(i, j) = signed_values ? rng.Uniform(-1.0, 1.0) : rng.Uniform(0.0, 1.0);
      hi(i, j) = lo(i, j) + rng.Uniform(0.0, 0.5);
    }
  return IntervalMatrix(lo, hi);
}

SparseIntervalMatrix SparseSigned(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalTriplet> t;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < m; ++j) {
      if (rng.Uniform() >= 0.3) continue;
      const double a = rng.Uniform(-2.0, 2.0);
      t.push_back({i, j, Interval(a, a + rng.Uniform())});
    }
  return SparseIntervalMatrix::FromTriplets(n, m, std::move(t));
}

SparseIntervalMatrix Cf(size_t users, size_t items, uint64_t seed) {
  RatingsConfig config;
  config.num_users = users;
  config.num_items = items;
  config.fill = 0.1;
  config.seed = seed;
  return SparseCfIntervalMatrix(GenerateSparseRatings(config), 0.3);
}

void DenseGrid() {
  struct DenseCase {
    const char* name;
    IntervalMatrix m;
  };
  const DenseCase cases[] = {
      {"nn40x25", DenseRandom(40, 25, false, 11)},
      {"nn25x40", DenseRandom(25, 40, false, 12)},
      {"sg40x25", DenseRandom(40, 25, true, 13)},
      {"sg30x30", DenseRandom(30, 30, true, 14)},
  };
  for (const DenseCase& c : cases)
    for (int side = 0; side < 3; ++side)
      for (int solver = 0; solver < 2; ++solver)
        for (DecompositionTarget target : kTargets) {
          IsvdOptions options;
          options.gram_side = kSides[side];
          options.eig_solver = kSolvers[solver];
          options.target = target;
          const std::string base = std::string(c.name) + " " +
                                   kSideNames[side] + " " +
                                   kSolverNames[solver];
          for (int s = 0; s <= 4; ++s)
            Print("dense " + base + Strategy(s), RunIsvd(s, c.m, 6, options));
          const GramEig cut =
              TruncateGramEig(ComputeGramEig(c.m, 0, options), 5);
          Print("dense-gram " + base + Strategy(2),
                Isvd2(c.m, 5, cut, options));
          Print("dense-gram " + base + Strategy(3),
                Isvd3(c.m, 5, cut, options));
          Print("dense-gram " + base + Strategy(4),
                Isvd4(c.m, 5, cut, options));
        }
  for (DecompositionTarget target : kTargets)
    for (int side = 0; side < 2; ++side) {
      IsvdOptions options;
      options.target = target;
      options.gram_side = kSides[side];
      Print(std::string("lp ") + kSideNames[side],
            LpIsvd(DenseRandom(10, 7, false, 15), 3, options));
    }
}

void SparseGrid() {
  struct SparseCase {
    const char* name;
    SparseIntervalMatrix m;
  };
  const SparseCase cases[] = {
      {"cf600x150", Cf(600, 150, 21)},
      {"cf150x600", Cf(150, 600, 22)},
      {"sg120x50", SparseSigned(120, 50, 23)},
      {"sg50x120", SparseSigned(50, 120, 24)},
  };
  for (const SparseCase& c : cases)
    for (int side = 0; side < 3; ++side)
      for (int solver = 0; solver < 3; ++solver)
        for (DecompositionTarget target : kTargets) {
          IsvdOptions options;
          options.gram_side = kSides[side];
          options.eig_solver = kSolvers[solver];
          options.target = target;
          for (int s = 0; s <= 4; ++s)
            Print(std::string("csr ") + c.name + " " + kSideNames[side] +
                      " " + kSolverNames[solver] + Strategy(s),
                  RunIsvd(s, c.m, 8, options));
        }

  // Block stores of the tall inputs.
  for (const SparseCase& c : cases) {
    if (c.m.cols() > c.m.rows()) continue;
    for (int mmap = 0; mmap < 2; ++mmap) {
      const ShardedSparseIntervalMatrix store =
          ShardedSparseIntervalMatrix::FromCsr(
              c.m, 32, mmap ? BackingPolicy::Mmap() : BackingPolicy::Memory());
      for (int solver = 0; solver < 2; ++solver)
        for (DecompositionTarget target : kTargets) {
          IsvdOptions options;
          options.eig_solver = kSolvers[solver];
          options.target = target;
          for (int s = 0; s <= 4; ++s)
            Print(std::string("store ") + c.name +
                      (mmap ? " mmap " : " mem ") + kSolverNames[solver] +
                      Strategy(s),
                  RunIsvd(s, store, 8, options));
        }
    }
  }

  const SparseIntervalMatrix empty =
      SparseIntervalMatrix::FromTriplets(0, 5, {});
  for (int side = 0; side < 3; ++side) {
    IsvdOptions options;
    options.gram_side = kSides[side];
    for (int s = 0; s <= 4; ++s)
      Print(std::string("empty ") + kSideNames[side] + Strategy(s),
            RunIsvd(s, empty, 3, options));
  }
}

}  // namespace
}  // namespace ivmf

int main() {
  ivmf::DenseGrid();
  ivmf::SparseGrid();
  return 0;
}
