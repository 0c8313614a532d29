// Matrix-free ISVD over sparse interval matrices.
//
// Overloads of the full ISVD0–ISVD4 strategy family (core/isvd.h) that
// never materialize the dense endpoint matrices. One implementation runs on
// the block-row store ShardedSparseIntervalMatrix (sparse/block_matrix.h),
// with every O(nnz) pass shard-parallel:
//
//  - ISVD0/ISVD1 need only the top right singular vectors and σ² of the
//    midpoint / endpoint matrices M_p: the top eigenpairs of M_pᵀM_p, which
//    Lanczos (linalg/lanczos.h) reaches through ShardedGramOperator — the
//    midpoint Gram as two passes, an endpoint Gram as one fused pass,
//    O(nnz) per step, any sign — and U = M_p V Σ⁻¹ follows from one dense
//    product. Each solve starts from Golub–Kahan bidiagonalization's start
//    vector v₀ = M_pᵀr / ‖M_pᵀr‖ (r drawn over the rows from
//    Rng(lanczos.seed)), so it builds the bidiagonalization's Krylov space
//    and returns its Ritz values and vectors, unconverged trailing
//    triplets included. A warm basis replaces v₀. The Gram side is MᵀM for
//    every shape.
//  - ISVD2–ISVD4 eigendecompose the Algorithm-1 interval Gram endpoints.
//    For entrywise non-negative matrices the endpoints collapse to M_*ᵀM_*
//    and M^*ᵀM^*, and on the Lanczos route the eigensolver touches them
//    only through x -> M_eᵀ(M_e x), O(nnz) per step — not even the m x m
//    Gram is formed. For signed matrices the Algorithm-1 endpoints are
//    elementwise min/max over four products and have no fixed operator
//    form, so ShardedSparseIntervalMatrix::DenseGramEndpoints accumulates
//    them from the sparse rows (min(n, m)² memory, never densifying M†)
//    before the eigensolve — exactly matching the dense IntervalMatMul
//    route.
//
// The downstream solve/align/recompute phases run on the small n x r /
// m x r factors exactly as in the dense path, with sparse x dense kernels
// substituted for the dense products. ISVD4's recompute is a transposed
// product, run as a shard scatter reduction.
//
// The SparseIntervalMatrix overloads forward to that implementation
// through a zero-copy View of the CSR arrays (shard size from
// ShardedSparseIntervalMatrix::ViewShardRows). Their GramSide::kMtM runs
// on the view of M with no transpose anywhere; kMMt runs the same code on
// a view of M.Transpose() — the only transpose in the family, charged to
// the preprocess phase — and swaps the factors, with GramEig::transposed
// set. GramSide::kAuto picks the smaller Gram dimension, like the dense
// path.
//
// Solver awareness (ISVD2–ISVD4):
//   EigSolver::kLanczos  matrix-free on non-negative input (the scalable
//                        route; GramEig.gram is left empty). Signed input
//                        runs Lanczos on the materialized endpoints.
//   EigSolver::kJacobi   accumulates the dense endpoint Grams from the
//                        sparse rows (m x m memory, exact full spectrum) —
//                        useful for narrow matrices such as user-genre.
//   EigSolver::kAuto     Lanczos when 4 * rank < gram dimension, else
//                        Jacobi, mirroring the dense heuristic.
// ISVD0/ISVD1 always run matrix-free Lanczos on MᵀM; eig_solver and
// gram_side do not apply to them.

#ifndef IVMF_CORE_SPARSE_ISVD_H_
#define IVMF_CORE_SPARSE_ISVD_H_

#include "core/isvd.h"
#include "sparse/block_matrix.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

// The Gram side a SparseIntervalMatrix call of ISVD2–4 runs: `side` itself,
// or for kAuto the smaller Gram (kMtM when cols <= rows, else kMMt).
GramSide ResolveGramSide(const SparseIntervalMatrix& m, GramSide side);

// ISVD0 (midpoint SVD) without materializing the midpoint matrix: Lanczos
// on M_midᵀM_mid, M_mid = (M_* + M^*) / 2 applied fused over the shared
// sparse pattern, then U = M_mid V Σ⁻¹ (timed as solve). The result is
// always scalar (target c), like the dense overload.
IsvdResult Isvd0(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// ISVD1 (endpoint SVDs + ILSA) with both endpoint decompositions running
// matrix-free, as Lanczos on the per-endpoint Grams M_eᵀM_e (not the
// Algorithm-1 Gram endpoints, which differ on signed input); U_e = M_e V_e
// Σ_e⁻¹ (timed as solve), and the alignment and target construction mirror
// the dense overload on the small factors.
IsvdResult Isvd1(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// Gram eigendecomposition without forming dense endpoint matrices. On the
// non-negative Lanczos route `GramEig.gram` stays empty (it would be the
// dense m x m matrix this path exists to avoid); the Jacobi route and the
// signed four-product route fill it, so rank sweeps via TruncateGramEig
// keep working.
GramEig ComputeGramEig(const SparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options = {});

// ISVD2–ISVD4 on a sparse matrix, reusing a precomputed GramEig.
IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);

// Convenience one-shot forms.
IsvdResult Isvd2(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd3(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd4(const SparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

// Dispatch by strategy index 0..4 — the whole family has a sparse
// formulation.
IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options = {});

// -- Block-row store overloads ----------------------------------------------
//
// The implementation the overloads above forward to, callable on any
// store — including mmap'd segment files, which is the out-of-core
// decompose path (bench/fig10_outofcore). GramSide is always kMtM here and
// options.gram_side is ignored: an mmap store cannot afford a transposed
// copy of itself, so transposed products run as shard scatter reductions.
// Results do not depend on the shard size beyond the reduction kernels'
// roundoff, and the signed Gram-endpoint accumulation is bit-identical for
// every partition.

IsvdResult Isvd0(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd1(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

GramEig ComputeGramEig(const ShardedSparseIntervalMatrix& m, size_t rank,
                       const IsvdOptions& options = {});

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);
IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const GramEig& gram, const IsvdOptions& options);

IsvdResult Isvd2(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd3(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});
IsvdResult Isvd4(const ShardedSparseIntervalMatrix& m, size_t rank,
                 const IsvdOptions& options = {});

IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options = {});

}  // namespace ivmf

#endif  // IVMF_CORE_SPARSE_ISVD_H_
