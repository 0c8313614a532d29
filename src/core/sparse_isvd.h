// Matrix-free ISVD over sparse interval matrices.
//
// The full ISVD0–ISVD4 strategy family (core/isvd.h) without ever
// materializing the dense endpoint matrices. One implementation runs on
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
// The solve/align/recompute phases after the eigensolve are the dense
// path's own bodies (core/isvd_internal.h), run on the small n x r / m x r
// factors with the store's sparse x dense kernels as their three products.
// ISVD4's recompute is a transposed product, run as a shard scatter
// reduction.
//
// Two entry points:
//  - RunIsvd on a SparseIntervalMatrix runs on a zero-copy View of the CSR
//    arrays (shard size from ShardedSparseIntervalMatrix::ViewShardRows).
//    Its GramSide::kMtM has no transpose anywhere; kMMt runs ISVD2–4 on a
//    view of M.Transpose() — the only transpose in the family, charged to
//    the preprocess phase — and swaps the factors. GramSide::kAuto picks
//    the smaller Gram dimension (ResolveGramSide), like the dense path.
//  - RunIsvd on a ShardedSparseIntervalMatrix is the implementation, on
//    any store — including mmap'd segment files, which is the out-of-core
//    decompose path (bench/fig10_outofcore). Its Gram side is always kMtM
//    and options.gram_side is ignored: an mmap store cannot afford a
//    transposed copy of itself, so transposed products run as shard
//    scatter reductions. Results do not depend on the shard size beyond
//    the reduction kernels' roundoff, and the signed Gram-endpoint
//    accumulation is bit-identical for every partition.
// Both return the well-formed rank-0 decomposition for a 0 x m or n x 0
// matrix.
//
// Solver awareness (ISVD2–ISVD4):
//   EigSolver::kLanczos  matrix-free on non-negative input (the scalable
//                        route; no Gram is formed). Signed input runs
//                        Lanczos on the materialized endpoints.
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

// ISVD0–ISVD4 by strategy index on a CSR matrix.
IsvdResult RunIsvd(int strategy, const SparseIntervalMatrix& m, size_t rank,
                   const IsvdOptions& options = {});

// ISVD0–ISVD4 by strategy index on a block-row store (Gram side kMtM).
IsvdResult RunIsvd(int strategy, const ShardedSparseIntervalMatrix& m,
                   size_t rank, const IsvdOptions& options = {});

}  // namespace ivmf

#endif  // IVMF_CORE_SPARSE_ISVD_H_
