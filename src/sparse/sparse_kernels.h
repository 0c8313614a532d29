// Sparse-kernel backends: the scalar reference and AVX2 packed-CSR row
// kernels behind one dispatch point.
//
// The block-row store (sparse/block_matrix.h) runs every sparse kernel of
// the matrix-free ISVD and the streaming refresh through the functions
// here, shard by shard. Vectorized kernels silently corrupt results when
// they are wrong, so every AVX2 kernel is pinned against the scalar
// reference by tests/sparse_kernel_diff_test.cc and the fuzz suite, and
// bench --check refuses to time a kernel whose answers diverge.
//
// Two backends:
//   kScalar  the reference loops (also the portable fallback everywhere)
//   kAvx2    register-blocked CSR rows, 4-wide FMA gathers over the packed
//            16/32-bit column-index stream with software prefetch — the
//            matvec is memory-bound, so halving index bytes is worth more
//            than any amount of ILP. Only the forward matvec, the midpoint
//            matvec and the fused Gram have AVX2 bodies; the transpose
//            scatters and dense products run the scalar kernels on every
//            backend. Compiled in a dedicated -mavx2 translation unit and
//            reached only after a runtime cpuid check, so the same binary
//            runs on machines without AVX2
//
// Selection: a matrix's set_kernel() request, scalar or avx2 (the
// default). Requesting avx2 on a machine (or a -DIVMF_DISABLE_AVX2 build)
// without it degrades to scalar, never aborts.
//
// Aliasing contract (checked with IVMF_CHECK at the store's entry points):
// no output buffer may alias an input buffer. The kernels read inputs while
// writing outputs in blocked order, so aliasing would return garbage rather
// than the in-place result a caller might hope for.
//
// Numerical contract: the AVX2 kernels compute each output entry from
// exactly the same terms as the scalar loop; only the association order
// differs (lane/accumulator blocking). Results therefore agree with the
// reference to a few ULP per accumulated term — the differential suite pins
// |diff| <= 1e-12 * max(1, |ref|) — and each kernel is bit-stable across
// calls on the same machine.

#ifndef IVMF_SPARSE_SPARSE_KERNELS_H_
#define IVMF_SPARSE_SPARSE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ivmf::spk {

// -- Backend selection -------------------------------------------------------

enum class Backend {
  kScalar,  // reference loops
  kAvx2,    // vectorized rows (degrades to kScalar without AVX2)
};

// True when the AVX2 translation unit was compiled into this binary
// (x86 toolchain, IVMF_DISABLE_AVX2 not set).
bool Avx2Compiled();

// True when the AVX2 kernels are both compiled in and supported by the
// running CPU (cpuid: AVX2 + FMA). Cached after the first call.
bool Avx2Supported();

// Parses "scalar" / "avx2". Returns false (and leaves *out
// untouched) for anything else.
bool ParseBackend(std::string_view name, Backend* out);

// Lower-case name of a backend, e.g. for bench JSON fields and log lines.
const char* BackendName(Backend backend);

// Collapses a request to the backend that will actually run: kScalar stays
// scalar, kAvx2 stays kAvx2 iff Avx2Supported().
Backend Resolve(Backend request);

// -- Packed-index CSR kernels ------------------------------------------------
//
// All kernels operate on rows [row_begin, row_end) of a view, so callers
// can partition rows across threads. Entry k of row i lives at
// row_ptr[i] <= k < row_ptr[i + 1] with column col16[k] or col32[k].
//
// The 20k x 5k matvec is memory-bound: with size_t column indices the CSR
// stream costs 16 bytes per nonzero. The packed view carries 16-bit
// (cols <= 2^16) or 32-bit column indices instead, cutting the stream to
// 10-12 bytes per nonzero. Exactly one of col16 / col32 is non-null.

struct PackedCsrView {
  size_t rows = 0;
  size_t cols = 0;
  const size_t* row_ptr = nullptr;
  const uint16_t* col16 = nullptr;  // set when cols fits in 16 bits
  const uint32_t* col32 = nullptr;  // set otherwise (cols always < 2^32)
};

// Scalar reference kernels. Each output entry sums its row's terms left to
// right, so the result does not depend on the index width or on how rows
// are partitioned.

// y[i] = sum_k v[k] * x[col[k]] over row i.
void MatVecPackedScalar(const PackedCsrView& a, const double* v,
                        const double* x, double* y, size_t row_begin,
                        size_t row_end);
// y[i] = sum_k 0.5 * (lo[k] + hi[k]) * x[col[k]] — the fused midpoint
// action over the shared pattern.
void MatVecMidPackedScalar(const PackedCsrView& a, const double* lo,
                           const double* hi, const double* x, double* y,
                           size_t row_begin, size_t row_end);
// y[col[k]] += v[k] * x[i]: the transpose action as a scatter. Accumulates
// — the caller zero-fills y (or reduces per-thread partials).
void MatVecTPackedScalar(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end);
// y[col[k]] += 0.5 * (lo[k] + hi[k]) * x[i] — the midpoint transpose
// scatter (a block-row store has no materialized transpose to run
// forward).
void MatVecTMidPackedScalar(const PackedCsrView& a, const double* lo,
                            const double* hi, const double* x, double* y,
                            size_t row_begin, size_t row_end);
// C += A_e B for row-major b (a.cols x bcols); row i of C is accumulated
// in place (caller zero-fills).
void MatDensePackedScalar(const PackedCsrView& a, const double* v,
                          const double* b, size_t bcols, double* c,
                          size_t row_begin, size_t row_end);
// c_lo += A_* B and c_hi += A^* B in one pattern pass (the kernel under
// IntervalMultiplyDense).
void MatDenseBothPackedScalar(const PackedCsrView& a, const double* lo,
                              const double* hi, const double* b, size_t bcols,
                              double* c_lo, double* c_hi, size_t row_begin,
                              size_t row_end);
// c_lo += A_*ᵀ B and c_hi += A^*ᵀ B for row-major b (a.rows x bcols): the
// transposed dense product as a row-scatter, one pattern pass feeding both
// endpoint accumulations. c_lo/c_hi are a.cols x bcols, caller zero-fills
// (or reduces partials).
void MatDenseTBothPackedScalar(const PackedCsrView& a, const double* lo,
                               const double* hi, const double* b,
                               size_t bcols, double* c_lo, double* c_hi,
                               size_t row_begin, size_t row_end);
// y += A_eᵀ (A_e x) over rows [row_begin, row_end) in ONE pass over the
// pattern: per row, s = <row, x> (gather dot), then y[col] += s * v
// (scatter). The two-pass composition streams the nonzeros twice; the
// fused form streams them once, which roughly halves the memory traffic
// of a Lanczos Gram step. Accumulates into y — the caller zero-fills (or
// reduces per-thread partials).
void GramFusedPackedScalar(const PackedCsrView& a, const double* v,
                           const double* x, double* y, size_t row_begin,
                           size_t row_end);

// AVX2 counterparts of MatVec, MatVecMid and GramFused: same semantics,
// same aliasing and numerical contracts. Without AVX2 in the build they
// forward to the scalar reference.
void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end);
void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end);
void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end);

}  // namespace ivmf::spk

#endif  // IVMF_SPARSE_SPARSE_KERNELS_H_
