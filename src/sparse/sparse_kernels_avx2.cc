// AVX2 definitions of the packed-CSR sparse kernels (see sparse_kernels.h).
//
// This is the only translation unit compiled with -mavx2 -mfma; everything
// here is reached exclusively through spk::Resolve()/Avx2Supported(), i.e.
// after a runtime cpuid check, so the rest of the library stays portable.
// Without IVMF_HAVE_AVX2 (non-x86 target or -DIVMF_DISABLE_AVX2=ON) the
// file compiles to nothing and sparse_kernels.cc provides scalar-forwarding
// definitions instead.
//
// Layout of the row kernels: two or four independent 4-lane FMA
// accumulators per row hide the FMA latency the scalar loop's single `sum`
// chain serializes on; the dense operand is fetched with 32-bit index
// gathers over the packed column stream. Remainder entries (< 4 per row)
// run scalar. Each output entry sums exactly the same terms as the
// reference kernel, just in blocked association order.

#ifdef IVMF_HAVE_AVX2

#include <immintrin.h>

#include "sparse/sparse_kernels.h"

namespace ivmf::spk {

namespace {

inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swap));
}

// x[idx[l]] for the four 32-bit lanes of idx. The masked form with a zero
// source and an all-ones mask is the same vgatherdpd as
// _mm256_i32gather_pd, whose GCC expansion passes an undefined source
// register and trips -Wmaybe-uninitialized under -Werror.
inline __m256d Gather(const double* x, __m128i idx) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}

// The streams are prefetched explicitly: the value stream consumes two
// cache lines per 16-entry block, so it gets two prefetches ~3 KiB ahead;
// the narrower index stream gets one at the matching byte distance. The
// hardware prefetcher alone left ~20% of the bandwidth on the table at
// 20k x 5k when these were tuned — measured, not speculative.

// Type-specific pieces: how to widen 4/8 packed indices to the i32 lanes
// Gather consumes, and how far ahead (in elements) the index stream
// prefetch should run to stay ~4 KiB in front.
template <typename IdxT>
struct IdxOps;

template <>
struct IdxOps<uint16_t> {
  static constexpr size_t kPrefetchAhead = 2048;
  static inline __m128i Load4(const uint16_t* p) {
    return _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static inline __m256i Load8(const uint16_t* p) {
    return _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
};

template <>
struct IdxOps<uint32_t> {
  static constexpr size_t kPrefetchAhead = 1024;
  static inline __m128i Load4(const uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static inline __m256i Load8(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

// Value-stream prefetch distance in doubles (4 KiB — tuned on the target
// box; shorter distances leave the line-fill buffers idle between row
// blocks and cost ~2x on the 20k x 5k CF shape).
constexpr size_t kValAhead = 512;

template <typename IdxT>
void MatVecPackedImpl(const PackedCsrView& a, const IdxT* idx, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    // Main loop covers 32 nnz per iteration so the value-stream prefetches
    // hit every cache line exactly once (4 lines of doubles + 1 line of
    // packed indices per trip).
    for (; k + 32 <= end; k += 32) {
      __builtin_prefetch(v + k + kValAhead);
      __builtin_prefetch(v + k + kValAhead + 8);
      __builtin_prefetch(v + k + kValAhead + 16);
      __builtin_prefetch(v + k + kValAhead + 24);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      for (size_t u = 0; u < 32; u += 16) {
        const __m256i j0 = IdxOps<IdxT>::Load8(idx + k + u);
        const __m256i j1 = IdxOps<IdxT>::Load8(idx + k + u + 8);
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u),
            Gather(x, _mm256_castsi256_si128(j0)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 4),
            Gather(x, _mm256_extracti128_si256(j0, 1)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 8),
            Gather(x, _mm256_castsi256_si128(j1)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 12),
            Gather(x, _mm256_extracti128_si256(j1, 1)), acc3);
      }
    }
    for (; k + 4 <= end; k += 4) {
      acc0 = _mm256_fmadd_pd(
          _mm256_loadu_pd(v + k),
          Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double sum = HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3)));
    for (; k < end; ++k) sum += v[k] * x[idx[k]];
    y[i] = sum;
  }
}

template <typename IdxT>
void MatVecMidPackedImpl(const PackedCsrView& a, const IdxT* idx,
                         const double* lo, const double* hi, const double* x,
                         double* y, size_t row_begin, size_t row_end) {
  const __m256d half = _mm256_set1_pd(0.5);
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    size_t k = a.row_ptr[i];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; k + 8 <= end; k += 8) {
      __builtin_prefetch(lo + k + kValAhead);
      __builtin_prefetch(hi + k + kValAhead);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      const __m256i j = IdxOps<IdxT>::Load8(idx + k);
      const __m256d m0 = _mm256_mul_pd(
          half,
          _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      const __m256d m1 =
          _mm256_mul_pd(half, _mm256_add_pd(_mm256_loadu_pd(lo + k + 4),
                                            _mm256_loadu_pd(hi + k + 4)));
      acc0 = _mm256_fmadd_pd(
          m0, Gather(x, _mm256_castsi256_si128(j)), acc0);
      acc1 = _mm256_fmadd_pd(
          m1, Gather(x, _mm256_extracti128_si256(j, 1)), acc1);
    }
    for (; k + 4 <= end; k += 4) {
      const __m256d mid = _mm256_mul_pd(
          half,
          _mm256_add_pd(_mm256_loadu_pd(lo + k), _mm256_loadu_pd(hi + k)));
      acc0 = _mm256_fmadd_pd(
          mid, Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double sum = HSum(_mm256_add_pd(acc0, acc1));
    for (; k < end; ++k) sum += 0.5 * (lo[k] + hi[k]) * x[idx[k]];
    y[i] = sum;
  }
}

template <typename IdxT>
void GramFusedPackedImpl(const PackedCsrView& a, const IdxT* idx,
                         const double* v, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t end = a.row_ptr[i + 1];
    const size_t begin = a.row_ptr[i];
    size_t k = begin;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    // Same 32-wide dot structure as MatVecPackedImpl: one prefetch per
    // cache line of the value stream per trip.
    for (; k + 32 <= end; k += 32) {
      __builtin_prefetch(v + k + kValAhead);
      __builtin_prefetch(v + k + kValAhead + 8);
      __builtin_prefetch(v + k + kValAhead + 16);
      __builtin_prefetch(v + k + kValAhead + 24);
      __builtin_prefetch(idx + k + IdxOps<IdxT>::kPrefetchAhead);
      for (size_t u = 0; u < 32; u += 16) {
        const __m256i j0 = IdxOps<IdxT>::Load8(idx + k + u);
        const __m256i j1 = IdxOps<IdxT>::Load8(idx + k + u + 8);
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u),
            Gather(x, _mm256_castsi256_si128(j0)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 4),
            Gather(x, _mm256_extracti128_si256(j0, 1)), acc1);
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 8),
            Gather(x, _mm256_castsi256_si128(j1)), acc2);
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(v + k + u + 12),
            Gather(x, _mm256_extracti128_si256(j1, 1)), acc3);
      }
    }
    for (; k + 4 <= end; k += 4) {
      acc0 = _mm256_fmadd_pd(
          _mm256_loadu_pd(v + k),
          Gather(x, IdxOps<IdxT>::Load4(idx + k)), acc0);
    }
    double s = HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                  _mm256_add_pd(acc2, acc3)));
    for (; k < end; ++k) s += v[k] * x[idx[k]];
    if (s == 0.0) continue;  // empty rows (and exact cancellations) scatter 0
    // Scatter phase: the row's values/indices are L1-hot from the dot.
    const __m256d sv = _mm256_set1_pd(s);
    k = begin;
    for (; k + 4 <= end; k += 4) {
      alignas(32) double prod[4];
      _mm256_store_pd(prod, _mm256_mul_pd(sv, _mm256_loadu_pd(v + k)));
      y[idx[k]] += prod[0];
      y[idx[k + 1]] += prod[1];
      y[idx[k + 2]] += prod[2];
      y[idx[k + 3]] += prod[3];
    }
    for (; k < end; ++k) y[idx[k]] += s * v[k];
  }
}

}  // namespace

void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecPackedImpl(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    MatVecPackedImpl(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    MatVecMidPackedImpl(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    MatVecMidPackedImpl(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  if (a.col16 != nullptr) {
    GramFusedPackedImpl(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    GramFusedPackedImpl(a, a.col32, v, x, y, row_begin, row_end);
  }
}

}  // namespace ivmf::spk

#endif  // IVMF_HAVE_AVX2
