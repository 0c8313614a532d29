#include "sparse/sparse_kernels.h"

namespace ivmf::spk {

// -- Backend selection -------------------------------------------------------

bool Avx2Compiled() {
#ifdef IVMF_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool Avx2Supported() {
#if defined(IVMF_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool ParseBackend(std::string_view name, Backend* out) {
  if (name == "scalar") {
    *out = Backend::kScalar;
  } else if (name == "avx2") {
    *out = Backend::kAvx2;
  } else {
    return false;
  }
  return true;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Backend Resolve(Backend request) {
  if (request == Backend::kScalar) return Backend::kScalar;
  return Avx2Supported() ? Backend::kAvx2 : Backend::kScalar;
}

// -- Packed-index scalar kernels ---------------------------------------------
//
// One templated body per kernel, instantiated for the u16 and u32 sidecars.
// Each output entry sums its row's terms left to right, whatever the index
// width. Always compiled: these are the scalar backend on every build, and
// the no-AVX2 *PackedAvx2 stubs below forward here.

namespace {

template <typename IdxT>
void PackedMatVec(const PackedCsrView& a, const IdxT* idx, const double* v,
                  const double* x, double* y, size_t row_begin,
                  size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += v[k] * x[idx[k]];
    }
    y[i] = sum;
  }
}

template <typename IdxT>
void PackedMatVecMid(const PackedCsrView& a, const IdxT* idx, const double* lo,
                     const double* hi, const double* x, double* y,
                     size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      sum += 0.5 * (lo[k] + hi[k]) * x[idx[k]];
    }
    y[i] = sum;
  }
}

template <typename IdxT>
void PackedMatVecT(const PackedCsrView& a, const IdxT* idx, const double* v,
                   const double* x, double* y, size_t row_begin,
                   size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      y[idx[k]] += v[k] * xi;
    }
  }
}

template <typename IdxT>
void PackedMatVecTMid(const PackedCsrView& a, const IdxT* idx,
                      const double* lo, const double* hi, const double* x,
                      double* y, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      y[idx[k]] += 0.5 * (lo[k] + hi[k]) * xi;
    }
  }
}

template <typename IdxT>
void PackedMatDenseTBoth(const PackedCsrView& a, const IdxT* idx,
                         const double* lo, const double* hi, const double* b,
                         size_t bcols, double* c_lo, double* c_hi,
                         size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* brow = b + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      double* out_lo = c_lo + idx[k] * bcols;
      double* out_hi = c_hi + idx[k] * bcols;
      const double vlo = lo[k];
      const double vhi = hi[k];
      for (size_t j = 0; j < bcols; ++j) {
        out_lo[j] += vlo * brow[j];
        out_hi[j] += vhi * brow[j];
      }
    }
  }
}

template <typename IdxT>
void PackedMatDense(const PackedCsrView& a, const IdxT* idx, const double* v,
                    const double* b, size_t bcols, double* c, size_t row_begin,
                    size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out = c + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + idx[k] * bcols;
      const double value = v[k];
      for (size_t j = 0; j < bcols; ++j) out[j] += value * brow[j];
    }
  }
}

template <typename IdxT>
void PackedMatDenseBoth(const PackedCsrView& a, const IdxT* idx,
                        const double* lo, const double* hi, const double* b,
                        size_t bcols, double* c_lo, double* c_hi,
                        size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out_lo = c_lo + i * bcols;
    double* out_hi = c_hi + i * bcols;
    for (size_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const double* brow = b + idx[k] * bcols;
      const double vlo = lo[k];
      const double vhi = hi[k];
      for (size_t j = 0; j < bcols; ++j) {
        out_lo[j] += vlo * brow[j];
        out_hi[j] += vhi * brow[j];
      }
    }
  }
}

template <typename IdxT>
void PackedGramFused(const PackedCsrView& a, const IdxT* idx, const double* v,
                     const double* x, double* y, size_t row_begin,
                     size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t begin = a.row_ptr[i];
    const size_t end = a.row_ptr[i + 1];
    double s = 0.0;
    for (size_t k = begin; k < end; ++k) s += v[k] * x[idx[k]];
    if (s == 0.0) continue;
    for (size_t k = begin; k < end; ++k) y[idx[k]] += s * v[k];
  }
}

}  // namespace

void MatVecPackedScalar(const PackedCsrView& a, const double* v,
                        const double* x, double* y, size_t row_begin,
                        size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVec(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedMatVec(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecMidPackedScalar(const PackedCsrView& a, const double* lo,
                           const double* hi, const double* x, double* y,
                           size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecMid(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    PackedMatVecMid(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void MatVecTPackedScalar(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecT(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedMatVecT(a, a.col32, v, x, y, row_begin, row_end);
  }
}

void MatVecTMidPackedScalar(const PackedCsrView& a, const double* lo,
                            const double* hi, const double* x, double* y,
                            size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatVecTMid(a, a.col16, lo, hi, x, y, row_begin, row_end);
  } else {
    PackedMatVecTMid(a, a.col32, lo, hi, x, y, row_begin, row_end);
  }
}

void MatDenseTBothPackedScalar(const PackedCsrView& a, const double* lo,
                               const double* hi, const double* b,
                               size_t bcols, double* c_lo, double* c_hi,
                               size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDenseTBoth(a, a.col16, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                        row_end);
  } else {
    PackedMatDenseTBoth(a, a.col32, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                        row_end);
  }
}

void MatDensePackedScalar(const PackedCsrView& a, const double* v,
                          const double* b, size_t bcols, double* c,
                          size_t row_begin, size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDense(a, a.col16, v, b, bcols, c, row_begin, row_end);
  } else {
    PackedMatDense(a, a.col32, v, b, bcols, c, row_begin, row_end);
  }
}

void MatDenseBothPackedScalar(const PackedCsrView& a, const double* lo,
                              const double* hi, const double* b, size_t bcols,
                              double* c_lo, double* c_hi, size_t row_begin,
                              size_t row_end) {
  if (a.col16 != nullptr) {
    PackedMatDenseBoth(a, a.col16, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                       row_end);
  } else {
    PackedMatDenseBoth(a, a.col32, lo, hi, b, bcols, c_lo, c_hi, row_begin,
                       row_end);
  }
}

void GramFusedPackedScalar(const PackedCsrView& a, const double* v,
                           const double* x, double* y, size_t row_begin,
                           size_t row_end) {
  if (a.col16 != nullptr) {
    PackedGramFused(a, a.col16, v, x, y, row_begin, row_end);
  } else {
    PackedGramFused(a, a.col32, v, x, y, row_begin, row_end);
  }
}

// -- AVX2 forwarding stubs ---------------------------------------------------
//
// Without the AVX2 translation unit (non-x86 target or
// -DIVMF_DISABLE_AVX2=ON) the *Avx2 symbols still exist so call sites need
// no #ifdefs; Resolve() never selects them, but direct calls behave as the
// reference.

#ifndef IVMF_HAVE_AVX2

void MatVecPackedAvx2(const PackedCsrView& a, const double* v,
                      const double* x, double* y, size_t row_begin,
                      size_t row_end) {
  MatVecPackedScalar(a, v, x, y, row_begin, row_end);
}

void MatVecMidPackedAvx2(const PackedCsrView& a, const double* lo,
                         const double* hi, const double* x, double* y,
                         size_t row_begin, size_t row_end) {
  MatVecMidPackedScalar(a, lo, hi, x, y, row_begin, row_end);
}

void GramFusedPackedAvx2(const PackedCsrView& a, const double* v,
                         const double* x, double* y, size_t row_begin,
                         size_t row_end) {
  GramFusedPackedScalar(a, v, x, y, row_begin, row_end);
}

#endif  // !IVMF_HAVE_AVX2

}  // namespace ivmf::spk
