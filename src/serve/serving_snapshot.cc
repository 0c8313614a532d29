#include "serve/serving_snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/check.h"

// TopK's keys must round exactly like Predict's sums, so both live in this
// translation unit, which CMakeLists.txt compiles with -ffp-contract=off:
// no FMA can fuse one path's products and not the other's.

namespace ivmf {

namespace {

// Items scored per TopK block; their sums stay in registers across the
// rank loop.
constexpr size_t kBlock = 8;

// Two doubles in one SSE2 (or NEON) register. GNU vector arithmetic is
// lane-wise IEEE arithmetic, so each lane rounds exactly like the scalar
// sums in Predict.
typedef double Pair __attribute__((vector_size(16)));
constexpr size_t kPairs = kBlock / 2;

Pair Load(const double* p) {
  Pair v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

Pair Splat(double x) { return Pair{x, x}; }

// `v` (items x rank) as rank x items, each row zero-padded to whole blocks
// so every block loads kBlock contiguous entries per k.
Matrix KMajor(const Matrix& v) {
  const size_t padded = (v.rows() + kBlock - 1) / kBlock * kBlock;
  Matrix t(v.cols(), padded);
  for (size_t j = 0; j < v.rows(); ++j) {
    const double* row = v.RowPtr(j);
    for (size_t k = 0; k < v.cols(); ++k) t(k, j) = row[k];
  }
  return t;
}

// The per-block key functions below compute Predict(user, j).Mid() for
// j in [j0, j0 + kBlock): the same products, summed in the same k order.

// Target a: min/max over the four full sums of us = u†(user, k) ⊗ σ†(k)
// against the V endpoints. Four sums for each of 8 items would take all
// sixteen SSE2 registers, so the block runs as two halves of 4 items.
void BlockKeysA(const double* us_lo, const double* us_hi, size_t rank,
                const Matrix& v_lo, const Matrix& v_hi, size_t j0,
                double* key) {
  constexpr size_t kHalfPairs = kPairs / 2;
  for (size_t h = 0; h < kBlock; h += kBlock / 2) {
    Pair t1[kHalfPairs] = {}, t2[kHalfPairs] = {}, t3[kHalfPairs] = {},
         t4[kHalfPairs] = {};
    for (size_t k = 0; k < rank; ++k) {
      const Pair lo = Splat(us_lo[k]), hi = Splat(us_hi[k]);
      const double* vlo = v_lo.RowPtr(k) + j0 + h;
      const double* vhi = v_hi.RowPtr(k) + j0 + h;
      for (size_t p = 0; p < kHalfPairs; ++p) {
        const Pair vl = Load(vlo + 2 * p), vh = Load(vhi + 2 * p);
        t1[p] += lo * vl;
        t2[p] += lo * vh;
        t3[p] += hi * vl;
        t4[p] += hi * vh;
      }
    }
    for (size_t b = 0; b < kBlock / 2; ++b) {
      const size_t p = b / 2, l = b % 2;
      const double lo = std::min(std::min(t1[p][l], t2[p][l]),
                                 std::min(t3[p][l], t4[p][l]));
      const double hi = std::max(std::max(t1[p][l], t2[p][l]),
                                 std::max(t3[p][l], t4[p][l]));
      key[h + b] = 0.5 * (lo + hi);
    }
  }
}

// Target b: (u·v)·σ endpoints. A misordered pair is served as the scalar
// m = 0.5 * (lo + hi), whose Mid() 0.5 * (m + m) equals m in every case:
// doubling a halved sum cannot overflow, and halving it back is exact. So
// the key is 0.5 * (lo + hi) whether or not the pair is misordered.
void BlockKeysB(const double* u, const Interval* sigma, size_t rank,
                const Matrix& v, size_t j0, double* key) {
  Pair lo[kPairs] = {}, hi[kPairs] = {};
  for (size_t k = 0; k < rank; ++k) {
    const Pair uk = Splat(u[k]);
    const Pair s_lo = Splat(sigma[k].lo), s_hi = Splat(sigma[k].hi);
    const double* vk = v.RowPtr(k) + j0;
    for (size_t p = 0; p < kPairs; ++p) {
      const Pair uv = uk * Load(vk + 2 * p);
      lo[p] += uv * s_lo;
      hi[p] += uv * s_hi;
    }
  }
  for (size_t p = 0; p < kPairs; ++p) {
    const Pair mid = Splat(0.5) * (lo[p] + hi[p]);
    std::memcpy(key + 2 * p, &mid, sizeof mid);
  }
}

// Target c: (u·σ)·v, served as a scalar m with Mid() 0.5 * (m + m), which
// overflows where |m| > DBL_MAX / 2, so the key keeps that form.
void BlockKeysC(const double* us, size_t rank, const Matrix& v, size_t j0,
                double* key) {
  Pair m[kPairs] = {};
  for (size_t k = 0; k < rank; ++k) {
    const Pair s = Splat(us[k]);
    const double* vk = v.RowPtr(k) + j0;
    for (size_t p = 0; p < kPairs; ++p) m[p] += s * Load(vk + 2 * p);
  }
  for (size_t p = 0; p < kPairs; ++p) {
    const Pair mid = Splat(0.5) * (m[p] + m[p]);
    std::memcpy(key + 2 * p, &mid, sizeof mid);
  }
}

struct Ranked {
  double key;
  size_t item;
};

// TopK's order: midpoint descending, then item ascending.
bool RanksBefore(const Ranked& a, const Ranked& b) {
  if (a.key != b.key) return a.key > b.key;
  return a.item < b.item;
}

// The `take` best of items [0, items), best first, skipping the sorted
// column list [rated, rated_end). `block_keys(j0, key)` fills the keys of
// one block. The heap's front is its worst entry; items arrive in
// ascending order, so a newcomer that only ties the worst loses the tie,
// and once the heap is full a block with no key above the worst is passed
// over whole.
template <typename BlockKeys>
std::vector<Ranked> SelectTop(size_t items, const size_t* rated,
                              const size_t* rated_end, size_t take,
                              BlockKeys block_keys) {
  std::vector<Ranked> heap;
  heap.reserve(take);
  double key[kBlock] = {};
  for (size_t j0 = 0; j0 < items; j0 += kBlock) {
    block_keys(j0, key);
    const size_t block_end = std::min(items, j0 + kBlock);
    if (heap.size() == take) {
      const double worst = heap.front().key;
      bool any_above = false;
      for (size_t b = 0; b < kBlock; ++b) any_above |= key[b] > worst;
      if (!any_above) {
        while (rated != rated_end && *rated < block_end) ++rated;
        continue;
      }
    }
    for (size_t j = j0; j < block_end; ++j) {
      if (rated != rated_end && *rated == j) {
        ++rated;
        continue;
      }
      const double x = key[j - j0];
      if (heap.size() < take) {
        heap.push_back({x, j});
        std::push_heap(heap.begin(), heap.end(), RanksBefore);
      } else if (x > heap.front().key) {
        std::pop_heap(heap.begin(), heap.end(), RanksBefore);
        heap.back() = {x, j};
        std::push_heap(heap.begin(), heap.end(), RanksBefore);
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), RanksBefore);
  return heap;
}

}  // namespace

ServingSnapshot::ServingSnapshot(
    uint64_t epoch, IsvdResult result,
    std::shared_ptr<const SparseIntervalMatrix> matrix)
    : epoch_(epoch), result_(std::move(result)), matrix_(std::move(matrix)) {
  IVMF_CHECK_MSG(matrix_ != nullptr,
                 "ServingSnapshot needs the frozen matrix view");
  IVMF_CHECK_MSG(result_.u.rows() == matrix_->rows() &&
                     result_.v.rows() == matrix_->cols(),
                 "factor shapes do not match the matrix view");
  IVMF_CHECK_MSG(result_.u.cols() == result_.rank() &&
                     result_.v.cols() == result_.rank(),
                 "factor ranks do not match sigma");
  v_lo_kmajor_ = KMajor(result_.v.lower());
  if (result_.target == DecompositionTarget::kA) {
    v_hi_kmajor_ = KMajor(result_.v.upper());
  }
}

Interval ServingSnapshot::Predict(size_t user, size_t item) const {
  IVMF_CHECK_MSG(user < users() && item < items(),
                 "prediction outside the matrix shape");
  const size_t r = result_.rank();
  switch (result_.target) {
    case DecompositionTarget::kA: {
      // Algorithm 12 per cell. Σ† is diagonal, so the first interval
      // matmul collapses per-entry to u†(i,k) ⊗ σ†(k); the second follows
      // Algorithm 1's endpoint-product rule, which takes min/max over the
      // four FULL row-column sums (not per-term — per-term would give a
      // different, wider interval whenever factor signs are mixed).
      double t1 = 0.0, t2 = 0.0, t3 = 0.0, t4 = 0.0;
      for (size_t k = 0; k < r; ++k) {
        const Interval us = result_.u.At(user, k) * result_.sigma[k];
        const double vlo = result_.v.lower()(item, k);
        const double vhi = result_.v.upper()(item, k);
        t1 += us.lo * vlo;
        t2 += us.lo * vhi;
        t3 += us.hi * vlo;
        t4 += us.hi * vhi;
      }
      return Interval(std::min(std::min(t1, t2), std::min(t3, t4)),
                      std::max(std::max(t1, t2), std::max(t3, t4)));
    }
    case DecompositionTarget::kB: {
      // Algorithm 13 per cell: scalar factors against the two core
      // endpoints, then average replacement of a misordered pair.
      const Matrix& u = result_.ScalarU();
      const Matrix& v = result_.ScalarV();
      double lo = 0.0, hi = 0.0;
      for (size_t k = 0; k < r; ++k) {
        const double uv = u(user, k) * v(item, k);
        lo += uv * result_.sigma[k].lo;
        hi += uv * result_.sigma[k].hi;
      }
      if (lo > hi) {
        const double mid = 0.5 * (lo + hi);
        return Interval::Scalar(mid);
      }
      return Interval(lo, hi);
    }
    case DecompositionTarget::kC: {
      // Algorithm 14 per cell: fully scalar.
      const Matrix& u = result_.ScalarU();
      const Matrix& v = result_.ScalarV();
      double mid = 0.0;
      for (size_t k = 0; k < r; ++k) {
        mid += u(user, k) * result_.sigma[k].lo * v(item, k);
      }
      return Interval::Scalar(mid);
    }
  }
  IVMF_CHECK_MSG(false, "unknown decomposition target");
  return {};
}

std::vector<ServingSnapshot::ScoredItem> ServingSnapshot::TopK(
    size_t user, size_t k, bool exclude_observed) const {
  IVMF_CHECK_MSG(user < users(), "user outside the matrix shape");
  const size_t* rated = nullptr;
  const size_t* rated_end = nullptr;
  if (exclude_observed) {
    const size_t* col_idx = matrix_->col_idx().data();
    rated = col_idx + matrix_->row_ptr()[user];
    rated_end = col_idx + matrix_->row_ptr()[user + 1];
  }
  const size_t n_items = items();
  const size_t take =
      std::min(k, n_items - static_cast<size_t>(rated_end - rated));
  std::vector<ScoredItem> top;
  if (take == 0) return top;

  // The user's terms, once: the u row and σ, scaled together where
  // Predict's products allow it.
  const size_t r = rank();
  const std::vector<Interval>& sigma = result_.sigma;
  std::vector<Ranked> winners;
  switch (result_.target) {
    case DecompositionTarget::kA: {
      std::vector<double> us(2 * r);
      for (size_t i = 0; i < r; ++i) {
        const Interval s = result_.u.At(user, i) * sigma[i];
        us[i] = s.lo;
        us[r + i] = s.hi;
      }
      winners = SelectTop(n_items, rated, rated_end, take,
                          [&](size_t j0, double* key) {
                            BlockKeysA(us.data(), us.data() + r, r,
                                       v_lo_kmajor_, v_hi_kmajor_, j0, key);
                          });
      break;
    }
    case DecompositionTarget::kB: {
      const double* u = result_.ScalarU().RowPtr(user);
      winners = SelectTop(n_items, rated, rated_end, take,
                          [&](size_t j0, double* key) {
                            BlockKeysB(u, sigma.data(), r, v_lo_kmajor_, j0,
                                       key);
                          });
      break;
    }
    case DecompositionTarget::kC: {
      const double* u = result_.ScalarU().RowPtr(user);
      std::vector<double> us(r);
      for (size_t i = 0; i < r; ++i) us[i] = u[i] * sigma[i].lo;
      winners = SelectTop(n_items, rated, rated_end, take,
                          [&](size_t j0, double* key) {
                            BlockKeysC(us.data(), r, v_lo_kmajor_, j0, key);
                          });
      break;
    }
  }

  top.reserve(winners.size());
  for (const Ranked& w : winners) {
    top.push_back({w.item, Predict(user, w.item)});
  }
  return top;
}

}  // namespace ivmf
