#include "sparse/sparse_interval_matrix.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "sparse/block_matrix.h"

namespace ivmf {

SparseIntervalMatrix SparseIntervalMatrix::FromTriplets(
    size_t rows, size_t cols, std::vector<IntervalTriplet> triplets,
    DuplicatePolicy duplicates) {
  for (const IntervalTriplet& t : triplets) {
    IVMF_CHECK_MSG(t.row < rows && t.col < cols,
                   "triplet index outside the matrix shape");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const IntervalTriplet& a, const IntervalTriplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseIntervalMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.lo_.reserve(triplets.size());
  m.hi_.reserve(triplets.size());

  for (size_t k = 0; k < triplets.size(); ++k) {
    const IntervalTriplet& t = triplets[k];
    if (!m.col_idx_.empty() && k > 0 && triplets[k - 1].row == t.row &&
        triplets[k - 1].col == t.col) {
      IVMF_CHECK_MSG(duplicates == DuplicatePolicy::kMergeHull,
                     "duplicate cell in triplets (DuplicatePolicy::kReject)");
      // Duplicate coordinate: merge to the interval hull.
      m.lo_.back() = std::min(m.lo_.back(), t.value.lo);
      m.hi_.back() = std::max(m.hi_.back(), t.value.hi);
      continue;
    }
    m.col_idx_.push_back(t.col);
    m.lo_.push_back(t.value.lo);
    m.hi_.push_back(t.value.hi);
    ++m.row_ptr_[t.row + 1];
  }
  for (size_t i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

SparseIntervalMatrix SparseIntervalMatrix::FromCsr(
    size_t rows, size_t cols, std::vector<size_t> row_ptr,
    std::vector<size_t> col_idx, std::vector<double> lo,
    std::vector<double> hi) {
  IVMF_CHECK_MSG(row_ptr.size() == rows + 1, "row_ptr must have rows + 1 offsets");
  IVMF_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                 "row_ptr must span exactly the entry arrays");
  IVMF_CHECK_MSG(lo.size() == col_idx.size() && hi.size() == col_idx.size(),
                 "endpoint arrays must match the pattern size");
  for (size_t i = 0; i < rows; ++i) {
    IVMF_CHECK_MSG(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      IVMF_CHECK_MSG(col_idx[k] < cols, "column index outside the shape");
      IVMF_CHECK_MSG(k == row_ptr[i] || col_idx[k - 1] < col_idx[k],
                     "columns must be ascending and unique within a row");
    }
  }
  SparseIntervalMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.lo_ = std::move(lo);
  m.hi_ = std::move(hi);
  return m;
}

SparseIntervalMatrix SparseIntervalMatrix::FromDense(
    const IntervalMatrix& dense, double tol) {
  SparseIntervalMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (size_t i = 0; i < m.rows_; ++i) {
    for (size_t j = 0; j < m.cols_; ++j) {
      const double lo = dense.lower()(i, j);
      const double hi = dense.upper()(i, j);
      if (std::abs(lo) <= tol && std::abs(hi) <= tol) continue;
      m.col_idx_.push_back(j);
      m.lo_.push_back(lo);
      m.hi_.push_back(hi);
      ++m.row_ptr_[i + 1];
    }
  }
  for (size_t i = 0; i < m.rows_; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  return m;
}

double SparseIntervalMatrix::FillFraction() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

Interval SparseIntervalMatrix::At(size_t i, size_t j) const {
  IVMF_DCHECK(i < rows_ && j < cols_);
  const auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return Interval();
  const size_t k = static_cast<size_t>(it - col_idx_.begin());
  return Interval(lo_[k], hi_[k]);
}

IntervalMatrix SparseIntervalMatrix::ToDense() const {
  IntervalMatrix dense(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      dense.Set(i, col_idx_[k], Interval(lo_[k], hi_[k]));
    }
  }
  return dense;
}

std::vector<IntervalTriplet> SparseIntervalMatrix::ToTriplets() const {
  std::vector<IntervalTriplet> triplets;
  triplets.reserve(nnz());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      triplets.push_back({i, col_idx_[k], Interval(lo_[k], hi_[k])});
    }
  }
  return triplets;
}

SparseIntervalMatrix SparseIntervalMatrix::Transpose() const {
  SparseIntervalMatrix t;
  t.kernel_ = kernel_;  // backend selection follows the matrix
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  t.col_idx_.resize(nnz());
  t.lo_.resize(nnz());
  t.hi_.resize(nnz());

  // Counting sort by column: histogram, prefix-sum, scatter.
  for (size_t k = 0; k < col_idx_.size(); ++k) ++t.row_ptr_[col_idx_[k] + 1];
  for (size_t j = 0; j < cols_; ++j) t.row_ptr_[j + 1] += t.row_ptr_[j];
  std::vector<size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const size_t dst = next[col_idx_[k]]++;
      t.col_idx_[dst] = i;
      t.lo_[dst] = lo_[k];
      t.hi_[dst] = hi_[k];
    }
  }
  return t;
}

bool SparseIntervalMatrix::IsProper() const {
  for (size_t k = 0; k < lo_.size(); ++k) {
    if (lo_[k] > hi_[k]) return false;
  }
  return true;
}

bool SparseIntervalMatrix::IsNonNegative(double tol) const {
  for (const double lo : lo_) {
    if (lo < -tol) return false;
  }
  return true;
}

spk::PackedCsrView SparseIntervalMatrix::PackedView() const {
  PackedSlot* slot = packed_.get();
  // Column indices are < cols_, so they fit u16 exactly when cols_ <= 2^16.
  const bool narrow = cols_ <= (size_t{1} << 16);
  std::call_once(slot->once, [&] {
    if (narrow) {
      slot->col16.resize(col_idx_.size());
      for (size_t k = 0; k < col_idx_.size(); ++k) {
        slot->col16[k] = static_cast<uint16_t>(col_idx_[k]);
      }
    } else {
      slot->col32.resize(col_idx_.size());
      for (size_t k = 0; k < col_idx_.size(); ++k) {
        slot->col32[k] = static_cast<uint32_t>(col_idx_[k]);
      }
    }
  });
  spk::PackedCsrView view;
  view.rows = rows_;
  view.cols = cols_;
  view.row_ptr = row_ptr_.data();
  if (narrow) {
    view.col16 = slot->col16.data();
  } else {
    view.col32 = slot->col32.data();
  }
  return view;
}

void SparseIntervalMatrix::Multiply(Endpoint e, const std::vector<double>& x,
                                    std::vector<double>& y) const {
  ShardedSparseIntervalMatrix::BorrowedView(*this).Multiply(e, x, y);
}

}  // namespace ivmf
