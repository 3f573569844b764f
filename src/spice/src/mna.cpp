#include "ppd/spice/mna.hpp"

#include <limits>
#include <numeric>

#include "ppd/util/error.hpp"

namespace ppd::spice {

namespace {

/// Stable counting sort of slots 1 .. key.size() - 1 (slot 0 is the sink)
/// by key: ptr[k] .. ptr[k + 1] indexes the slots with key k in `src`, in
/// slot order — the bind order a from-scratch assemble accumulates in.
void group_slots(const std::vector<std::size_t>& key, std::size_t keys,
                 std::vector<std::size_t>& ptr, std::vector<std::size_t>& src) {
  ptr.assign(keys + 1, 0);
  for (std::size_t s = 1; s < key.size(); ++s) ++ptr[key[s] + 1];
  for (std::size_t k = 0; k < keys; ++k) ptr[k + 1] += ptr[k];
  src.resize(key.size() - 1);
  std::vector<std::size_t> cursor(ptr.begin(), ptr.end() - 1);
  for (std::size_t s = 1; s < key.size(); ++s) src[cursor[key[s]]++] = s;
}

}  // namespace

MnaSystem::MnaSystem(std::size_t unknowns)
    : n_(unknowns),
      // Slot 0 is the sink of both sequences; its row/col n is out of range
      // for every real entry.
      trip_row_{unknowns},
      trip_col_{unknowns},
      val_{0.0},
      rhs_row_{unknowns},
      rhs_val_{0.0},
      rhs_(unknowns, 0.0) {}

MnaSlot MnaSystem::bind(MnaIndex row, MnaIndex col) {
  PPD_REQUIRE(!frozen_, "bind() after freeze()");
  if (row < 0 || col < 0) return kSinkSlot;
  const auto r = static_cast<std::size_t>(row);
  const auto c = static_cast<std::size_t>(col);
  PPD_REQUIRE(r < n_ && c < n_, "MNA index out of range");
  PPD_REQUIRE(val_.size() < std::numeric_limits<MnaSlot>::max(),
              "too many MNA slots");
  trip_row_.push_back(r);
  trip_col_.push_back(c);
  val_.push_back(0.0);
  return static_cast<MnaSlot>(val_.size() - 1);
}

MnaSlot MnaSystem::bind_rhs(MnaIndex row) {
  PPD_REQUIRE(!frozen_, "bind_rhs() after freeze()");
  if (row < 0) return kSinkSlot;
  const auto r = static_cast<std::size_t>(row);
  PPD_REQUIRE(r < n_, "MNA rhs index out of range");
  PPD_REQUIRE(rhs_val_.size() < std::numeric_limits<MnaSlot>::max(),
              "too many MNA rhs slots");
  rhs_row_.push_back(r);
  rhs_val_.push_back(0.0);
  return static_cast<MnaSlot>(rhs_val_.size() - 1);
}

void MnaSystem::freeze() {
  PPD_REQUIRE(!frozen_, "freeze() called twice");
  // Cells are the distinct column-major offsets the slots feed, numbered
  // in order of first appearance; each cell accumulates its slots in bind
  // order, as a from-scratch dense assemble does.
  const std::size_t ns = val_.size();  // slots, sink included
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> cell_at(n_ * n_, kNone);
  cell_offset_.clear();
  cell_.resize(ns);
  for (std::size_t s = 1; s < ns; ++s) {
    const std::size_t off = trip_col_[s] * n_ + trip_row_[s];
    if (cell_at[off] == kNone) {
      cell_at[off] = cell_offset_.size();
      cell_offset_.push_back(off);
    }
    cell_[s] = cell_at[off];
  }
  const std::size_t cells = cell_offset_.size();
  cell_[kSinkSlot] = cells;  // the sink's cell is the extra one
  group_slots(cell_, cells, cell_ptr_, cell_src_);
  image_.assign(cells, 0.0);
  dense_ = linalg::DenseMatrix(n_, n_);
  dlw_.set_structure(n_, cell_offset_);
  group_slots(rhs_row_, n_, rhs_ptr_, rhs_src_);
  // Every cell and rhs row starts queued, so the first solve accumulates
  // all of them. The extra cell and row n the sinks map to stay flagged
  // forever, so set() / set_rhs() never queue them.
  cell_dirty_.assign(cells + 1, 1);
  dirty_cells_.resize(cells);
  std::iota(dirty_cells_.begin(), dirty_cells_.end(), std::size_t{0});
  n_dirty_cells_ = cells;
  rhs_row_dirty_.assign(n_ + 1, 1);
  dirty_rhs_rows_.resize(n_);
  std::iota(dirty_rhs_rows_.begin(), dirty_rhs_rows_.end(), std::size_t{0});
  n_dirty_rhs_rows_ = n_;
  frozen_ = true;
}

void MnaSystem::solve_into(std::vector<double>& x) {
  PPD_REQUIRE(frozen_, "solve_into() before freeze()");
  const bool mat_changed = n_dirty_cells_ > 0;
  // No slot changed bits since the last solve: this is bitwise the same
  // system, so the last solution IS this solve's result.
  if (!mat_changed && n_dirty_rhs_rows_ == 0 && solve_cached_) {
    ++stats_.cached;
    x = cached_x_;
    return;
  }
  for (std::size_t i = 0; i < n_dirty_rhs_rows_; ++i) {
    const std::size_t r = dirty_rhs_rows_[i];
    double acc = 0.0;
    for (std::size_t k = rhs_ptr_[r]; k < rhs_ptr_[r + 1]; ++k)
      acc += rhs_val_[rhs_src_[k]];
    rhs_[r] = acc;
    rhs_row_dirty_[r] = 0;
  }
  n_dirty_rhs_rows_ = 0;
  // An unchanged matrix re-solves against the factorization already in
  // dense_ — the factors of bitwise these values.
  if (mat_changed || !factor_ok_) {
    ++stats_.refactored;
    factor_ok_ = false;
    solve_cached_ = false;
    // A from-scratch += assemble sums each cell from +0.0.
    for (std::size_t i = 0; i < n_dirty_cells_; ++i) {
      const std::size_t c = dirty_cells_[i];
      double acc = 0.0;
      for (std::size_t k = cell_ptr_[c]; k < cell_ptr_[c + 1]; ++k)
        acc += val_[cell_src_[k]];
      image_[c] = acc;
      cell_dirty_[c] = 0;
    }
    n_dirty_cells_ = 0;
    // The in-place factorization consumes its input: factor a copy.
    dlw_.clear(dense_);
    double* d = dense_.data();
    for (std::size_t c = 0; c < image_.size(); ++c) d[cell_offset_[c]] = image_[c];
    dlw_.factor(dense_);
    factor_ok_ = true;
  } else {
    ++stats_.rhs_only;
  }
  dlw_.solve_into(rhs_, x);
  cached_x_ = x;
  solve_cached_ = true;
}

}  // namespace ppd::spice
