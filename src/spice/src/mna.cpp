#include "ppd/spice/mna.hpp"

#include <limits>

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
  std::vector<std::size_t> cell(ns);  // slot -> cell
  cell_offset_.clear();
  for (std::size_t s = 1; s < ns; ++s) {
    const std::size_t off = trip_col_[s] * n_ + trip_row_[s];
    if (cell_at[off] == kNone) {
      cell_at[off] = cell_offset_.size();
      cell_offset_.push_back(off);
    }
    cell[s] = cell_at[off];
  }
  group_slots(cell, cell_offset_.size(), cell_ptr_, cell_src_);
  dense_ = linalg::DenseMatrix(n_, n_);
  dlw_.set_structure(n_, cell_offset_);
  group_slots(rhs_row_, n_, rhs_ptr_, rhs_src_);
  frozen_ = true;
}

void MnaSystem::solve_into(std::vector<double>& x) {
  PPD_REQUIRE(frozen_, "solve_into() before freeze()");
  // No slot changed bits since the last solve: this is bitwise the same
  // system, so the last solution IS this solve's result.
  if (!matrix_changed_ && !rhs_changed_ && solve_cached_) {
    ++stats_.cached;
    x = cached_x_;
    return;
  }
  // A from-scratch += assemble sums each row and cell from +0.0.
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t k = rhs_ptr_[r]; k < rhs_ptr_[r + 1]; ++k)
      acc += rhs_val_[rhs_src_[k]];
    rhs_[r] = acc;
  }
  rhs_changed_ = false;
  // An unchanged matrix re-solves against the factorization already in
  // dense_ — the factors of bitwise these values.
  if (matrix_changed_ || !factor_ok_) {
    ++stats_.refactored;
    matrix_changed_ = false;
    factor_ok_ = false;
    solve_cached_ = false;
    // The in-place factorization consumed the last sums: clear its
    // positions and sum every cell again.
    dlw_.clear(dense_);
    double* d = dense_.data();
    for (std::size_t c = 0; c < cell_offset_.size(); ++c) {
      double acc = 0.0;
      for (std::size_t k = cell_ptr_[c]; k < cell_ptr_[c + 1]; ++k)
        acc += val_[cell_src_[k]];
      d[cell_offset_[c]] = acc;
    }
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
