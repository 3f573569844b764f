#include "ppd/spice/mna.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "ppd/util/error.hpp"

namespace ppd::spice {

namespace {

[[nodiscard]] bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

MnaSystem::MnaSystem(std::size_t unknowns, bool use_sparse)
    : n_(unknowns), use_sparse_(use_sparse), rhs_(unknowns, 0.0) {
  if (!use_sparse_) dense_ = linalg::DenseMatrix(n_, n_);
}

void MnaSystem::reset() {
  if (learned_) {
    // Keep the learned structure and its values; replay from the top. The
    // matrix image and rhs are rebuilt from the slot arrays at solve time.
    trip_cursor_ = 0;
    rhs_cursor_ = 0;
    partial_ = false;
    return;
  }
  trip_row_.clear();
  trip_col_.clear();
  trip_val_.clear();
  rhs_row_.clear();
  rhs_val_.clear();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

void MnaSystem::note_partial() {
  PPD_REQUIRE(learned_, "note_partial() requires a replay-ready MNA");
  partial_ = true;
}

void MnaSystem::seek(const Mark& m) {
  PPD_REQUIRE(learned_, "seek() requires a replay-ready MNA");
  PPD_REQUIRE(m.trip <= trip_row_.size() && m.rhs <= rhs_row_.size(),
              "seek() mark out of range");
  trip_cursor_ = m.trip;
  rhs_cursor_ = m.rhs;
  partial_ = true;
}

void MnaSystem::add(MnaIndex row, MnaIndex col, double value) {
  if (row < 0 || col < 0) return;
  const auto r = static_cast<std::size_t>(row);
  const auto c = static_cast<std::size_t>(col);
  PPD_REQUIRE(r < n_ && c < n_, "MNA index out of range");
  if (learned_) {
    PPD_REQUIRE(trip_cursor_ < trip_row_.size() &&
                    trip_row_[trip_cursor_] == r && trip_col_[trip_cursor_] == c,
                "frozen MNA assemble diverged from the learned structure");
    const std::size_t k = trip_cursor_++;
    double& slot = trip_val_[k];
    if (!bits_equal(slot, value)) {
      slot = value;
      mat_changed_ = true;
      if (!trip_slot_.empty()) {
        const std::size_t s = trip_slot_[k];
        if (!slot_dirty_[s]) {
          slot_dirty_[s] = 1;
          dirty_slots_.push_back(s);
        }
      }
    }
    return;
  }
  trip_row_.push_back(r);
  trip_col_.push_back(c);
  trip_val_.push_back(value);
}

void MnaSystem::add_rhs(MnaIndex row, double value) {
  if (row < 0) return;
  const auto r = static_cast<std::size_t>(row);
  PPD_REQUIRE(r < n_, "MNA rhs index out of range");
  if (learned_) {
    PPD_REQUIRE(rhs_cursor_ < rhs_row_.size() && rhs_row_[rhs_cursor_] == r,
                "frozen MNA rhs assemble diverged from the learned structure");
    double& slot = rhs_val_[rhs_cursor_++];
    if (!bits_equal(slot, value)) {
      slot = value;
      rhs_changed_ = true;
      if (!rhs_row_dirty_[r]) {
        rhs_row_dirty_[r] = 1;
        dirty_rhs_rows_.push_back(r);
      }
    }
    return;
  }
  rhs_row_.push_back(r);
  rhs_val_.push_back(value);
  rhs_[r] += value;
}

void MnaSystem::learn_sparse_structure() {
  // Replicate SparseMatrix's construction — counting sort into column
  // buckets, an in-column sort by row, duplicates merged in sorted order —
  // but record, for every triplet, the CSC slot it lands in and the order it
  // is accumulated, so frozen assembles can scatter values straight into the
  // CSC image with bitwise-identical sums.
  linalg::SparseBuilder b(n_, n_);
  for (std::size_t k = 0; k < trip_row_.size(); ++k)
    b.add(trip_row_[k], trip_col_[k], trip_val_[k]);
  a_ = std::make_unique<linalg::SparseMatrix>(b);

  const std::size_t nt = trip_row_.size();
  std::vector<std::size_t> count(n_ + 1, 0);
  for (std::size_t c : trip_col_) ++count[c + 1];
  for (std::size_t c = 0; c < n_; ++c) count[c + 1] += count[c];

  std::vector<std::size_t> rows(nt), src(nt);
  std::vector<std::size_t> cursor(count.begin(), count.end() - 1);
  for (std::size_t k = 0; k < nt; ++k) {
    const std::size_t pos = cursor[trip_col_[k]]++;
    rows[pos] = trip_row_[k];
    src[pos] = k;
  }

  // slot_src_ lists triplets in accumulation order; scatter_slot holds the
  // CSC slot each of them lands in.
  slot_src_.clear();
  slot_src_.reserve(nt);
  std::vector<std::size_t> scatter_slot;
  scatter_slot.reserve(nt);
  std::size_t slot = 0;  // next CSC slot to open, globally increasing
  for (std::size_t c = 0; c < n_; ++c) {
    const std::size_t lo = count[c];
    const std::size_t hi = count[c + 1];
    std::vector<std::size_t> order(hi - lo);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = lo + i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b2) { return rows[a] < rows[b2]; });
    bool first = true;
    std::size_t prev_row = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t pos = order[i];
      if (first || rows[pos] != prev_row) ++slot;  // opens a new CSC entry
      first = false;
      prev_row = rows[pos];
      slot_src_.push_back(src[pos]);
      scatter_slot.push_back(slot - 1);
    }
  }
  PPD_REQUIRE(slot == a_->nonzeros(), "scatter program out of sync with CSC");

  // Inverse maps for incremental re-scatter. scatter_slot is non-decreasing
  // (slots open in order), so the contributions to one slot are contiguous
  // in slot_src_ and a counting pass yields a slot -> triplets CSR whose
  // within-slot order IS the accumulation order.
  trip_slot_.assign(nt, 0);
  for (std::size_t i = 0; i < nt; ++i) trip_slot_[slot_src_[i]] = scatter_slot[i];
  slot_ptr_.assign(slot + 1, 0);
  for (std::size_t s : scatter_slot) ++slot_ptr_[s + 1];
  for (std::size_t s = 0; s < slot; ++s) slot_ptr_[s + 1] += slot_ptr_[s];
  slot_dirty_.assign(slot, 0);
  dirty_slots_.clear();
}

void MnaSystem::learn_rhs_rows() {
  // Stable counting sort of the rhs add sequence by row: per-row order is
  // ascending sequence order, which is the order the learning assemble
  // accumulated each rhs_[r] in — so a per-row rebuild sums bitwise the same.
  const std::size_t nr = rhs_row_.size();
  rhs_ptr_.assign(n_ + 1, 0);
  for (std::size_t r : rhs_row_) ++rhs_ptr_[r + 1];
  for (std::size_t r = 0; r < n_; ++r) rhs_ptr_[r + 1] += rhs_ptr_[r];
  rhs_src_.resize(nr);
  std::vector<std::size_t> cursor(rhs_ptr_.begin(), rhs_ptr_.end() - 1);
  for (std::size_t k = 0; k < nr; ++k) rhs_src_[cursor[rhs_row_[k]]++] = k;
  rhs_row_dirty_.assign(n_, 0);
  dirty_rhs_rows_.clear();
}

void MnaSystem::learn_dense_structure() {
  // A from-scratch dense assemble accumulates every cell in add order;
  // scattering the recorded triplets in that same order reproduces every
  // cell sum bitwise.
  dense_slot_.resize(trip_row_.size());
  for (std::size_t k = 0; k < trip_row_.size(); ++k)
    dense_slot_[k] = trip_col_[k] * n_ + trip_row_[k];  // column-major
}

void MnaSystem::solve_into(std::vector<double>& x) {
  if (!learned_) {
    // The learning assemble recorded the add sequences (and accumulated
    // rhs_ directly); build the replay programs and arm replay mode. The
    // matrix image is then built like any replayed one.
    if (use_sparse_)
      learn_sparse_structure();
    else
      learn_dense_structure();
    learn_rhs_rows();
    learned_ = true;
    trip_cursor_ = trip_row_.size();
    rhs_cursor_ = rhs_row_.size();
  }
  PPD_REQUIRE(partial_ || (trip_cursor_ == trip_row_.size() &&
                           rhs_cursor_ == rhs_row_.size()),
              "frozen MNA assemble is incomplete");
  partial_ = false;
  // No slot changed bits since the last solve: this is bitwise the same
  // system, so the last solution IS this solve's result.
  if (!mat_changed_ && !rhs_changed_ && solve_cached_) {
    ++stats_.cached;
    x = cached_x_;
    return;
  }
  if (rhs_changed_) {
    // Only rows whose slot values changed bits need re-accumulation;
    // every other rhs_[r] already holds its (bitwise) rebuild sum.
    for (std::size_t r : dirty_rhs_rows_) {
      double acc = 0.0;
      for (std::size_t k = rhs_ptr_[r]; k < rhs_ptr_[r + 1]; ++k)
        acc += rhs_val_[rhs_src_[k]];
      rhs_[r] = acc;
      rhs_row_dirty_[r] = 0;
    }
    dirty_rhs_rows_.clear();
  }
  // An unchanged matrix re-solves against the factorization already in
  // dense_/slu_ — the factors of bitwise these values.
  const bool refactor = mat_changed_ || !factor_ok_;
  if (refactor) {
    ++stats_.refactored;
    factor_ok_ = false;
    solve_cached_ = false;
    if (use_sparse_) {
      // The CSC image persists between solves (the factorization reads it,
      // never writes it), so only dirty slots re-accumulate.
      auto& av = a_->mutable_values();
      for (std::size_t s : dirty_slots_) {
        double acc = 0.0;
        for (std::size_t k = slot_ptr_[s]; k < slot_ptr_[s + 1]; ++k)
          acc += trip_val_[slot_src_[k]];
        av[s] = acc;
        slot_dirty_[s] = 0;
      }
      dirty_slots_.clear();
      if (!slu_.factored() || !slu_.refactor(*a_)) slu_.factor(*a_);
    } else {
      // In-place factorization consumes dense_, so every dense factor
      // rebuilds it from the recorded slots, in add order.
      dense_.set_zero();
      double* d = dense_.data();
      for (std::size_t k = 0; k < dense_slot_.size(); ++k)
        d[dense_slot_[k]] += trip_val_[k];
      dlw_.factor(dense_);
    }
    factor_ok_ = true;
  } else {
    ++stats_.rhs_only;
  }
  if (use_sparse_)
    slu_.solve_into(rhs_, x);
  else
    dlw_.solve_into(rhs_, x);
  cached_x_ = x;
  solve_cached_ = true;
  mat_changed_ = false;
  rhs_changed_ = false;
}

}  // namespace ppd::spice
