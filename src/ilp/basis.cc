#include "ilp/basis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/check.h"

namespace rdfsr::ilp {
namespace {

/// Pivot magnitudes at or below this are treated as structural zeros: the
/// column is declared dependent and repaired.
constexpr double kSingularTol = 1e-10;

/// Threshold partial pivoting: rows within this factor of the column's max
/// are numerically acceptable, and among them the sparsest row (smallest
/// static count) wins — trading a bounded amount of growth for less fill.
constexpr double kRelPivotTol = 0.1;

/// Smallest replacement pivot (B^-1 a at the leaving position) an update
/// accepts; below this Update() reports failure and the caller refactorizes.
constexpr double kUpdatePivotTol = 1e-9;

/// The Forrest–Tomlin diagonal must equal the old diagonal times the
/// replacement pivot; a larger relative disagreement means the factors have
/// drifted, and Update() reports failure instead of storing it.
constexpr double kUpdateDriftTol = 1e-8;

struct Entry {
  int idx;
  double val;
};

/// Removes the entry with index `idx` from `list` (order is not kept: every
/// reader of a U list scatters into distinct targets).
void EraseEntry(std::vector<Entry>* list, int idx) {
  for (Entry& e : *list) {
    if (e.idx == idx) {
      e = list->back();
      list->pop_back();
      return;
    }
  }
  RDFSR_DCHECK(false) << "U row and column indexes disagree";
}

/// Resizes `lists` to m empty lists, keeping their capacity.
void ClearLists(std::vector<std::vector<Entry>>* lists, int m) {
  lists->resize(m);
  for (std::vector<Entry>& list : *lists) list.clear();
}

// ---------------------------------------------------------------------------
// Sparse LU: left-looking Gilbert–Peierls elimination, Forrest–Tomlin update.
// ---------------------------------------------------------------------------

class LuFactorization final : public BasisRep {
 public:
  explicit LuFactorization(int m) : m_(m) {}

  void Factorize(const SparseColumns& cols, int n_struct,
                 std::vector<int>* basic, std::vector<int>* ejected) override;
  void Ftran(std::vector<double>* v) const override;
  void FtranColumn(const std::vector<std::pair<int, double>>& column,
                   std::vector<double>* w) const override;
  void Btran(std::vector<double>* v) const override;
  bool Update(int pos, const std::vector<double>& w) override;
  int eta_length() const override { return updates_; }

 private:
  // Eliminates one basis column (basis position `p`). Returns false when the
  // column is dependent on the already-pivoted set (caller repairs it).
  bool FactorColumn(const std::vector<std::pair<int, double>>& col, int p,
                    const std::vector<int>& row_count, int* done,
                    std::vector<double>* work, std::vector<int>* touched);
  // x := R_t ... R_1 L^-1 x, in row space.
  void ApplyLAndRowEtas(std::vector<double>* x) const;
  // Solves U z = P x and scatters z to basis-position space, in place.
  void SolveU(std::vector<double>* x) const;

  int m_;
  // A slot is one step of the last factorization: a (pivot row, basis
  // position) pair that updates keep while they rewrite its U column.
  //   pivot_row_[s]   matrix row pivoted in slot s     (slot -> row)
  //   col_order_[s]   basis position of slot s         (slot -> position)
  //   row_pos_[r]     inverse of pivot_row_            (row -> slot)
  //   slot_of_pos_[p] inverse of col_order_            (position -> slot)
  //   l_cols_[s]      L multipliers (matrix row, l), applied in slot order
  //   u_cols_[s]      U off-diagonals of column s (row slot, value)
  //   u_rows_[s]      the same entries by row (column slot, value)
  //   u_diag_[s]      U diagonal
  //   order_          U's triangular order of the slots; rank_ its inverse
  std::vector<int> col_order_, pivot_row_, row_pos_, slot_of_pos_;
  std::vector<std::vector<Entry>> l_cols_, u_cols_, u_rows_;
  std::vector<double> u_diag_;
  std::vector<int> order_, rank_;

  // Forrest–Tomlin row etas since the last factorization, oldest first, in
  // row space: eta t does x[r_target_[t]] -= sum l * x[row] over
  // r_entries_[r_start_[t] .. r_start_[t + 1]).
  std::vector<int> r_target_, r_start_;
  std::vector<Entry> r_entries_;
  int updates_ = 0;

  // The entering column's L^-1 a after the row etas (row space), kept by
  // FtranColumn for the Update that must follow it.
  mutable std::vector<Entry> spike_;
  mutable bool spike_valid_ = false;

  // Scratch, all-zero between calls: mark_ flags slots in FactorColumn's
  // reach, rho_ accumulates by slot in Update.
  std::vector<char> mark_;
  std::vector<int> reach_, stack_;
  std::vector<double> rho_;
  mutable std::vector<double> scratch_;
};

void LuFactorization::Factorize(const SparseColumns& cols, int n_struct,
                                std::vector<int>* basic,
                                std::vector<int>* ejected) {
  ClearLists(&l_cols_, m_);
  ClearLists(&u_cols_, m_);
  ClearLists(&u_rows_, m_);
  u_diag_.assign(m_, 0.0);
  col_order_.assign(m_, -1);
  pivot_row_.assign(m_, -1);
  row_pos_.assign(m_, -1);
  slot_of_pos_.assign(m_, -1);
  r_target_.clear();
  r_start_.assign(1, 0);
  r_entries_.clear();
  updates_ = 0;
  spike_valid_ = false;
  mark_.assign(m_, 0);
  rho_.assign(m_, 0.0);
  reach_.reserve(m_);
  stack_.reserve(m_);

  // Static row counts over the basis columns: the Markowitz-style tie-break.
  std::vector<int> row_count(m_, 0);
  for (int p = 0; p < m_; ++p) {
    for (const auto& [row, coef] : cols[(*basic)[p]]) {
      (void)coef;
      ++row_count[row];
    }
  }

  // Eliminate sparsest columns first; stable sort keeps ties deterministic.
  std::vector<int> order(m_);
  for (int p = 0; p < m_; ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return cols[(*basic)[a]].size() < cols[(*basic)[b]].size();
  });

  std::vector<double> work(m_, 0.0);
  std::vector<int> touched;
  touched.reserve(m_);
  std::vector<int> deferred;
  int done = 0;
  for (int p : order) {
    if (!FactorColumn(cols[(*basic)[p]], p, row_count, &done, &work,
                      &touched)) {
      deferred.push_back(p);
    }
  }

  if (!deferred.empty()) {
    // Repair: dependent columns are swapped for the slacks of rows the
    // elimination never pivoted. A slack column -e_r is untouched by the
    // L-pass (it is zero on every pivot row), so it pivots trivially at r.
    std::sort(deferred.begin(), deferred.end());
    std::vector<int> free_rows;
    for (int r = 0; r < m_; ++r) {
      if (row_pos_[r] < 0) free_rows.push_back(r);
    }
    std::size_t next = 0;
    for (int p : deferred) {
      const int r = free_rows[next++];
      ejected->push_back((*basic)[p]);
      (*basic)[p] = n_struct + r;
      const int k = done++;
      col_order_[k] = p;
      pivot_row_[k] = r;
      row_pos_[r] = k;
      u_diag_[k] = -1.0;
    }
  }

  order_.resize(m_);
  rank_.resize(m_);
  for (int s = 0; s < m_; ++s) {
    order_[s] = s;
    rank_[s] = s;
    slot_of_pos_[col_order_[s]] = s;
    for (const Entry& e : u_cols_[s]) u_rows_[e.idx].push_back({s, e.val});
  }
}

bool LuFactorization::FactorColumn(
    const std::vector<std::pair<int, double>>& col, int p,
    const std::vector<int>& row_count, int* done, std::vector<double>* work_io,
    std::vector<int>* touched_io) {
  std::vector<double>& work = *work_io;
  std::vector<int>& touched = *touched_io;
  touched.clear();
  for (const auto& [row, coef] : col) {
    if (work[row] == 0.0) touched.push_back(row);
    work[row] += coef;
  }

  // Symbolic reach: the finished steps that can touch this column are those
  // whose pivot row is nonzero in it, plus, transitively, those whose pivot
  // row is filled by an L column of a reached step. Every L column of step k
  // writes only rows pivoted after k, so ascending order is a topological one.
  reach_.clear();
  for (const auto& [row, coef] : col) {
    (void)coef;
    const int k0 = row_pos_[row];
    if (k0 < 0 || mark_[k0] != 0) continue;
    mark_[k0] = 1;
    stack_.push_back(k0);
    while (!stack_.empty()) {
      const int k = stack_.back();
      stack_.pop_back();
      reach_.push_back(k);
      for (const Entry& e : l_cols_[k]) {
        const int next = row_pos_[e.idx];
        if (next < 0 || mark_[next] != 0) continue;
        mark_[next] = 1;
        stack_.push_back(next);
      }
    }
  }
  std::sort(reach_.begin(), reach_.end());

  // Apply the reached L columns in elimination order.
  for (int k : reach_) {
    mark_[k] = 0;
    const double val = work[pivot_row_[k]];
    if (val == 0.0) continue;
    for (const Entry& e : l_cols_[k]) {
      if (work[e.idx] == 0.0) touched.push_back(e.idx);
      work[e.idx] -= e.val * val;
    }
  }

  // Pivot choice among unpivoted rows: numerically acceptable (threshold
  // partial pivoting), then sparsest row, then largest magnitude, then
  // smallest row index for determinism.
  double maxabs = 0.0;
  for (int i : touched) {
    if (row_pos_[i] >= 0) continue;
    const double a = std::fabs(work[i]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs <= kSingularTol) {
    for (int i : touched) work[i] = 0.0;
    return false;
  }
  const double accept = std::max(kSingularTol, kRelPivotTol * maxabs);
  int pivot = -1;
  int best_count = std::numeric_limits<int>::max();
  double best_abs = 0.0;
  for (int i : touched) {
    if (row_pos_[i] >= 0) continue;
    const double a = std::fabs(work[i]);
    if (a < accept) continue;
    const bool better =
        pivot < 0 || row_count[i] < best_count ||
        (row_count[i] == best_count &&
         (a > best_abs || (a == best_abs && i < pivot)));
    if (better) {
      pivot = i;
      best_count = row_count[i];
      best_abs = a;
    }
  }

  const int k = (*done)++;
  col_order_[k] = p;
  pivot_row_[k] = pivot;
  row_pos_[pivot] = k;
  const double diag = work[pivot];
  u_diag_[k] = diag;
  work[pivot] = 0.0;
  for (int i : touched) {
    const double v = work[i];
    work[i] = 0.0;  // duplicates in `touched` read 0.0 and are skipped
    if (v == 0.0) continue;
    if (row_pos_[i] >= 0) {
      u_cols_[k].push_back({row_pos_[i], v});
    } else {
      l_cols_[k].push_back({i, v / diag});
    }
  }
  return true;
}

void LuFactorization::ApplyLAndRowEtas(std::vector<double>* v) const {
  std::vector<double>& x = *v;
  for (int s = 0; s < m_; ++s) {
    const double val = x[pivot_row_[s]];
    if (val == 0.0) continue;
    for (const Entry& e : l_cols_[s]) x[e.idx] -= e.val * val;
  }
  for (std::size_t t = 0; t < r_target_.size(); ++t) {
    double acc = x[r_target_[t]];
    for (int i = r_start_[t]; i < r_start_[t + 1]; ++i) {
      acc -= r_entries_[i].val * x[r_entries_[i].idx];
    }
    x[r_target_[t]] = acc;
  }
}

void LuFactorization::SolveU(std::vector<double>* v) const {
  std::vector<double>& x = *v;
  std::vector<double>& z = scratch_;
  z.resize(m_);
  for (int s = 0; s < m_; ++s) z[s] = x[pivot_row_[s]];
  for (int i = m_ - 1; i >= 0; --i) {
    const int s = order_[i];
    const double xs = z[s] / u_diag_[s];
    z[s] = xs;
    if (xs == 0.0) continue;
    for (const Entry& e : u_cols_[s]) z[e.idx] -= e.val * xs;
  }
  for (int s = 0; s < m_; ++s) x[col_order_[s]] = z[s];
}

void LuFactorization::Ftran(std::vector<double>* v) const {
  ApplyLAndRowEtas(v);
  SolveU(v);
}

void LuFactorization::FtranColumn(
    const std::vector<std::pair<int, double>>& column,
    std::vector<double>* w) const {
  w->assign(m_, 0.0);
  for (const auto& [row, coef] : column) (*w)[row] += coef;
  ApplyLAndRowEtas(w);
  spike_.clear();
  for (int r = 0; r < m_; ++r) {
    if ((*w)[r] != 0.0) spike_.push_back({r, (*w)[r]});
  }
  spike_valid_ = true;
  SolveU(w);
}

void LuFactorization::Btran(std::vector<double>* v) const {
  std::vector<double>& y = *v;
  // Gather to slots and solve U^T z = y in U's order, row by row.
  std::vector<double>& z = scratch_;
  z.resize(m_);
  for (int s = 0; s < m_; ++s) z[s] = y[col_order_[s]];
  for (int i = 0; i < m_; ++i) {
    const int s = order_[i];
    const double zs = z[s] / u_diag_[s];
    z[s] = zs;
    if (zs == 0.0) continue;
    for (const Entry& e : u_rows_[s]) z[e.idx] -= e.val * zs;
  }
  // Scatter to row space, then the transposed row etas newest first and the
  // transposed L ops in reverse order.
  for (int s = 0; s < m_; ++s) y[pivot_row_[s]] = z[s];
  for (std::size_t t = r_target_.size(); t-- > 0;) {
    const double yt = y[r_target_[t]];
    if (yt == 0.0) continue;
    for (int i = r_start_[t]; i < r_start_[t + 1]; ++i) {
      y[r_entries_[i].idx] -= r_entries_[i].val * yt;
    }
  }
  for (int s = m_ - 1; s >= 0; --s) {
    double acc = y[pivot_row_[s]];
    for (const Entry& e : l_cols_[s]) acc -= e.val * y[e.idx];
    y[pivot_row_[s]] = acc;
  }
}

bool LuFactorization::Update(int pos, const std::vector<double>& w) {
  RDFSR_DCHECK(spike_valid_)
      << "Update must follow the FtranColumn of the entering column";
  spike_valid_ = false;
  const double piv = w[pos];
  if (std::fabs(piv) < kUpdatePivotTol) return false;
  const int sp = slot_of_pos_[pos];

  // Forrest–Tomlin: the spike replaces U's column sp, and sp moves to the end
  // of U's order. Row sp then has entries left of its diagonal, which one row
  // eta eliminates with the rows after it, visited in U's order (the same
  // O(m - rank) walk the reordering below makes). Nothing is stored before
  // the new diagonal passes its check.
  for (const Entry& e : u_rows_[sp]) rho_[e.idx] = e.val;
  const std::size_t eta_begin = r_entries_.size();
  for (int i = rank_[sp] + 1; i < m_; ++i) {
    const int j = order_[i];
    const double val = rho_[j];
    rho_[j] = 0.0;  // also clears a -0.0 left by cancellation
    if (val == 0.0) continue;
    const double r = val / u_diag_[j];
    r_entries_.push_back({pivot_row_[j], r});
    for (const Entry& e : u_rows_[j]) rho_[e.idx] -= r * e.val;
  }

  // The new diagonal: the spike's sp entry after the row eta.
  for (const Entry& e : spike_) rho_[row_pos_[e.idx]] = e.val;
  double diag = rho_[sp];
  for (std::size_t i = eta_begin; i < r_entries_.size(); ++i) {
    diag -= r_entries_[i].val * rho_[row_pos_[r_entries_[i].idx]];
  }
  const double expected = piv * u_diag_[sp];
  if (!(std::fabs(diag - expected) <= kUpdateDriftTol * std::fabs(expected))) {
    for (const Entry& e : spike_) rho_[row_pos_[e.idx]] = 0.0;
    r_entries_.resize(eta_begin);
    return false;
  }

  // Commit: row and column sp leave U, the spike becomes column sp.
  for (const Entry& e : u_cols_[sp]) EraseEntry(&u_rows_[e.idx], sp);
  for (const Entry& e : u_rows_[sp]) EraseEntry(&u_cols_[e.idx], sp);
  u_cols_[sp].clear();
  u_rows_[sp].clear();
  for (const Entry& e : spike_) {
    const int s = row_pos_[e.idx];
    rho_[s] = 0.0;
    if (s == sp) continue;
    u_cols_[sp].push_back({s, e.val});
    u_rows_[s].push_back({sp, e.val});
  }
  u_diag_[sp] = diag;
  if (r_entries_.size() > eta_begin) {
    r_target_.push_back(pivot_row_[sp]);
    r_start_.push_back(static_cast<int>(r_entries_.size()));
  }
  order_.erase(order_.begin() + rank_[sp]);
  order_.push_back(sp);
  for (int i = rank_[sp]; i < m_; ++i) rank_[order_[i]] = i;
  ++updates_;
  return true;
}

}  // namespace

std::unique_ptr<BasisRep> MakeLuFactorization(int m) {
  return std::make_unique<LuFactorization>(m);
}

}  // namespace rdfsr::ilp
