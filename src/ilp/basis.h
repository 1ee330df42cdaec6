// Basis representations for the bounded-variable revised simplex.
//
// The simplex iterates over a square basis matrix B whose columns are drawn
// from [A | -I] (structural columns of the model plus one slack column per
// row). Each iteration needs four operations:
//   * Ftran:  w = B^-1 a        (pivot column, basic-value refresh)
//   * Btran:  y = B^-T c_B      (duals for pricing)
//   * Update: replace the column at one basis position after a pivot
//   * Factorize: rebuild the representation from the basic variable list
//
// LuFactorization is the engine's basis, and the only one in src/: a sparse
// LU of B with Forrest–Tomlin updates.
//   * Factorize is a left-looking Gilbert–Peierls elimination (SISC 1988).
//     Columns go sparsest first. For each one, a depth-first search from its
//     nonzero rows through the finished L columns finds the elimination steps
//     that can touch it, and only those are applied, in elimination order.
//     The pivot row is chosen among numerically acceptable candidates (within
//     a threshold of the column's max) by smallest static row count, a
//     Markowitz-style choice that controls fill.
//   * Update is Forrest–Tomlin (Math. Prog. 1972). FtranColumn keeps the
//     entering column's partial solve L^-1 a (the spike); Update writes it
//     into U as the leaving position's column, moves that column to the end
//     of U's triangular order, and eliminates the old row with one sparse
//     row eta, using a row-wise index of U. Nothing dense is stored per
//     update, so Ftran/Btran cost O(m + nnz(L) + nnz(U) + nnz(row etas)).
// Update must follow the FtranColumn of the entering column (the simplex
// always does: the ratio test needs that column). It returns false when the
// replacement pivot is tiny or the new U diagonal disagrees with it, and the
// caller refactorizes; the simplex also refactorizes every
// SimplexOptions::refactor_interval updates.
//
// It supports warm starts from an arbitrary SimplexBasis: Factorize repairs a
// structurally or numerically singular basis by replacing dependent columns
// with the slacks of unpivoted rows (the ejected variables are reported so
// the caller can move them to a bound). A dense reference BasisRep lives with
// the tests, which run it through the seam SolveLpWithBasis (ilp/simplex.h).

#ifndef RDFSR_ILP_BASIS_H_
#define RDFSR_ILP_BASIS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace rdfsr::ilp {

/// Column-major sparse view of [A | -I]: cols[j] lists (row, coef) of
/// variable j's constraint-matrix column.
using SparseColumns = std::vector<std::vector<std::pair<int, double>>>;

/// Where a variable sits in a basis snapshot.
enum class BasisStatus : std::uint8_t {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kAtZero = 3,  ///< free nonbasic, parked at 0
};

/// A restartable basis snapshot: the warm-start contract between LP solves.
/// `basic` holds one variable index per row (basis position order) and
/// `status` one entry per variable (structural then slack, model order).
/// SolveLp validates shape and contents; a snapshot from a differently-sized
/// model is silently ignored (cold start), and a stale-but-well-shaped one is
/// repaired during factorization.
struct SimplexBasis {
  std::vector<int> basic;
  std::vector<BasisStatus> status;

  bool empty() const { return basic.empty(); }
};

/// Solve-internals counters surfaced through LpResult / MipResult and the
/// bench JSON: how much pivoting, refactorization, and warm-start reuse a
/// solve actually did.
struct LpEngineStats {
  long long pivots = 0;            ///< basis changes (bound flips excluded)
  long long refactorizations = 0;  ///< from-scratch basis factorizations
  long long basis_repairs = 0;     ///< dependent columns replaced by slacks
  long long basis_reuses = 0;      ///< LP solves adopting a warm basis
  int max_eta_length = 0;          ///< most updates between refactorizations

  void MergeWith(const LpEngineStats& other) {
    pivots += other.pivots;
    refactorizations += other.refactorizations;
    basis_repairs += other.basis_repairs;
    basis_reuses += other.basis_reuses;
    if (other.max_eta_length > max_eta_length) {
      max_eta_length = other.max_eta_length;
    }
  }
};

/// Abstract basis representation. All vectors are dense of length m; Ftran
/// maps row space -> basis-position space, Btran the transpose direction.
class BasisRep {
 public:
  virtual ~BasisRep() = default;

  /// Rebuilds the representation for the basis `*basic` (variable indices
  /// into `cols`). Dependent columns are repaired in place: basic[p] is
  /// replaced with the slack of a row the elimination never pivoted, and the
  /// ejected variable index is appended to *ejected (the caller re-states
  /// it nonbasic). After return the representation is nonsingular.
  virtual void Factorize(const SparseColumns& cols, int n_struct,
                         std::vector<int>* basic,
                         std::vector<int>* ejected) = 0;

  /// v := B^-1 v. Input indexed by matrix row, output by basis position.
  virtual void Ftran(std::vector<double>* v) const = 0;

  /// w := B^-1 a for a sparse column (the pivot-column hot path). Keeps
  /// what Update needs if this column enters the basis next.
  virtual void FtranColumn(const std::vector<std::pair<int, double>>& column,
                           std::vector<double>* w) const = 0;

  /// v := B^-T v. Input indexed by basis position, output by matrix row.
  virtual void Btran(std::vector<double>* v) const = 0;

  /// Records the basis change at position `pos`, where `w` is the image of
  /// the entering column from the FtranColumn call just before. Returns false
  /// when the update is numerically unsafe (tiny pivot, drifted factors); the
  /// caller must then refactorize before the next solve.
  virtual bool Update(int pos, const std::vector<double>& w) = 0;

  /// Updates since the last factorization (0 for representations that do
  /// not count them).
  virtual int eta_length() const { return 0; }
};

std::unique_ptr<BasisRep> MakeLuFactorization(int m);

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_BASIS_H_
