// Bounded-variable revised primal simplex.
//
// Solves min c.x subject to the model's range constraints and variable bounds
// (integrality ignored — this is the LP relaxation used by branch-and-bound).
//
// Formulation: each range row lo <= a.x <= hi becomes the equality
// a.x - s = 0 with a slack s bounded by [lo, hi], so the constraint matrix is
// [A | -I] with right-hand side 0 and the slack columns form the initial
// basis. Feasibility is restored with a composite phase-1 (minimize the sum of
// basic bound violations, costs recomputed each iteration), then phase 2
// optimizes the true objective.
//
// The basis is a sparse LU factorization with product-form eta updates (see
// ilp/basis.h), refactorized every `refactor_interval` pivots or when an
// update pivot is numerically unsafe. Pricing is partial Dantzig (segment
// scan with a rotating cursor), with a Bland fallback against cycling. Basic
// values are refreshed from the factorization periodically for numerical
// hygiene.
//
// Warm starts: every solve returns its final basis in LpResult::basis, and
// SimplexOptions::warm_basis replays such a snapshot — the factorization
// repairs stale bases (bound changes, numerical singularity) by ejecting
// dependent columns, and phase-1 restores feasibility from there. A snapshot
// whose shape does not match the model is ignored (cold start).

#ifndef RDFSR_ILP_SIMPLEX_H_
#define RDFSR_ILP_SIMPLEX_H_

#include <memory>
#include <vector>

#include "ilp/basis.h"
#include "ilp/model.h"
#include "util/deadline.h"

namespace rdfsr::ilp {

/// Outcome of an LP solve.
enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,  ///< max_iterations pivots without convergence.
  kCancelled,       ///< Cooperative cancellation / deadline tripped mid-solve.
};

const char* LpStatusName(LpStatus status);

/// LP solution.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< Structural variable values (model order).
  int iterations = 0;
  SimplexBasis basis;        ///< Final basis: feed back via warm_basis.
  LpEngineStats stats;       ///< Pivot / refactorization counters.
  bool warm_started = false; ///< True when a warm basis was actually adopted.
};

/// Solver options.
struct SimplexOptions {
  int max_iterations = 200000;
  /// Refactorize once the eta file reaches this length.
  int refactor_interval = 100;
  /// Optional warm-start basis (not owned; must outlive the solve). Ignored
  /// unless its shape matches the model; repaired if stale.
  const SimplexBasis* warm_basis = nullptr;
  /// Polled every ~128 pivots; a trip ends the solve with kCancelled.
  util::CancellationToken cancel;
};

/// Solves the LP relaxation of `model`. When `lower`/`upper` are non-null they
/// override the model's variable bounds (branch-and-bound node bounds).
LpResult SolveLp(const Model& model, const SimplexOptions& options = {},
                 const std::vector<double>* lower = nullptr,
                 const std::vector<double>* upper = nullptr);

/// Builds the basis representation for an m-row model.
using BasisFactory = std::unique_ptr<BasisRep> (*)(int m);

/// SolveLp over the basis representation `make_basis` builds. SolveLp is
/// SolveLpWithBasis(MakeLuFactorization, ...); this seam exists so the tests
/// can run the same pivots over the MakeDenseInverse reference.
LpResult SolveLpWithBasis(BasisFactory make_basis, const Model& model,
                          const SimplexOptions& options = {},
                          const std::vector<double>* lower = nullptr,
                          const std::vector<double>* upper = nullptr);

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_SIMPLEX_H_
