// Mixed-integer linear program model.
//
// Holds variables with bounds and integrality marks, range constraints
// lo <= a.x <= hi, and an optional linear objective. This is the substrate the
// paper outsources to IBM ILOG CPLEX; we implement the model plus our own
// solvers (ilp/simplex.h, ilp/branch_and_bound.h) since CPLEX is proprietary.

#ifndef RDFSR_ILP_MODEL_H_
#define RDFSR_ILP_MODEL_H_

#include <string>
#include <vector>

#include "util/check.h"

namespace rdfsr::ilp {

/// Effective infinity for unbounded variable/constraint sides.
inline constexpr double kInfinity = 1e30;

/// One variable of the model.
struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  bool is_integer = false;
};

/// One term coef * x_var of a linear expression.
struct LinTerm {
  int var = -1;
  double coef = 0.0;
};

/// A range constraint lower <= sum(terms) <= upper.
struct Constraint {
  std::string name;
  std::vector<LinTerm> terms;
  double lower = -kInfinity;
  double upper = kInfinity;
};

/// A mixed-integer linear model. The default objective is zero (pure
/// feasibility), which is how the sort-refinement decision problem is encoded.
class Model {
 public:
  /// Adds a variable; returns its index.
  int AddVariable(std::string name, double lower, double upper,
                  bool is_integer);

  /// Adds a binary (0/1 integer) variable.
  int AddBinary(std::string name) { return AddVariable(std::move(name), 0, 1, true); }

  /// Adds lower <= terms <= upper; returns the constraint index. Terms with
  /// duplicate variables are merged; zero coefficients dropped.
  int AddConstraint(std::string name, std::vector<LinTerm> terms, double lower,
                    double upper);

  /// Replaces the terms and bounds of constraint `r` in place, with the same
  /// merging rules as AddConstraint (duplicates merged, zero coefficients
  /// dropped). The name is kept. This is the coefficient-update entry point
  /// the reusable refinement encoding drives per decision instance: threshold
  /// rows are rewritten for each theta without rebuilding the model.
  void SetConstraintTerms(int r, std::vector<LinTerm> terms, double lower,
                          double upper);

  /// Rewrites only the bounds of constraint `r`. Setting both sides infinite
  /// deactivates the row (the presolve drops such rows as activity-redundant)
  /// — how theta-dependent sign-directed linking rows are toggled per
  /// instance.
  void SetConstraintBounds(int r, double lower, double upper);

  /// Sets the (minimization) objective. Default is the zero objective.
  void SetObjective(std::vector<LinTerm> terms);

  std::size_t num_variables() const { return variables_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }

  const Variable& variable(int j) const {
    RDFSR_CHECK_GE(j, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(j), variables_.size());
    return variables_[j];
  }
  const Constraint& constraint(int r) const {
    RDFSR_CHECK_GE(r, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(r), constraints_.size());
    return constraints_[r];
  }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::vector<LinTerm>& objective() const { return objective_; }

  /// Objective value of a point.
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Checks bounds, integrality, and all constraints at `x` within `tolerance`.
  bool IsFeasible(const std::vector<double>& x, double tolerance = 1e-6) const;

  /// Human-readable LP-format-ish dump (debugging aid).
  std::string ToString() const;

  /// Full row/bound validation (fatal on violation): every term references a
  /// live variable with a nonzero coefficient, no constraint mentions a
  /// variable twice (the MergeTerms postcondition the in-place
  /// coefficient-update API must preserve), and every variable/constraint/
  /// objective bound pair is a non-empty, finite-or-sentinel range. O(model);
  /// audit builds run it before each solve.
  void CheckInvariants() const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  std::vector<LinTerm> objective_;
};

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_MODEL_H_
