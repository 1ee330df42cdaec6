// The Section 6 reduction: EXISTSSORTREFINEMENT(r) as an integer program.
//
// Variables (per implicit sort i in 1..k):
//   X_{i,mu}  signature mu is placed in sort i          (binary)
//   U_{i,p}   sort i uses property p                    (implied; see below)
//   T_{i,tau} rough assignment tau is consistent in i   (implied; see below)
// Constraints:
//   (1) sum_i X_{i,mu} = 1                          each signature in one sort
//   (2) X_{i,mu} <= U_{i,p}          for p in supp(mu)
//   (3) U_{i,p} <= sum_{mu: p in supp} X_{i,mu}
//   (4) T linking (see below)
//   (5) theta2 * sum_tau cF(tau) T_{i,tau} >= theta1 * sum_tau cT(tau) T_{i,tau}
//   (6) symmetry breaking by precedence: sort i+1 opens only after sort i
//       (in place of the paper's hash(i) <= hash(i+1) constraints)
//
// Optimizations relative to the paper's literal encoding (all preserving the
// feasible set exactly):
//   * tau pruning: tau with count(phi1,tau,M) = 0 cannot contribute to (5) and
//     is never materialized (the paper hints at this: "the value of
//     count(...) is calculated offline").
//   * implied integrality: given integral X, constraints (2)+(3) force each
//     U_{i,p} to exactly 0/1, and the sign-directed linking in (4) gives each
//     T_{i,tau} exactly the freedom of AND(X,U) — so U and T are declared
//     continuous in [0,1], shrinking the branching space to the k|Lambda|
//     X variables.
//   * sign-directed linking: a tau whose threshold-row weight
//     w = theta2*cF - theta1*cT is positive only needs T <= each linked
//     variable (the row pushes T up); a negative-weight tau only needs
//     T >= sum(linked) - (|linked| - 1) (the row pushes T down). Zero-weight
//     taus drop out of the threshold row.
//   * X-substitution: when tau touches a single signature and all its
//     properties lie in that signature's support, T == X_{i,mu} and the weight
//     folds directly into the threshold row.
//   * link coverage: a property of tau supported by one of tau's own
//     signatures needs no U link (X of that signature already implies U).
//
// Reusable instances. The searches of Section 7 (highest-theta grid scan,
// lowest-k ladder) drive this encoding through many decision instances that
// differ only in theta. Everything except the threshold-row weights is
// theta-independent, so the encoding is split in two:
//   * RefinementIlpInstance builds the full skeleton once per (index, k):
//     X/U/T variables, assignment, support-link, tau-link, and precedence
//     rows. Both directions of every tau link are materialized; the
//     theta-dependent side selection of sign-directed linking is applied per
//     instance by toggling row bounds (a deactivated side is a vacuous row,
//     dropped by the root presolve).
//   * Reweight(theta) rewrites the k threshold rows' coefficients and the
//     link-row bounds in place through the coefficient-update API of
//     ilp::Model — O(k * |taus|) stores, no allocation proportional to the
//     skeleton.
// BuildRefinementIlp (one-shot) constructs an instance and reweights it once,
// so a per-instance rebuild and a reused instance produce bit-identical
// models by construction (asserted in tests and bench_solver).

#ifndef RDFSR_CORE_ILP_BUILDER_H_
#define RDFSR_CORE_ILP_BUILDER_H_

#include <cstdint>
#include <vector>

#include "core/refinement.h"
#include "eval/enumerator.h"
#include "ilp/model.h"
#include "rules/ast.h"
#include "schema/signature_index.h"
#include "util/rational.h"

namespace rdfsr::core {

/// No fields: kept so existing callers passing SolverOptions::build compile.
struct IlpBuildOptions {};

/// Theta-independent analysis of one tau: the distinct signatures it touches,
/// the properties still needing a U link (those not covered by any of its own
/// signatures' supports), and the counts its threshold weight
/// w(theta) = theta2 * favorable - theta1 * total is derived from.
struct TauShape {
  std::vector<int> sigs;          ///< distinct signature ids
  std::vector<int> linked_props;  ///< distinct props needing a U link
  std::int64_t total = 0;         ///< count(phi1, tau, M)
  std::int64_t favorable = 0;     ///< count(phi1 ∧ phi2, tau, M)
};

/// Analyzes every tau once; reusable across k and theta (the searches cache
/// the result per (rule, dataset)).
std::vector<TauShape> AnalyzeTaus(const std::vector<eval::TauCount>& tau_counts,
                                  const schema::SignatureIndex& index);

/// Exact number of constraints RefinementIlpInstance builds for k sorts —
/// theta-independent, so solver row ceilings can be checked without paying
/// for a model build.
std::size_t RefinementIlpRows(const schema::SignatureIndex& index,
                              const std::vector<TauShape>& shapes, int k,
                              const IlpBuildOptions& = {});

/// Upper bound (over all theta) on the rows still ACTIVE after Reweight:
/// sign-directed linking keeps one side of each tau — max(|linked|, 1)
/// rows — while the other side is vacuous and dropped by the presolve before
/// the simplex. This is the count solver row ceilings should gate on;
/// RefinementIlpRows additionally counts the deactivated rows the skeleton
/// carries.
std::size_t RefinementIlpActiveRows(const schema::SignatureIndex& index,
                                    const std::vector<TauShape>& shapes, int k,
                                    const IlpBuildOptions& = {});

/// A built encoding plus the decoding map.
struct IlpEncoding {
  ilp::Model model;
  int k = 0;
  int num_signatures = 0;
  std::vector<std::vector<int>> x_var;  ///< x_var[i][mu] -> model variable id.
  long long num_tau_variables = 0;      ///< materialized T vars (diagnostics)
  long long num_tau_substituted = 0;    ///< taus folded into X terms

  /// Reads the X block of a solution into a refinement (empty sorts dropped).
  SortRefinement Decode(const std::vector<double>& x) const;
};

/// One reusable encoding for a fixed (index, k): the skeleton is
/// built once, Reweight(theta) retargets it to a decision instance in place.
/// The searches keep one instance per k and sweep it through the theta grid /
/// k ladder instead of rebuilding O(k * |P| * n) models per instance.
class RefinementIlpInstance {
 public:
  RefinementIlpInstance(const schema::SignatureIndex& index,
                        std::vector<TauShape> shapes, int k);

  /// Retargets the encoding to threshold `theta`: rewrites the k threshold
  /// rows' coefficients and toggles the theta-dependent link-row bounds.
  /// O(k * |taus|); no skeleton work.
  void Reweight(Rational theta);

  /// The encoding (valid after the first Reweight).
  const IlpEncoding& encoding() const { return enc_; }
  const ilp::Model& model() const { return enc_.model; }

  /// Reads the X block of a solution into a refinement.
  SortRefinement Decode(const std::vector<double>& x) const {
    return enc_.Decode(x);
  }

  /// Moves the encoding out (the one-shot BuildRefinementIlp path).
  IlpEncoding ReleaseEncoding() && { return std::move(enc_); }

  /// Full skeleton/Reweight consistency validation (fatal on violation): the
  /// model's own invariants hold, the decode maps are k x n / k x |taus| and
  /// reference live variables and rows, substitution is consistent across
  /// sorts, every link row carries exactly the bounds Reweight may set, and
  /// threshold rows mention only this instance's X/T variables. O(model);
  /// audit builds run it after every Reweight.
  void CheckInvariants() const;

 private:
  IlpEncoding enc_;
  std::vector<TauShape> shapes_;
  // Per sort i and tau t: the T variable (-1 when substituted / X-folded).
  std::vector<std::vector<int>> t_var_;
  // Per sort i and tau t: first link-row id; rows [first, first + linked)
  // are the upper links (T <= lv), row first + linked is the lower link
  // (T >= sum - (linked-1)). -1 when substituted.
  std::vector<std::vector<int>> link_row_;
  // Per sort i: the threshold row (5).
  std::vector<int> threshold_row_;
};

/// Builds the ILP for EXISTSSORTREFINEMENT(rule) on (index, k, theta).
/// `tau_counts` must be EnumerateTauCounts(rule, index) (passed in so callers
/// can reuse it across the theta search). One-shot convenience over
/// RefinementIlpInstance + Reweight — produces the identical model.
IlpEncoding BuildRefinementIlp(const schema::SignatureIndex& index,
                               const rules::Rule& rule,
                               const std::vector<eval::TauCount>& tau_counts,
                               int k, Rational theta,
                               const IlpBuildOptions& = {});

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_ILP_BUILDER_H_
