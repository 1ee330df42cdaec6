// Evaluator: uniform interface for computing sigma_r over implicit sorts.
//
// The refinement engine (core/) repeatedly asks "what is sigma of this subset
// of signatures?": the greedy backend during local search, the solver when
// validating decoded ILP solutions, the benches when reporting per-sort
// values. Evaluator hides whether that is answered by the generic
// signature-level enumerator (any rule) or by a closed form (the builtin
// families); the two are property-tested to agree.

#ifndef RDFSR_EVAL_EVALUATOR_H_
#define RDFSR_EVAL_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/closed_form.h"
#include "eval/counts.h"
#include "eval/enumerator.h"
#include "eval/sort_stats.h"
#include "rules/ast.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {

/// Computes exact structuredness counts for subsets of a fixed base index.
/// The subset is given by signature ids; the implicit sort's property view is
/// the union of the member signatures' supports (columns unused by the subset
/// do not exist in the sort's matrix).
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// The rule whose sigma this evaluator computes.
  virtual const rules::Rule& rule() const = 0;

  /// Exact counts for an implicit sort.
  virtual SigmaCounts Counts(const std::vector<int>& sig_ids) const = 0;

  /// Counts over the whole base index.
  SigmaCounts CountsAll() const { return Counts(AllSignatures(index())); }

  /// sigma for an implicit sort (1.0 when there are no total cases).
  double Sigma(const std::vector<int>& sig_ids) const {
    return Counts(sig_ids).Value();
  }

  /// sigma over the whole base index.
  double SigmaAll() const { return CountsAll().Value(); }

  /// Empty mergeable stats for this evaluator's rule: closed-form evaluators
  /// configure rule-specific tracked state here (the Dep pair), so callers
  /// can maintain candidate sorts incrementally and ask CountsFromStats
  /// instead of re-walking member signatures.
  virtual SortStats MakeStats() const { return SortStats(&index()); }

  /// Counts from incrementally maintained stats; must equal
  /// Counts(stats.members().ToVector()) exactly. This base implementation
  /// does exactly that (the generic-enumerator fallback); closed-form
  /// evaluators answer from the aggregates in O(1).
  virtual SigmaCounts CountsFromStats(const SortStats& stats) const {
    return Counts(stats.members().ToVector());
  }

  /// sigma from incrementally maintained stats.
  double SigmaFromStats(const SortStats& stats) const {
    return CountsFromStats(stats).Value();
  }

  /// Counts of the union of two disjoint stats — the agglomerative
  /// candidate-merge probe. Must equal merging first and extracting after;
  /// this base implementation does exactly that, closed-form evaluators
  /// derive the union's counts pairwise without materializing it.
  virtual SigmaCounts CountsFromMergedStats(const SortStats& a,
                                            const SortStats& b) const {
    SortStats merged = a;
    merged.MergeWith(b);
    return CountsFromStats(merged);
  }

  /// Whether the stats entry points are cheap closed-form extractions. The
  /// memoizing wrapper skips its table for stats probes when true: hashing
  /// and storing an O(n/64)-word member key costs more than the O(|P|/64)
  /// extraction it would cache.
  virtual bool cheap_stats() const { return false; }

  /// The base index subsets refer to.
  virtual const schema::SignatureIndex& index() const = 0;
};

/// Evaluator running the generic signature-level enumerator on the restricted
/// index. Works for every rule in the language. Rules mentioning subject
/// constants require the base index to retain subject names.
class GenericEvaluator : public Evaluator {
 public:
  GenericEvaluator(rules::Rule rule, const schema::SignatureIndex* index);

  const rules::Rule& rule() const override { return rule_; }
  const schema::SignatureIndex& index() const override { return *index_; }
  SigmaCounts Counts(const std::vector<int>& sig_ids) const override;

 private:
  rules::Rule rule_;
  const schema::SignatureIndex* index_;
};

/// Evaluator using the closed forms of eval/closed_form.h.
class ClosedFormEvaluator : public Evaluator {
 public:
  /// Which builtin family.
  enum class Kind { kCov, kCovIgnoring, kSim, kDep, kSymDep, kDepDisj };

  static std::unique_ptr<ClosedFormEvaluator> Cov(
      const schema::SignatureIndex* index);
  static std::unique_ptr<ClosedFormEvaluator> CovIgnoring(
      const schema::SignatureIndex* index, std::vector<std::string> ignored);
  static std::unique_ptr<ClosedFormEvaluator> Sim(
      const schema::SignatureIndex* index);
  static std::unique_ptr<ClosedFormEvaluator> Dep(
      const schema::SignatureIndex* index, std::string p1, std::string p2);
  static std::unique_ptr<ClosedFormEvaluator> SymDep(
      const schema::SignatureIndex* index, std::string p1, std::string p2);
  static std::unique_ptr<ClosedFormEvaluator> DepDisj(
      const schema::SignatureIndex* index, std::string p1, std::string p2);

  const rules::Rule& rule() const override { return rule_; }
  const schema::SignatureIndex& index() const override { return *index_; }
  /// Folds `sig_ids` into MakeStats() and extracts: the same aggregates the
  /// heuristics maintain. The ids must be distinct and in range.
  SigmaCounts Counts(const std::vector<int>& sig_ids) const override;

  /// Dep families get their pair resolved to ids once at construction and
  /// tracked through every stats mutation.
  SortStats MakeStats() const override;

  /// O(1) extraction from the aggregates (O(|ignored|) for CovIgnoring).
  SigmaCounts CountsFromStats(const SortStats& stats) const override;

  /// Pairwise union extraction: O(|P|/64) plus Sim's shared-column cross
  /// term, no merged stats materialized.
  SigmaCounts CountsFromMergedStats(const SortStats& a,
                                    const SortStats& b) const override;

  bool cheap_stats() const override { return true; }

 private:
  /// `params` are the ignored properties, or {p1, p2}.
  ClosedFormEvaluator(Kind kind, rules::Rule rule,
                      const schema::SignatureIndex* index,
                      const std::vector<std::string>& params);

  Kind kind_;
  rules::Rule rule_;
  const schema::SignatureIndex* index_;
  // Parameters resolved once at construction: the Dep pair's column ids and
  // the CovIgnoring word mask.
  int dep_id1_ = -1;
  int dep_id2_ = -1;
  schema::PropertySet ignored_mask_;
};

/// Picks the fastest evaluator for a rule: builtin rules created by
/// rules/builtins.h are recognized by name and routed to their closed forms;
/// everything else gets the generic enumerator.
std::unique_ptr<Evaluator> MakeEvaluator(const rules::Rule& rule,
                                         const schema::SignatureIndex* index);

}  // namespace rdfsr::eval

#endif  // RDFSR_EVAL_EVALUATOR_H_
