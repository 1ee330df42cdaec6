#include "eval/evaluator.h"

#include "rules/builtins.h"
#include "util/check.h"

namespace rdfsr::eval {

GenericEvaluator::GenericEvaluator(rules::Rule rule,
                                   const schema::SignatureIndex* index)
    : rule_(std::move(rule)), index_(index) {
  RDFSR_CHECK(index_ != nullptr);
}

SigmaCounts GenericEvaluator::Counts(const std::vector<int>& sig_ids) const {
  const schema::SignatureIndex sub = index_->Restrict(sig_ids);
  return EvaluateRuleOnIndex(rule_, sub);
}

ClosedFormEvaluator::ClosedFormEvaluator(
    Kind kind, rules::Rule rule, const schema::SignatureIndex* index,
    const std::vector<std::string>& params)
    : kind_(kind), rule_(std::move(rule)), index_(index) {
  RDFSR_CHECK(index_ != nullptr);
  switch (kind_) {
    case Kind::kDep:
    case Kind::kSymDep:
    case Kind::kDepDisj:
      dep_id1_ = index_->FindProperty(params[0]);
      dep_id2_ = index_->FindProperty(params[1]);
      break;
    case Kind::kCovIgnoring:
      ignored_mask_ = schema::PropertySet(index_->num_properties());
      for (const std::string& name : params) {
        const int p = index_->FindProperty(name);
        if (p >= 0) ignored_mask_.Insert(static_cast<std::size_t>(p));
      }
      break;
    case Kind::kCov:
    case Kind::kSim:
      break;
  }
}

SortStats ClosedFormEvaluator::MakeStats() const {
  return SortStats(index_, dep_id1_, dep_id2_);
}

SigmaCounts ClosedFormEvaluator::CountsFromStats(const SortStats& stats) const {
  switch (kind_) {
    case Kind::kCov:
      return CovCountsFromStats(stats);
    case Kind::kCovIgnoring:
      return CovIgnoringCountsFromStats(stats, ignored_mask_);
    case Kind::kSim:
      return SimCountsFromStats(stats);
    case Kind::kDep:
      return DepCountsFromStats(stats);
    case Kind::kSymDep:
      return SymDepCountsFromStats(stats);
    case Kind::kDepDisj:
      return DepDisjCountsFromStats(stats);
  }
  return {};
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Cov(
    const schema::SignatureIndex* index) {
  return std::unique_ptr<ClosedFormEvaluator>(
      new ClosedFormEvaluator(Kind::kCov, rules::CovRule(), index, {}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::CovIgnoring(
    const schema::SignatureIndex* index, std::vector<std::string> ignored) {
  rules::Rule rule = rules::CovRuleIgnoring(ignored);
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kCovIgnoring, std::move(rule), index, ignored));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Sim(
    const schema::SignatureIndex* index) {
  return std::unique_ptr<ClosedFormEvaluator>(
      new ClosedFormEvaluator(Kind::kSim, rules::SimRule(), index, {}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Dep(
    const schema::SignatureIndex* index, std::string p1, std::string p2) {
  rules::Rule rule = rules::DepRule(p1, p2);
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kDep, std::move(rule), index, {p1, p2}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::SymDep(
    const schema::SignatureIndex* index, std::string p1, std::string p2) {
  rules::Rule rule = rules::SymDepRule(p1, p2);
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kSymDep, std::move(rule), index, {p1, p2}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::DepDisj(
    const schema::SignatureIndex* index, std::string p1, std::string p2) {
  rules::Rule rule = rules::DepDisjunctiveRule(p1, p2);
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kDepDisj, std::move(rule), index, {p1, p2}));
}

SigmaCounts ClosedFormEvaluator::Counts(const std::vector<int>& sig_ids) const {
  SortStats stats = MakeStats();
  for (int sig : sig_ids) stats.Add(sig);
  return CountsFromStats(stats);
}

SigmaCounts ClosedFormEvaluator::CountsFromMergedStats(
    const SortStats& a, const SortStats& b) const {
  switch (kind_) {
    case Kind::kCov:
      return CovCountsFromMergedStats(a, b);
    case Kind::kCovIgnoring:
      return CovIgnoringCountsFromMergedStats(a, b, ignored_mask_);
    case Kind::kSim:
      return SimCountsFromMergedStats(a, b);
    case Kind::kDep:
      return DepCountsFromMergedStats(a, b);
    case Kind::kSymDep:
      return SymDepCountsFromMergedStats(a, b);
    case Kind::kDepDisj:
      return DepDisjCountsFromMergedStats(a, b);
  }
  return {};
}

namespace {

/// Extracts "p1" and "p2" from a builtin name "Family[p1,p2]".
bool ParseBracketParams(const std::string& name, const std::string& prefix,
                        std::string* p1, std::string* p2) {
  if (name.size() < prefix.size() + 2) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name[prefix.size()] != '[' || name.back() != ']') return false;
  const std::string body =
      name.substr(prefix.size() + 1, name.size() - prefix.size() - 2);
  const std::size_t comma = body.find(',');
  if (comma == std::string::npos) return false;
  *p1 = body.substr(0, comma);
  *p2 = body.substr(comma + 1);
  return !p1->empty() && !p2->empty();
}

}  // namespace

std::unique_ptr<Evaluator> MakeEvaluator(const rules::Rule& rule,
                                         const schema::SignatureIndex* index) {
  const std::string& name = rule.name();
  if (name == "Cov") return ClosedFormEvaluator::Cov(index);
  if (name == "Sim") return ClosedFormEvaluator::Sim(index);
  if (name.rfind("CovIgnoring[", 0) == 0 && name.back() == ']') {
    // The ignored properties are the prop(c) = p constants of the antecedent.
    // Recovered from the AST, not the display name: property IRIs may contain
    // commas, which the name's comma-joined list cannot round-trip.
    std::vector<std::string> ignored;
    rules::CollectPropertyConstants(rule.antecedent(), &ignored);
    return ClosedFormEvaluator::CovIgnoring(index, std::move(ignored));
  }
  std::string p1, p2;
  if (ParseBracketParams(name, "Dep", &p1, &p2)) {
    return ClosedFormEvaluator::Dep(index, p1, p2);
  }
  if (ParseBracketParams(name, "SymDep", &p1, &p2)) {
    return ClosedFormEvaluator::SymDep(index, p1, p2);
  }
  if (ParseBracketParams(name, "DepDisj", &p1, &p2)) {
    return ClosedFormEvaluator::DepDisj(index, p1, p2);
  }
  return std::make_unique<GenericEvaluator>(rule, index);
}

}  // namespace rdfsr::eval
