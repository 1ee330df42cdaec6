// Property tests: closed-form structuredness (Cov/Sim/Dep/SymDep/DepDisj and
// CovIgnoring) must agree exactly with the generic signature-level enumerator
// on the same rule, on full indexes and on every subset (implicit sort).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {
namespace {

void ExpectSameCounts(const SigmaCounts& a, const SigmaCounts& b,
                      const std::string& label) {
  EXPECT_EQ(static_cast<long long>(a.total), static_cast<long long>(b.total))
      << label << " totals";
  EXPECT_EQ(static_cast<long long>(a.favorable),
            static_cast<long long>(b.favorable))
      << label << " favorables";
}

/// Every builtin family through its public factory. The oracle for each is
/// a GenericEvaluator on the factory's own rule, which never touches
/// SortStats or the closed forms.
std::vector<std::unique_ptr<ClosedFormEvaluator>> AllFamilies(
    const schema::SignatureIndex* index) {
  std::vector<std::unique_ptr<ClosedFormEvaluator>> out;
  out.push_back(ClosedFormEvaluator::Cov(index));
  out.push_back(ClosedFormEvaluator::Sim(index));
  out.push_back(ClosedFormEvaluator::Dep(index, "p0", "p1"));
  out.push_back(ClosedFormEvaluator::SymDep(index, "p1", "p2"));
  out.push_back(ClosedFormEvaluator::DepDisj(index, "p0", "p2"));
  out.push_back(ClosedFormEvaluator::CovIgnoring(index, {"p0", "p3"}));
  return out;
}

class ClosedFormPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  schema::SignatureIndex MakeIndex() const {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 4 + static_cast<int>(GetParam() % 4);
    spec.num_properties = 4;
    spec.max_count = 12;
    spec.density = 0.5;
    spec.seed = GetParam();
    return gen::GenerateRandomIndex(spec);
  }
};

TEST_P(ClosedFormPropertyTest, FullIndexMatchesGeneric) {
  const schema::SignatureIndex index = MakeIndex();
  for (const auto& closed : AllFamilies(&index)) {
    ExpectSameCounts(closed->CountsAll(),
                     EvaluateRuleOnIndex(closed->rule(), index),
                     closed->rule().name());
  }
}

TEST_P(ClosedFormPropertyTest, EverySubsetMatchesGeneric) {
  // Every non-empty implicit sort, in a scrambled id order: the closed form
  // over the subset must equal the enumerator on the restricted index.
  const schema::SignatureIndex index = MakeIndex();
  const int n = static_cast<int>(index.num_signatures());
  for (const auto& closed : AllFamilies(&index)) {
    const GenericEvaluator generic(closed->rule(), &index);
    for (int mask = 1; mask < (1 << n); ++mask) {
      std::vector<int> subset;
      for (int i = n - 1; i >= 0; --i) {
        if (mask & (1 << i)) subset.push_back(i);
      }
      ExpectSameCounts(closed->Counts(subset), generic.Counts(subset),
                       closed->rule().name() + " mask " +
                           std::to_string(mask));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ClosedFormTest, DepMissingColumnIsTriviallyOne) {
  std::vector<schema::Signature> sigs = {{{0}, 5}, {{0, 1}, 5}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  // Restricting to the {a}-only signature removes column b entirely.
  const SigmaCounts counts = ClosedFormEvaluator::Dep(&index, "a", "b")
                                 ->Counts({0});
  EXPECT_EQ(static_cast<long long>(counts.total), 0);
  EXPECT_DOUBLE_EQ(counts.Value(), 1.0);
  // Unknown property names behave the same way.
  const SigmaCounts unknown =
      ClosedFormEvaluator::Dep(&index, "a", "zzz")->CountsAll();
  EXPECT_EQ(static_cast<long long>(unknown.total), 0);
}

TEST(ClosedFormTest, SymDepPaperExample) {
  // sigma_SymDep[deathPlace, deathDate] = |both| / |either|.
  std::vector<schema::Signature> sigs = {
      {{0, 1}, 39},  // both
      {{0}, 20},     // place only
      {{1}, 41},     // date only
      {{0, 1, 2}, 0 + 1},  // both + extra (keeps p2 used)
  };
  const schema::SignatureIndex index = schema::SignatureIndex::FromSignatures(
      {"deathPlace", "deathDate", "x"}, sigs);
  const SigmaCounts counts =
      ClosedFormEvaluator::SymDep(&index, "deathPlace", "deathDate")
          ->CountsAll();
  EXPECT_EQ(static_cast<long long>(counts.favorable), 40);
  EXPECT_EQ(static_cast<long long>(counts.total), 101);
  EXPECT_NEAR(counts.Value(), 0.396, 0.001);
}

TEST(ClosedFormTest, EvaluatorDispatchesClosedForms) {
  gen::RandomIndexSpec spec;
  spec.seed = 5;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const std::vector<int> all = AllSignatures(index);

  // The factory must route every builtin to its closed form, not fall back
  // to the enumerator, and agree with the enumerator on the same rule.
  // CovIgnoring recovers its ignored properties from the rule AST; a property
  // IRI containing a comma must survive that round trip (the display name's
  // comma-joined list would mis-split it).
  for (const rules::Rule& rule :
       {rules::CovRule(), rules::SimRule(), rules::CovRuleIgnoring({"p0", "p2"}),
        rules::CovRuleIgnoring({"p0,p1"}), rules::DepRule("p0", "p1"),
        rules::SymDepRule("p0", "p1"), rules::DepDisjunctiveRule("p1", "p0")}) {
    auto evaluator = MakeEvaluator(rule, &index);
    EXPECT_NE(dynamic_cast<const ClosedFormEvaluator*>(evaluator.get()),
              nullptr)
        << rule.name();
    ExpectSameCounts(evaluator->Counts(all),
                     GenericEvaluator(rule, &index).Counts(all),
                     "factory " + rule.name());
  }
}

TEST(ClosedFormTest, FactoryFallsBackToGenericForAdHocRules) {
  gen::RandomIndexSpec spec;
  spec.seed = 6;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto parsed =
      rules::ParseRule("val(c1) = 1 && subj(c1) = subj(c2) -> val(c2) = 1");
  ASSERT_TRUE(parsed.ok());
  auto evaluator = MakeEvaluator(*parsed, &index);
  // Generic evaluator must agree with direct enumeration.
  ExpectSameCounts(evaluator->Counts(AllSignatures(index)),
                   EvaluateRuleOnIndex(*parsed, index), "generic");
}

TEST(ClosedFormTest, EvaluatorSigmaAllHelpers) {
  std::vector<schema::Signature> sigs = {{{0}, 1}, {{0, 1}, 1}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto cov = ClosedFormEvaluator::Cov(&index);
  EXPECT_NEAR(cov->SigmaAll(), 0.75, 1e-12);  // 3 ones / 4 cells
  EXPECT_NEAR(cov->Sigma({0}), 1.0, 1e-12);   // {a}-only sort is complete
}

}  // namespace
}  // namespace rdfsr::eval
