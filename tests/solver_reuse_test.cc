// Fresh-solver oracle for the incremental RefinementSolver. A long-lived
// solver keeps one encoding per k (reweighted per theta), chains each exact
// solve's root basis into the next instance, and caches the heuristic
// ladder's refinements; none of that may change an answer. So every
// Exists(k, theta) over the MakeThetaGrid points of a long-lived solver must
// decide as the same call on a brand-new solver does, and the long-lived
// FindHighestTheta / FindLowestK must equal the same searches folded over
// fresh per-instance solvers (theta/k, instance counts, proof flags,
// witnesses). Runs on the quickstart dataset and on random indices,
// with the heuristic ladder on and off (off: every instance is settled by
// the exact MIP).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "../bench/bench_util.h"
#include "api/rdfsr.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

using bench::RenderSorts;

Rational SigmaAll(const eval::Evaluator& evaluator) {
  const eval::SigmaCounts all = evaluator.CountsAll();
  if (all.total == 0) return Rational(1);
  return Rational(static_cast<std::int64_t>(all.favorable),
                  static_cast<std::int64_t>(all.total));
}

std::string Witness(const DecisionResult& r) {
  return r.refinement.has_value() ? RenderSorts(*r.refinement) : "-";
}

DecisionResult FreshExists(const eval::Evaluator& evaluator,
                           const SolverOptions& options, int k,
                           Rational theta) {
  RefinementSolver fresh(&evaluator, options);
  return fresh.Exists(k, theta);
}

/// One long-lived solver answers every grid point for k = 1..3 in sequence
/// (so its caches and warm-basis chain span thetas and k values); each
/// decision must equal a fresh solver's. Heuristic and shortcut witnesses
/// must be identical too. A witness the MIP found may differ: the chained
/// root LP starts from the previous instance's basis, and below the ceiling
/// many partitions meet theta, so the dive can land on another one. That
/// witness must still be a valid k-sort refinement at theta.
void ExpectDecisionsMatchFresh(const eval::Evaluator& evaluator,
                               const SolverOptions& options,
                               const std::string& context) {
  RefinementSolver chained(&evaluator, options);
  const ThetaGrid grid = MakeThetaGrid(SigmaAll(evaluator), options.theta_step);
  for (int k : {1, 2, 3}) {
    for (std::int64_t g = grid.first; g <= grid.last; ++g) {
      const Rational theta = grid.Theta(g);
      const DecisionResult a = chained.Exists(k, theta);
      const DecisionResult b = FreshExists(evaluator, options, k, theta);
      const std::string where =
          context + " k=" + std::to_string(k) + " theta=" + theta.ToString();
      EXPECT_EQ(DecisionName(a.decision), DecisionName(b.decision)) << where;
      EXPECT_EQ(a.via_greedy, b.via_greedy) << where;
      if (a.mip_nodes == 0 || !a.refinement.has_value()) {
        EXPECT_EQ(Witness(a), Witness(b)) << where;
        continue;
      }
      EXPECT_LE(a.refinement->num_sorts(), static_cast<std::size_t>(k))
          << where;
      EXPECT_TRUE(ValidateRefinement(evaluator, *a.refinement, theta).ok())
          << where;
    }
  }
}

/// The long-lived searches against the same scans folded over fresh
/// per-instance solvers.
void ExpectSearchesMatchFresh(const eval::Evaluator& evaluator,
                              const SolverOptions& options,
                              const std::string& context) {
  RefinementSolver chained(&evaluator, options);
  const Rational sigma_all = SigmaAll(evaluator);
  const ThetaGrid grid = MakeThetaGrid(sigma_all, options.theta_step);

  for (int k : {1, 2, 3}) {
    const HighestThetaResult a = chained.FindHighestTheta(k);
    // Sequential scan upward from sigma_all, one fresh solver per instance.
    Rational theta = sigma_all;
    std::string witness = RenderSorts(
        SortRefinement{{eval::AllSignatures(evaluator.index())}});
    int instances = 0;
    bool ceiling_proven = grid.first > grid.last;
    for (std::int64_t g = grid.first; g <= grid.last; ++g) {
      const DecisionResult r =
          FreshExists(evaluator, options, k, grid.Theta(g));
      ++instances;
      if (r.decision == Decision::kExists) {
        theta = grid.Theta(g);
        witness = RenderSorts(*r.refinement);
        if (g == grid.last) ceiling_proven = true;
        continue;
      }
      ceiling_proven = r.decision == Decision::kNotExists;
      break;
    }
    const std::string where = context + " k=" + std::to_string(k);
    EXPECT_EQ(a.theta, theta) << where;
    EXPECT_EQ(a.instances, instances) << where;
    EXPECT_EQ(a.ceiling_proven, ceiling_proven) << where;
    EXPECT_EQ(RenderSorts(a.refinement), witness) << where;
  }

  const int n = static_cast<int>(evaluator.index().num_signatures());
  for (const Rational& theta :
       {Rational(3, 4), Rational(9, 10), Rational(1)}) {
    const Result<LowestKResult> a = chained.FindLowestK(theta);
    // k ladder upward from 1, one fresh solver per instance.
    int found_k = 0;
    int instances = 0;
    bool proven_minimal = true;
    std::string witness;
    for (int k = 1; k <= std::max(n, 1); ++k) {
      const DecisionResult r = FreshExists(evaluator, options, k, theta);
      ++instances;
      if (r.decision == Decision::kExists) {
        found_k = k;
        witness = RenderSorts(*r.refinement);
        break;
      }
      if (r.decision == Decision::kUnknown) proven_minimal = false;
    }
    const std::string where = context + " theta=" + theta.ToString();
    ASSERT_EQ(a.ok(), found_k > 0) << where;
    if (!a.ok()) {
      // Exhausted: a proof only when every fresh instance was decided.
      const StatusCode expected = proven_minimal
                                      ? StatusCode::kNotFound
                                      : StatusCode::kResourceExhausted;
      EXPECT_EQ(a.status().code(), expected) << where;
      continue;
    }
    EXPECT_EQ(a->k, found_k) << where;
    EXPECT_EQ(a->instances, instances) << where;
    EXPECT_EQ(a->proven_minimal, proven_minimal) << where;
    EXPECT_EQ(RenderSorts(a->refinement), witness) << where;
  }
}

void ExpectMatchesFresh(const eval::Evaluator& evaluator,
                        const SolverOptions& options,
                        const std::string& context) {
  ExpectDecisionsMatchFresh(evaluator, options, context);
  ExpectSearchesMatchFresh(evaluator, options, context);
}

SolverOptions PureExact() {
  SolverOptions options;
  options.greedy_first = false;
  return options;
}

TEST(SolverReuseTest, QuickstartMatchesFreshSolvers) {
  auto dataset = api::Dataset::FromNTriplesFile(
      "examples/data/quickstart.nt", {.sort = "http://x/Person"});
  if (!dataset.ok()) {
    // ctest runs from the build tree; fall back to the source-tree path.
    dataset = api::Dataset::FromNTriplesFile(
        "../examples/data/quickstart.nt", {.sort = "http://x/Person"});
  }
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const schema::SignatureIndex& index = dataset->index();
  for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
    auto evaluator = eval::MakeEvaluator(rule, &index);
    ExpectMatchesFresh(*evaluator, SolverOptions{},
                       "quickstart/" + rule.name());
    ExpectMatchesFresh(*evaluator, PureExact(),
                       "quickstart-exact/" + rule.name());
  }
}

TEST(SolverReuseTest, RandomIndexMatchesFreshSolvers) {
  for (std::uint64_t seed : {1, 7, 21}) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 6;
    spec.num_properties = 4;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &index);
      ExpectMatchesFresh(*evaluator, SolverOptions{},
                         "seed " + std::to_string(seed) + "/" + rule.name());
    }
  }
}

TEST(SolverReuseTest, PureMipMatchesFreshSolvers) {
  // With the heuristic ladder off, every instance is settled by the exact
  // encoding: the strongest check that a reweighted, warm-started instance
  // solves exactly like a fresh build with a cold root LP.
  for (std::uint64_t seed : {3, 4, 11, 29}) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 5;
    spec.num_properties = 3;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &index);
      ExpectMatchesFresh(*evaluator, PureExact(),
                         "exact seed " + std::to_string(seed) + "/" +
                             rule.name());
    }
  }
}

}  // namespace
}  // namespace rdfsr::core
