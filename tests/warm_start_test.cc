// The cross-instance warm-start chain must do work: a long-lived solver seeds
// each exact solve's root LP with the previous instance's basis, so it adopts
// more bases than fresh per-instance solvers do on the same grid points, and
// the engine counters reach DecisionResult. (That the chain changes no decision
// is tests/solver_reuse_test.cc's fresh-solver oracle.) Heuristics are
// disabled so every instance is settled by the exact solver.

#include <gtest/gtest.h>

#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

SolverOptions PureExact() {
  SolverOptions options;
  options.greedy_first = false;
  return options;
}

TEST(WarmStartTest, WarmStartActuallyReusesBases) {
  // Across a theta sweep the chained solver's root LPs adopt the previous
  // instance's basis (stats are aggregated into HighestThetaResult::lp_stats);
  // fresh solvers on the same grid points only get the node-to-child reuse
  // inside each branch-and-bound tree.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.num_properties = 3;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);

  RefinementSolver chained(evaluator.get(), PureExact());
  const HighestThetaResult rw = chained.FindHighestTheta(2);
  EXPECT_GT(rw.lp_stats.pivots, 0);

  const eval::SigmaCounts all = evaluator->CountsAll();
  const ThetaGrid grid = MakeThetaGrid(
      Rational(static_cast<std::int64_t>(all.favorable),
               static_cast<std::int64_t>(all.total)),
      PureExact().theta_step);
  long long fresh_reuses = 0;
  for (int i = 0; i < rw.instances; ++i) {
    RefinementSolver fresh(evaluator.get(), PureExact());
    fresh_reuses +=
        fresh.Exists(2, grid.Theta(grid.first + i)).lp_stats.basis_reuses;
  }
  EXPECT_GT(rw.lp_stats.basis_reuses, fresh_reuses);
}

TEST(WarmStartTest, DecisionResultCarriesLpStats) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.num_properties = 3;
  spec.seed = 9;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  RefinementSolver solver(evaluator.get(), PureExact());
  // A single instance can be settled without any LP (root probing proves
  // far-infeasible thetas at zero nodes), so accumulate across a small sweep:
  // at least one theta is feasible, and a feasible exact answer needs an
  // incumbent from a solved relaxation.
  long long lp_work = 0;
  for (const Rational& theta :
       {Rational(1, 10), Rational(1, 2), Rational(3, 4), Rational(9, 10)}) {
    const DecisionResult r = solver.Exists(2, theta);
    ASSERT_NE(r.decision, Decision::kUnknown) << theta.ToString();
    lp_work += r.lp_stats.pivots + r.lp_stats.refactorizations;
  }
  EXPECT_GT(lp_work, 0);
}

}  // namespace
}  // namespace rdfsr::core
