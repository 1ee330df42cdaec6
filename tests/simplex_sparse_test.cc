// Sparse-basis simplex tests: the LU factorization with Forrest–Tomlin
// updates against the dense-inverse reference (tests/support, reached
// through SolveLpWithBasis) on randomized bounded-variable LPs and degenerate/cycling fixtures under the
// Bland fallback, warm starts, and refactorization stats.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "ilp/simplex.h"
#include "support/dense_inverse.h"

namespace rdfsr::ilp {
namespace {

constexpr double kObjTol = 1e-6;

/// Variable and row count ranges of a random LP.
struct LpShape {
  int min_vars, max_vars, min_rows, max_rows;
};
constexpr LpShape kSmallLp = {3, 9, 2, 7};
/// Large enough that one solve runs through many basis updates.
constexpr LpShape kMediumLp = {60, 160, 40, 120};

// A random bounded-variable LP: mixed bound patterns (two-sided, one-sided,
// free), mixed row types (<=, >=, ==, two-sided range), sparse rows.
Model RandomLp(std::mt19937_64* rng, const LpShape& shape = kSmallLp) {
  std::uniform_int_distribution<int> n_dist(shape.min_vars, shape.max_vars);
  std::uniform_int_distribution<int> m_dist(shape.min_rows, shape.max_rows);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  Model m;
  const int n = n_dist(*rng);
  const int rows = m_dist(*rng);
  for (int j = 0; j < n; ++j) {
    const double p = unit(*rng);
    double lb = 0.0, ub = 4.0 * unit(*rng) + 0.5;
    if (p < 0.15) {
      lb = -kInfinity;  // one-sided from above
    } else if (p < 0.25) {
      ub = kInfinity;  // one-sided from below
    } else if (p < 0.30) {
      lb = -kInfinity;
      ub = kInfinity;  // free
    } else if (p < 0.45) {
      lb = -2.0 * unit(*rng) - 0.5;  // two-sided straddling zero
    }
    m.AddVariable("x", lb, ub, false);
  }
  for (int r = 0; r < rows; ++r) {
    std::uniform_int_distribution<int> nnz_dist(1, std::min(4, n));
    const int nnz = nnz_dist(*rng);
    std::vector<LinTerm> terms;
    std::vector<char> used(n, 0);
    for (int t = 0; t < nnz; ++t) {
      std::uniform_int_distribution<int> var_dist(0, n - 1);
      int j = var_dist(*rng);
      if (used[j]) continue;
      used[j] = 1;
      double c = coef(*rng);
      if (std::abs(c) < 0.1) c = 0.5;
      terms.push_back({j, c});
    }
    const double kind = unit(*rng);
    const double mid = 4.0 * coef(*rng) / 3.0;
    if (kind < 0.35) {
      m.AddConstraint("r", std::move(terms), -kInfinity, mid);
    } else if (kind < 0.70) {
      m.AddConstraint("r", std::move(terms), mid, kInfinity);
    } else if (kind < 0.85) {
      m.AddConstraint("r", std::move(terms), mid, mid);
    } else {
      m.AddConstraint("r", std::move(terms), mid - 1.0, mid + 1.0);
    }
  }
  if (unit(*rng) < 0.8) {
    std::vector<LinTerm> obj;
    for (int j = 0; j < n; ++j) {
      if (unit(*rng) < 0.7) obj.push_back({j, coef(*rng)});
    }
    m.SetObjective(std::move(obj));
  }
  return m;
}

/// Both basis representations, for the fixtures that must hold under each.
constexpr BasisFactory kBothBases[] = {MakeLuFactorization, MakeDenseInverse};

TEST(SimplexSparseTest, RandomizedLpsMatchDenseInverseOracle) {
  std::mt19937_64 rng(20140814);
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult lu = SolveLp(m);
    const LpResult dense = SolveLpWithBasis(MakeDenseInverse, m);
    ASSERT_EQ(lu.status, dense.status)
        << "trial " << trial << ": LU " << LpStatusName(lu.status)
        << " vs dense " << LpStatusName(dense.status);
    if (lu.status == LpStatus::kOptimal) {
      EXPECT_NEAR(lu.objective, dense.objective, kObjTol) << "trial " << trial;
    }
  }
  // 40-120 rows: the LU solves these through many Forrest–Tomlin updates.
  long long pivots = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Model m = RandomLp(&rng, kMediumLp);
    const LpResult lu = SolveLp(m);
    const LpResult dense = SolveLpWithBasis(MakeDenseInverse, m);
    ASSERT_EQ(lu.status, dense.status)
        << "medium trial " << trial << ": LU " << LpStatusName(lu.status)
        << " vs dense " << LpStatusName(dense.status);
    if (lu.status == LpStatus::kOptimal) {
      EXPECT_NEAR(lu.objective, dense.objective,
                  kObjTol * (1.0 + std::abs(dense.objective)))
          << "medium trial " << trial;
    }
    pivots += lu.stats.pivots;
  }
  EXPECT_GT(pivots, 1000);
}

TEST(SimplexSparseTest, WarmStartFromOwnOptimumNeedsNoPivots) {
  std::mt19937_64 rng(57721566);
  int warm_solves = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult cold = SolveLp(m);
    if (cold.status != LpStatus::kOptimal) continue;
    SimplexOptions options;
    options.warm_basis = &cold.basis;
    const LpResult warm = SolveLp(m, options);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(warm.warm_started) << "trial " << trial;
    EXPECT_EQ(warm.iterations, 0) << "trial " << trial;
    EXPECT_EQ(warm.stats.basis_reuses, 1) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, kObjTol) << "trial " << trial;
    ++warm_solves;
  }
  // The generator must produce enough optimal instances for the test to mean
  // anything.
  ASSERT_GT(warm_solves, 20);
}

TEST(SimplexSparseTest, WarmStartAfterBoundPerturbationMatchesColdStart) {
  std::mt19937_64 rng(16180339);
  std::uniform_real_distribution<double> nudge(0.0, 0.25);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult base = SolveLp(m);
    if (base.status != LpStatus::kOptimal) continue;
    // Perturb the finite variable bounds a little (the branch-and-bound /
    // Reweight situation: same structure, slightly different box).
    const int n = static_cast<int>(m.num_variables());
    std::vector<double> lb(n), ub(n);
    for (int j = 0; j < n; ++j) {
      const Variable& v = m.variable(j);
      lb[j] = v.lower > -kInfinity ? v.lower - nudge(rng) : v.lower;
      ub[j] = v.upper < kInfinity ? v.upper + nudge(rng) : v.upper;
    }
    const LpResult cold = SolveLp(m, {}, &lb, &ub);
    SimplexOptions options;
    options.warm_basis = &base.basis;
    const LpResult warm = SolveLp(m, options, &lb, &ub);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    EXPECT_TRUE(warm.warm_started) << "trial " << trial;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, kObjTol) << "trial " << trial;
    }
    ++compared;
  }
  ASSERT_GT(compared, 20);
}

TEST(SimplexSparseTest, MismatchedWarmBasisFallsBackToColdStart) {
  Model m;
  const int x = m.AddVariable("x", 0, 2, false);
  const int y = m.AddVariable("y", 0, 2, false);
  m.AddConstraint("c", {{x, 1.0}, {y, 1.0}}, 1, 3);
  m.SetObjective({{x, -1.0}, {y, -1.0}});
  SimplexBasis wrong_shape;
  wrong_shape.basic = {0, 1, 2};  // three rows' worth for a one-row model
  wrong_shape.status = {BasisStatus::kAtLower};
  SimplexOptions options;
  options.warm_basis = &wrong_shape;
  const LpResult r = SolveLp(m, options);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(r.stats.basis_reuses, 0);
  // max x + y subject to x + y <= 3 (the box allows 4, the row caps it).
  EXPECT_NEAR(r.objective, -3.0, kObjTol);
}

// Beale's classic cycling LP: Dantzig pricing cycles forever without an
// anti-cycling guard; the iteration-count trigger must switch to Bland's rule
// and finish at the true optimum (objective -1/20) with either basis backend.
TEST(SimplexSparseTest, BealeCyclingFixtureTerminatesUnderBothBackends) {
  Model m;
  const int x1 = m.AddVariable("x1", 0, kInfinity, false);
  const int x2 = m.AddVariable("x2", 0, kInfinity, false);
  const int x3 = m.AddVariable("x3", 0, kInfinity, false);
  const int x4 = m.AddVariable("x4", 0, kInfinity, false);
  m.AddConstraint("r1", {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  -kInfinity, 0.0);
  m.AddConstraint("r2", {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  -kInfinity, 0.0);
  m.AddConstraint("cap", {{x3, 1.0}}, -kInfinity, 1.0);
  m.SetObjective({{x1, -0.75}, {x2, 150.0}, {x3, -0.02}, {x4, 6.0}});
  for (BasisFactory make_basis : kBothBases) {
    const LpResult r = SolveLpWithBasis(make_basis, m);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << LpStatusName(r.status);
    EXPECT_NEAR(r.objective, -0.05, kObjTol);
  }
}

TEST(SimplexSparseTest, HighlyDegenerateVertexTerminates) {
  // Many redundant hyperplanes through the optimum: zero-length steps galore.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  const int z = m.AddVariable("z", 0, kInfinity, false);
  for (int s = 1; s <= 6; ++s) {
    m.AddConstraint("cut",
                    {{x, 1.0 * s}, {y, 1.0 * s}, {z, 1.0 * s}}, -kInfinity,
                    2.0 * s);
    m.AddConstraint("mix", {{x, 1.0 * s}, {y, 2.0 * s}}, -kInfinity, 2.0 * s);
  }
  m.SetObjective({{x, -1.0}, {y, -1.0}, {z, -1.0}});
  for (BasisFactory make_basis : kBothBases) {
    const LpResult r = SolveLpWithBasis(make_basis, m);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, -2.0, kObjTol);
  }
}

TEST(SimplexSparseTest, RefactorizationEveryPivotStaysExactAndCounts) {
  // refactor_interval = 1 forces a fresh LU after every pivot: slow but a
  // strong consistency check, and the stats must reflect it.
  const double cost[4][4] = {{9, 2, 7, 8}, {6, 4, 3, 7}, {5, 8, 1, 8},
                             {7, 6, 9, 4}};
  Model m;
  int var[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) var[i][j] = m.AddVariable("x", 0, 1, false);
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<LinTerm> row, col;
    for (int j = 0; j < 4; ++j) {
      row.push_back({var[i][j], 1.0});
      col.push_back({var[j][i], 1.0});
    }
    m.AddConstraint("row", std::move(row), 1, 1);
    m.AddConstraint("col", std::move(col), 1, 1);
  }
  std::vector<LinTerm> obj;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) obj.push_back({var[i][j], cost[i][j]});
  }
  m.SetObjective(obj);

  SimplexOptions eager;
  eager.refactor_interval = 1;
  const LpResult r = SolveLp(m, eager);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 13.0, kObjTol);
  EXPECT_GT(r.stats.pivots, 0);
  EXPECT_GT(r.stats.refactorizations, 1);
  EXPECT_LE(r.stats.max_eta_length, 1);

  const LpResult lazy = SolveLp(m);
  ASSERT_EQ(lazy.status, LpStatus::kOptimal);
  EXPECT_NEAR(lazy.objective, r.objective, kObjTol);
}

TEST(SimplexSparseTest, StatsSurfaceThroughLpResult) {
  // The first optimal draw from the generator (not every draw is feasible).
  std::mt19937_64 rng(31415926);
  for (int trial = 0;; ++trial) {
    ASSERT_LT(trial, 100) << "generator produced no optimal instance";
    const Model m = RandomLp(&rng);
    const LpResult r = SolveLp(m);
    if (r.status != LpStatus::kOptimal) continue;
    EXPECT_EQ(r.stats.pivots, r.iterations);
    EXPECT_GE(r.stats.refactorizations, 1);  // the initial factorization
    EXPECT_GE(r.stats.max_eta_length, 0);
    EXPECT_EQ(r.stats.basis_reuses, 0);
    EXPECT_FALSE(r.warm_started);
    break;
  }
}

}  // namespace
}  // namespace rdfsr::ilp
