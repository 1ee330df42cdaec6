// The sparse LU driven directly through BasisRep: hundreds of Forrest–Tomlin
// column swaps without a refactorization on a random ~300-row basis, each
// followed by residual checks against the explicitly assembled B; repair of
// dependent columns; and the refusal of a (near-)zero update pivot and of an
// update whose new diagonal disagrees with its pivot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "ilp/basis.h"

namespace rdfsr::ilp {
namespace {

constexpr int kRows = 300;
constexpr int kStructural = 600;
constexpr double kResidualTol = 1e-8;

/// [A | -I] with a random sparse A: 1-5 nonzeros per structural column,
/// magnitudes in [0.5, 3], random signs.
SparseColumns RandomColumns(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> nnz_dist(1, 5);
  std::uniform_int_distribution<int> row_dist(0, kRows - 1);
  std::uniform_real_distribution<double> mag(0.5, 3.0);
  std::bernoulli_distribution negative(0.5);
  SparseColumns cols(kStructural + kRows);
  for (int j = 0; j < kStructural; ++j) {
    const int nnz = nnz_dist(*rng);
    std::vector<char> used(kRows, 0);
    for (int t = 0; t < nnz; ++t) {
      const int r = row_dist(*rng);
      if (used[r] != 0) continue;
      used[r] = 1;
      cols[j].push_back({r, negative(*rng) ? -mag(*rng) : mag(*rng)});
    }
  }
  for (int r = 0; r < kRows; ++r) cols[kStructural + r].push_back({r, -1.0});
  return cols;
}

/// About 60% structural columns, slacks elsewhere.
std::vector<int> MixedBasis(std::mt19937_64* rng) {
  std::vector<int> structurals(kStructural);
  for (int j = 0; j < kStructural; ++j) structurals[j] = j;
  std::shuffle(structurals.begin(), structurals.end(), *rng);
  std::bernoulli_distribution take_structural(0.6);
  std::vector<int> basic(kRows);
  for (int p = 0; p < kRows; ++p) {
    basic[p] = take_structural(*rng) ? structurals[p] : kStructural + p;
  }
  return basic;
}

/// B x, with B's columns cols[basic[p]] (x by position, result by row).
std::vector<double> MultiplyB(const SparseColumns& cols,
                              const std::vector<int>& basic,
                              const std::vector<double>& x) {
  std::vector<double> out(kRows, 0.0);
  for (int p = 0; p < kRows; ++p) {
    for (const auto& [row, coef] : cols[basic[p]]) out[row] += coef * x[p];
  }
  return out;
}

/// B^T y (y by row, result by position).
std::vector<double> MultiplyBt(const SparseColumns& cols,
                               const std::vector<int>& basic,
                               const std::vector<double>& y) {
  std::vector<double> out(kRows, 0.0);
  for (int p = 0; p < kRows; ++p) {
    for (const auto& [row, coef] : cols[basic[p]]) out[p] += coef * y[row];
  }
  return out;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

std::vector<double> RandomVector(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> v(kRows);
  for (double& x : v) x = unit(*rng);
  return v;
}

/// ‖B Ftran(b) - b‖∞ and ‖B^T Btran(c) - c‖∞ for random b, c.
std::pair<double, double> SolveResiduals(const BasisRep& basis,
                                         const SparseColumns& cols,
                                         const std::vector<int>& basic,
                                         std::mt19937_64* rng) {
  const std::vector<double> b = RandomVector(rng);
  std::vector<double> x = b;
  basis.Ftran(&x);
  const std::vector<double> c = RandomVector(rng);
  std::vector<double> y = c;
  basis.Btran(&y);
  return {MaxAbsDiff(MultiplyB(cols, basic, x), b),
          MaxAbsDiff(MultiplyBt(cols, basic, y), c)};
}

std::vector<double> Dense(const std::vector<std::pair<int, double>>& column) {
  std::vector<double> a(kRows, 0.0);
  for (const auto& [row, coef] : column) a[row] += coef;
  return a;
}

/// A random position among the well-conditioned pivots of w, or -1.
int PickPosition(const std::vector<double>& w, std::mt19937_64* rng) {
  double max_abs = 0.0;
  for (double v : w) max_abs = std::max(max_abs, std::fabs(v));
  std::vector<int> candidates;
  for (int p = 0; p < kRows; ++p) {
    if (std::fabs(w[p]) >= 0.5 * max_abs && std::fabs(w[p]) >= 0.25) {
      candidates.push_back(p);
    }
  }
  if (candidates.empty()) return -1;
  std::uniform_int_distribution<int> pick(
      0, static_cast<int>(candidates.size()) - 1);
  return candidates[pick(*rng)];
}

TEST(BasisTest, HundredsOfUpdatesWithoutRefactorizationStayAccurate) {
  std::mt19937_64 rng(19880427);
  const SparseColumns cols = RandomColumns(&rng);
  std::vector<int> basic = MixedBasis(&rng);
  std::unique_ptr<BasisRep> basis = MakeLuFactorization(kRows);
  std::vector<int> ejected;
  basis->Factorize(cols, kStructural, &basic, &ejected);
  for (int j : ejected) {
    EXPECT_EQ(std::count(basic.begin(), basic.end(), j), 0);
  }
  const auto [f0, b0] = SolveResiduals(*basis, cols, basic, &rng);
  ASSERT_LE(f0, kResidualTol);
  ASSERT_LE(b0, kResidualTol);

  std::vector<char> in_basis(cols.size(), 0);
  for (int j : basic) in_basis[j] = 1;
  std::uniform_int_distribution<int> var_dist(0, kStructural + kRows - 1);
  int structural_entries = 0;
  int swaps = 0;
  std::vector<double> w;
  for (int attempt = 0; swaps < 260; ++attempt) {
    ASSERT_LT(attempt, 5000) << "too few acceptable pivots";
    const int entering = var_dist(rng);
    if (in_basis[entering] != 0) continue;
    basis->FtranColumn(cols[entering], &w);
    ASSERT_LE(MaxAbsDiff(MultiplyB(cols, basic, w), Dense(cols[entering])),
              kResidualTol)
        << "FtranColumn residual before swap " << swaps;
    const int pos = PickPosition(w, &rng);
    if (pos < 0) continue;
    ASSERT_TRUE(basis->Update(pos, w)) << "swap " << swaps;
    in_basis[basic[pos]] = 0;
    in_basis[entering] = 1;
    basic[pos] = entering;
    if (entering < kStructural) ++structural_entries;
    ++swaps;
    EXPECT_EQ(basis->eta_length(), swaps);

    const auto [fr, br] = SolveResiduals(*basis, cols, basic, &rng);
    ASSERT_LE(fr, kResidualTol) << "Ftran residual after swap " << swaps;
    ASSERT_LE(br, kResidualTol) << "Btran residual after swap " << swaps;
  }
  // Both kinds of columns entered.
  EXPECT_GT(structural_entries, 50);
  EXPECT_LT(structural_entries, swaps);

  // A refactorization of the final basis agrees and resets the count.
  ejected.clear();
  basis->Factorize(cols, kStructural, &basic, &ejected);
  EXPECT_TRUE(ejected.empty());
  EXPECT_EQ(basis->eta_length(), 0);
  const auto [ff, bf] = SolveResiduals(*basis, cols, basic, &rng);
  EXPECT_LE(ff, kResidualTol);
  EXPECT_LE(bf, kResidualTol);
}

TEST(BasisTest, FactorizeRepairsDependentColumns) {
  std::mt19937_64 rng(7);
  SparseColumns cols = RandomColumns(&rng);
  std::vector<int> basic(kRows);
  for (int p = 0; p < kRows; ++p) basic[p] = kStructural + p;
  // With slacks elsewhere, rows 10, 20, 30 and 40 need pivots from columns
  // 2 and 3 and their dependents 0 = 2 * col2 and 1 = col2 - col3: two of
  // the four must go.
  cols[2] = {{10, 1.5}, {20, -2.0}, {50, 1.0}};
  cols[3] = {{20, 1.0}, {30, 2.5}};
  cols[0] = {{10, 3.0}, {20, -4.0}, {50, 2.0}};
  cols[1] = {{10, 1.5}, {20, -3.0}, {30, -2.5}, {50, 1.0}};
  basic[10] = 0;
  basic[20] = 1;
  basic[30] = 2;
  basic[40] = 3;
  const std::vector<int> before = basic;

  std::unique_ptr<BasisRep> basis = MakeLuFactorization(kRows);
  std::vector<int> ejected;
  basis->Factorize(cols, kStructural, &basic, &ejected);
  ASSERT_EQ(ejected.size(), 2u);
  int replaced = 0;
  for (int p = 0; p < kRows; ++p) {
    if (basic[p] == before[p]) continue;
    ++replaced;
    EXPECT_TRUE(before[p] <= 3) << "position " << p;
    EXPECT_GE(basic[p], kStructural) << "replacement must be a slack";
    EXPECT_TRUE(std::count(ejected.begin(), ejected.end(), before[p]) == 1);
  }
  EXPECT_EQ(replaced, 2);
  const auto [fr, br] = SolveResiduals(*basis, cols, basic, &rng);
  EXPECT_LE(fr, kResidualTol);
  EXPECT_LE(br, kResidualTol);
}

TEST(BasisTest, NearZeroUpdatePivotIsRefusedAndRefactorizationRecovers) {
  std::mt19937_64 rng(314159);
  SparseColumns cols = RandomColumns(&rng);
  std::vector<int> basic = MixedBasis(&rng);
  std::unique_ptr<BasisRep> basis = MakeLuFactorization(kRows);
  std::vector<int> ejected;
  basis->Factorize(cols, kStructural, &basic, &ejected);

  // A nonbasic structural column that duplicates the basic column at q:
  // B^-1 a = e_q, so every other position's pivot is (near) zero.
  const int q = 5;
  int twin = -1;
  for (int j = 0; j < kStructural; ++j) {
    if (std::count(basic.begin(), basic.end(), j) == 0) {
      twin = j;
      break;
    }
  }
  ASSERT_GE(twin, 0);
  cols[twin] = cols[basic[q]];
  std::vector<double> w;
  basis->FtranColumn(cols[twin], &w);
  EXPECT_NEAR(w[q], 1.0, kResidualTol);
  const int pos = q + 1;
  ASSERT_LT(std::fabs(w[pos]), 1e-9);
  EXPECT_FALSE(basis->Update(pos, w));

  // As the simplex does after a refused update: the twin takes the position
  // anyway and the refactorization ejects a dependent column.
  basic[pos] = twin;
  ejected.clear();
  basis->Factorize(cols, kStructural, &basic, &ejected);
  ASSERT_EQ(ejected.size(), 1u);
  EXPECT_EQ(basis->eta_length(), 0);
  const auto [fr, br] = SolveResiduals(*basis, cols, basic, &rng);
  EXPECT_LE(fr, kResidualTol);
  EXPECT_LE(br, kResidualTol);
}

TEST(BasisTest, DriftedUpdateIsRefusedAndStoresNothing) {
  std::mt19937_64 rng(27182818);
  const SparseColumns cols = RandomColumns(&rng);
  std::vector<int> basic = MixedBasis(&rng);
  std::unique_ptr<BasisRep> basis = MakeLuFactorization(kRows);
  std::vector<int> ejected;
  basis->Factorize(cols, kStructural, &basic, &ejected);
  std::vector<char> in_basis(cols.size(), 0);
  for (int j : basic) in_basis[j] = 1;
  std::uniform_int_distribution<int> var_dist(0, kStructural + kRows - 1);

  // Alternates accepted swaps with refused ones: w's pivot entry perturbed
  // by 1e-6 relative disagrees with the spike FtranColumn kept, so the new
  // U diagonal misses pivot x old diagonal and Update must roll back its
  // row eta. The factors must then still be the old basis's, and later
  // updates (which reuse the same scratch) must stay exact.
  int swaps = 0;
  int refused = 0;
  std::vector<double> w;
  for (int attempt = 0; swaps < 60; ++attempt) {
    ASSERT_LT(attempt, 5000) << "too few acceptable pivots";
    const int entering = var_dist(rng);
    if (in_basis[entering] != 0) continue;
    basis->FtranColumn(cols[entering], &w);
    const int pos = PickPosition(w, &rng);
    if (pos < 0) continue;
    if (attempt % 2 == 0) {
      std::vector<double> drifted = w;
      drifted[pos] *= 1.0 + 1e-6;
      EXPECT_FALSE(basis->Update(pos, drifted)) << "swap " << swaps;
      ++refused;
      EXPECT_EQ(basis->eta_length(), swaps);
      const auto [fr, br] = SolveResiduals(*basis, cols, basic, &rng);
      ASSERT_LE(fr, kResidualTol) << "Ftran residual after refusal " << refused;
      ASSERT_LE(br, kResidualTol) << "Btran residual after refusal " << refused;
      basis->FtranColumn(cols[entering], &w);  // Update consumed the spike
    }
    ASSERT_TRUE(basis->Update(pos, w)) << "swap " << swaps;
    in_basis[basic[pos]] = 0;
    in_basis[entering] = 1;
    basic[pos] = entering;
    ++swaps;
    const auto [fr, br] = SolveResiduals(*basis, cols, basic, &rng);
    ASSERT_LE(fr, kResidualTol) << "Ftran residual after swap " << swaps;
    ASSERT_LE(br, kResidualTol) << "Btran residual after swap " << swaps;
  }
  EXPECT_GE(refused, 20);

  ejected.clear();
  basis->Factorize(cols, kStructural, &basic, &ejected);
  EXPECT_TRUE(ejected.empty());
  const auto [ff, bf] = SolveResiduals(*basis, cols, basic, &rng);
  EXPECT_LE(ff, kResidualTol);
  EXPECT_LE(bf, kResidualTol);
}

}  // namespace
}  // namespace rdfsr::ilp
