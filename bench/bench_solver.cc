// bench_solver — end-to-end FindHighestTheta / FindLowestK throughput of the
// incremental refinement solver, with its engine counters.
//
// The Section 7 searches drive the Section 6 ILP through many closely
// related decision instances (a theta grid, a k ladder). The solver keeps one
// encoding per k and reweights its threshold rows per theta, chains each
// exact solve's root basis into the next instance, runs the theta-independent
// heuristics (greedy max-min, fixed-k agglomerative) once per k, and caches
// per-sort counts so re-validation per instance is a handful of exact integer
// comparisons. That none of this changes an answer is the fresh-solver
// oracle in tests/solver_reuse_test.cc. CI runs the small default and uploads
// bench_solver.json; there is no perf gating, the records track the
// trajectory.
//
// Configs:
//   highest_theta   default solver (heuristic ladder first) on a clustered
//                   index large enough that the MIP row ceiling gates the
//                   exact solver — heuristic + validation reuse across the
//                   theta grid
//   highest_theta_pure_exact
//                   greedy_first = false on a small index, so every grid
//                   instance is settled by the MIP over the reweighted
//                   encoding
//   encode_only     no solving at all: one instance reweighted across the
//                   whole theta grid vs BuildRefinementIlp per grid point —
//                   isolates the O(k|P|n) skeleton-rebuild saving
//   exact_frontier  one stock-options Exists(k = 2, theta = 3/4) on a large
//                   random index — tracks the max_mip_rows default against
//                   the measured solvable frontier
//   lowest_k        default solver, k ladder at theta = 9/10
//
// Usage: bench_solver [--json <path>] [--signatures N] [--exact-signatures N]
//                     [--ladder-signatures N] [--frontier-signatures N]

#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rdfsr::bench {
namespace {

/// Clustered index: `families` property blocks of `block` columns plus one
/// shared column; the first signature of each family takes its whole block
/// (so every property is used), later ones draw ~80% of it. Family merges
/// stay above moderate thresholds, so the theta grid has real depth to climb.
schema::SignatureIndex MakeClusteredIndex(int n, std::uint64_t seed,
                                          int families = 8, int block = 8) {
  RDFSR_CHECK_GE(n, families);
  const int num_props = 1 + families * block;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  int stall = 0;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % families;
    const bool full = static_cast<int>(sigs.size()) < families;
    std::vector<int> support{0};
    const int base = 1 + family * block;
    for (int p = 0; p < block; ++p) {
      if (full || rng.Chance(0.8)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) {
      RDFSR_CHECK_LT(++stall, 1000000) << "cannot draw distinct supports";
      continue;
    }
    sigs.emplace_back(std::move(support), rng.Range(1, 20));
  }
  std::vector<std::string> names;
  for (int p = 0; p < num_props; ++p) {
    names.push_back("http://bench/p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

core::SolverOptions Options(bool greedy_first) {
  core::SolverOptions options = BenchSolverOptions();
  options.greedy_first = greedy_first;
  // The searches meet at most a couple of undecidable instances; a tight MIP
  // budget keeps their proof cost from drowning the search itself. The budget
  // is a NODE count, not wall clock, so the answer does not depend on load.
  options.mip.max_nodes = 50000;
  options.mip.time_limit_seconds = 300.0;
  // The heuristic-regime and ladder configs were designed against the old
  // 4000-row MIP gate; the sparse engine's raised default would un-gate the
  // clustered indexes' k=2/3 encodings and turn those configs into exact-solve
  // benchmarks. Pin the old ceiling here; the engine-measuring configs below
  // set their own.
  options.max_mip_rows = 4000;
  return options;
}

struct Measurement {
  double seconds = 0;
  int instances = 0;
  std::string result;  // "theta=..." or "k=..."
  std::string detail;  // table column: engine counters or the encode check
  bool ok = true;      // false fails the run (encode_only identity)
  bool timed_out = false;  // deadline/limit cut: result is an incumbent
  /// Config-specific JSON metrics appended to the record.
  std::vector<std::pair<std::string, double>> extra_metrics;
};

/// Simplex/B&B engine counters of one search, as JSON metrics.
std::vector<std::pair<std::string, double>> EngineMetrics(
    long long mip_nodes, const ilp::LpEngineStats& s) {
  return {{"mip_nodes", static_cast<double>(mip_nodes)},
          {"lp_pivots", static_cast<double>(s.pivots)},
          {"lp_refactorizations", static_cast<double>(s.refactorizations)},
          {"lp_basis_reuses", static_cast<double>(s.basis_reuses)},
          {"lp_basis_repairs", static_cast<double>(s.basis_repairs)},
          {"lp_max_eta_length", static_cast<double>(s.max_eta_length)}};
}

/// The engine counters of one search, for the table.
std::string EngineDetail(long long mip_nodes, const ilp::LpEngineStats& s) {
  std::ostringstream out;
  out << "nodes=" << mip_nodes << " pivots=" << s.pivots
      << " reuses=" << s.basis_reuses;
  return out.str();
}

std::string FormatSeconds(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds;
  return out.str();
}

void Report(TextTable* table, bool* ok, const std::string& config,
            const std::string& rule, int n, const Measurement& m) {
  table->AddRow({config, rule, std::to_string(n), std::to_string(m.instances),
                 FormatSeconds(m.seconds), m.result, m.detail});
  if (!m.ok) {
    std::cerr << "FAIL: " << config << "/" << rule << " at n = " << n << ": "
              << m.detail << "\n";
    *ok = false;
  }
  std::vector<std::pair<std::string, double>> metrics = {
      {"signatures", static_cast<double>(n)},
      {"instances", static_cast<double>(m.instances)}};
  metrics.insert(metrics.end(), m.extra_metrics.begin(),
                 m.extra_metrics.end());
  Json().Record(
      "solver/" + config + "/" + rule,
      {{"config", config}, {"rule", rule}, {"signatures", std::to_string(n)}},
      m.seconds, metrics, m.timed_out);
}

Measurement MeasureHighestTheta(const eval::Evaluator& evaluator, int k,
                                bool greedy_first) {
  Measurement m;
  core::RefinementSolver solver(&evaluator, Options(greedy_first));
  WallTimer timer;
  const core::HighestThetaResult a = solver.FindHighestTheta(k);
  m.seconds = timer.Seconds();
  m.instances = a.instances;
  m.result = "theta=" + a.theta.ToString();
  m.timed_out = a.timed_out;
  m.detail = EngineDetail(a.mip_nodes, a.lp_stats);
  m.extra_metrics = EngineMetrics(a.mip_nodes, a.lp_stats);
  return m;
}

/// Exact-frontier probe: one Exists(k = 2, theta = 3/4) on a large random
/// index with STOCK solver options — the config that keeps the
/// SolverOptions::max_mip_rows default honest. The encoding must pass the
/// default gate and the decision must land inside the default MIP budget;
/// the record tracks rows, wall time, and engine counters.
void ReportFrontier(TextTable* table, int frontier_n) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = frontier_n;
  spec.num_properties = 10;
  spec.seed = 42;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  const auto taus = eval::EnumerateTauCounts(evaluator->rule(), index);
  const auto shapes = core::AnalyzeTaus(taus, index);
  const std::size_t rows = core::RefinementIlpActiveRows(index, shapes, 2);

  core::SolverOptions options;  // stock defaults on purpose
  options.greedy_first = false;
  core::RefinementSolver solver(evaluator.get(), options);
  WallTimer timer;
  const core::DecisionResult r = solver.Exists(2, Rational(3, 4));
  const double seconds = timer.Seconds();
  const bool decided = r.decision != core::Decision::kUnknown;

  table->AddRow({"exact_frontier", "Cov", std::to_string(frontier_n), "1",
                 FormatSeconds(seconds),
                 std::string(core::DecisionName(r.decision)) + " @" +
                     std::to_string(rows) + " rows",
                 decided ? EngineDetail(r.mip_nodes, r.lp_stats)
                         : "undecided"});
  std::vector<std::pair<std::string, double>> metrics =
      EngineMetrics(r.mip_nodes, r.lp_stats);
  metrics.emplace_back("signatures", static_cast<double>(frontier_n));
  metrics.emplace_back("active_rows", static_cast<double>(rows));
  metrics.emplace_back("decided", decided ? 1.0 : 0.0);
  Json().Record("solver/exact_frontier/Cov",
                {{"config", "exact_frontier"},
                 {"rule", "Cov"},
                 {"signatures", std::to_string(frontier_n)},
                 {"decision", core::DecisionName(r.decision)}},
                seconds, metrics, /*timed_out=*/!decided);
}

Measurement MeasureEncodeOnly(const eval::Evaluator& evaluator, int k) {
  Measurement m;
  const schema::SignatureIndex& index = evaluator.index();
  const auto taus = eval::EnumerateTauCounts(evaluator.rule(), index);
  const auto shapes = core::AnalyzeTaus(taus, index);
  // The same grid FindHighestTheta would walk, from the dataset's sigma up.
  const eval::SigmaCounts all = evaluator.CountsAll();
  Rational sigma_all(1);
  if (all.total > 0) {
    sigma_all = Rational(static_cast<std::int64_t>(all.favorable),
                         static_cast<std::int64_t>(all.total));
  }
  const core::ThetaGrid grid = core::MakeThetaGrid(sigma_all, 0.01);
  m.instances = static_cast<int>(grid.last - grid.first + 1);

  WallTimer reuse_timer;
  core::RefinementIlpInstance instance(index, shapes, k);
  for (std::int64_t g = grid.first; g <= grid.last; ++g) {
    instance.Reweight(grid.Theta(g));
  }
  m.seconds = reuse_timer.Seconds();

  std::size_t rows = 0;
  WallTimer rebuild_timer;
  for (std::int64_t g = grid.first; g <= grid.last; ++g) {
    const core::IlpEncoding enc = core::BuildRefinementIlp(
        index, evaluator.rule(), taus, k, grid.Theta(g));
    rows = enc.model.num_constraints();
  }
  const double rebuild_seconds = rebuild_timer.Seconds();

  // Identity spot-check at the grid's ends and middle (a full per-point
  // comparison would itself cost a rebuild per point).
  for (std::int64_t g : {grid.first, (grid.first + grid.last) / 2, grid.last}) {
    instance.Reweight(grid.Theta(g));
    const core::IlpEncoding fresh = core::BuildRefinementIlp(
        index, evaluator.rule(), taus, k, grid.Theta(g));
    if (instance.model().ToString() != fresh.model.ToString()) m.ok = false;
  }
  const double ratio = rebuild_seconds / std::max(m.seconds, 1e-9);
  std::ostringstream detail;
  detail << "rebuild " << FormatSeconds(rebuild_seconds) << " s ("
         << std::fixed << std::setprecision(1) << ratio << "x), "
         << (m.ok ? "identical" : "MISMATCH");
  m.detail = detail.str();
  m.result = std::to_string(rows) + " rows";
  m.extra_metrics = {{"rebuild_seconds", rebuild_seconds},
                     {"speedup_vs_rebuild", ratio},
                     {"match", m.ok ? 1.0 : 0.0}};
  return m;
}

Measurement MeasureLowestK(const eval::Evaluator& evaluator, Rational theta) {
  Measurement m;
  core::RefinementSolver solver(&evaluator, Options(/*greedy_first=*/true));
  WallTimer timer;
  const auto a = solver.FindLowestK(theta);
  m.seconds = timer.Seconds();
  if (!a.ok()) {
    m.result = "none<=max_k";
    m.detail = a.status().ToString();
    return m;
  }
  m.instances = a->instances;
  m.result = "k=" + std::to_string(a->k);
  m.timed_out = a->timed_out;
  m.detail = EngineDetail(a->mip_nodes, a->lp_stats);
  m.extra_metrics = EngineMetrics(a->mip_nodes, a->lp_stats);
  return m;
}

int Run(int n, int exact_n, int ladder_n, int frontier_n) {
  Banner("Refinement searches: incremental solver end to end",
         "Sections 6-7; Figures 4-7 search modes");

  TextTable table({"config", "rule", "n", "instances", "seconds", "result",
                   "engine / check"});
  bool ok = true;

  // Heuristic regime: at this size the encoding exceeds the MIP row ceiling,
  // so every instance is answered (or left open) by the ladder.
  const schema::SignatureIndex clustered = MakeClusteredIndex(n, 42);
  for (const auto& rule : {rules::CovRule(), rules::SimRule()}) {
    auto evaluator = eval::MakeEvaluator(rule, &clustered);
    Report(&table, &ok, "highest_theta", rule.name(), n,
           MeasureHighestTheta(*evaluator, 4, /*greedy_first=*/true));
  }
  {
    // Pure exact mode: every grid instance goes to the MIP over the
    // reweighted encoding.
    const schema::SignatureIndex small =
        MakeClusteredIndex(exact_n, 9, /*families=*/3, /*block=*/3);
    auto evaluator = eval::MakeEvaluator(rules::CovRule(), &small);
    Report(&table, &ok, "highest_theta_pure_exact", "Cov", exact_n,
           MeasureHighestTheta(*evaluator, 2, /*greedy_first=*/false));
  }
  {
    // Encoding in isolation: the skeleton-rebuild saving without any solver
    // time on either side.
    auto evaluator = eval::MakeEvaluator(rules::CovRule(), &clustered);
    Report(&table, &ok, "encode_only", "Cov", n,
           MeasureEncodeOnly(*evaluator, 4));
  }
  if (frontier_n > 0) ReportFrontier(&table, frontier_n);
  // The k ladder visits each k once, so encoding/heuristic reuse cannot
  // amortize across instances; only the agglomerative-per-theta cache is
  // shared along the ladder.
  const schema::SignatureIndex ladder = MakeClusteredIndex(ladder_n, 42);
  for (const auto& rule : {rules::CovRule(), rules::SimRule()}) {
    auto evaluator = eval::MakeEvaluator(rule, &ladder);
    Report(&table, &ok, "lowest_k", rule.name(), ladder_n,
           MeasureLowestK(*evaluator, Rational(9, 10)));
  }

  std::cout << table.ToString();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) {
  int n = 128;
  int exact_n = 10;
  int ladder_n = 32;
  int frontier_n = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      rdfsr::bench::Json().Open(argv[++i], "bench_solver");
    } else if (std::strcmp(argv[i], "--signatures") == 0 && i + 1 < argc) {
      n = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--exact-signatures") == 0 &&
               i + 1 < argc) {
      exact_n = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ladder-signatures") == 0 &&
               i + 1 < argc) {
      ladder_n = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--frontier-signatures") == 0 &&
               i + 1 < argc) {
      frontier_n = std::stoi(argv[++i]);  // 0 skips the frontier probe
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--signatures N] [--exact-signatures N]"
                   " [--ladder-signatures N] [--frontier-signatures N]\n";
      return 2;
    }
  }
  return rdfsr::bench::Run(n, exact_n, ladder_n, frontier_n);
}
