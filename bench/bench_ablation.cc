// Ablation over the Section 7 search strategy: greedy-first vs pure MIP.
// Both sides answer the same highest-theta query; we report the theta found
// and wall time.

#include <iostream>

#include "bench_util.h"
#include "gen/persons.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace rdfsr;  // NOLINT(build/namespaces)
  bench::InitHarness(argc, argv, "ablation");
  bench::Banner("Ablation: search strategy on a DBpedia-Persons instance",
                "Section 7 search; both sides must find the same theta");

  gen::PersonsConfig config;
  config.num_subjects = 600;  // small instance so every search terminates
  const schema::SignatureIndex index = gen::GeneratePersons(config);
  auto cov = eval::ClosedFormEvaluator::Cov(&index);
  std::cout << "dataset: " << index.num_signatures() << " signatures\n";

  // Greedy-first vs pure MIP on the full sequential theta search.
  std::cout << "\n--- greedy-first vs pure MIP (highest-theta, k = 2) ---\n";
  TextTable table({"mode", "theta found", "seconds"});
  for (bool greedy_first : {true, false}) {
    core::SolverOptions options = bench::BenchSolverOptions();
    options.greedy_first = greedy_first;
    core::RefinementSolver solver(cov.get(), options);
    WallTimer timer;
    const core::HighestThetaResult best = solver.FindHighestTheta(2);
    bench::Json().Record(
        "highest_theta",
        {{"mode", greedy_first ? "greedy-first" : "pure-mip"}, {"k", "2"}},
        timer.Seconds(), {{"theta", best.theta.ToDouble()}});
    table.AddRow({greedy_first ? "greedy-first" : "pure MIP",
                  FormatDouble(best.theta.ToDouble()),
                  FormatDouble(timer.Seconds(), 2)});
  }
  std::cout << table.ToString();

  return 0;
}
