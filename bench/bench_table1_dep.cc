// Table 1: sigma_Dep[p1, p2] on DBpedia Persons for all ordered pairs of
// {deathPlace, birthPlace, deathDate, birthDate}. Headline: the deathPlace
// row is uniformly high (>= 0.77) — knowing a person's death place implies
// most other facts are known — while no other row shares that property.

#include <iostream>

#include "bench_util.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace rdfsr;  // NOLINT(build/namespaces)
  bench::InitHarness(argc, argv, "table1_dep");
  bench::Banner("Table 1: sigma_Dep on DBpedia Persons",
                "deathPlace row: 1.0 / .93 / .82 / .77; birthPlace row: "
                ".26 / 1.0 / .27 / .75; deathDate row: .43 / .50 / 1.0 / "
                ".89; birthDate row: .17 / .57 / .37 / 1.0");

  gen::PersonsConfig config;
  config.num_subjects = 50000;  // large sample for tight conditionals
  const schema::SignatureIndex index = gen::GeneratePersons(config);

  const char* props[] = {"deathPlace", "birthPlace", "deathDate", "birthDate"};
  const double paper[4][4] = {{1.0, .93, .82, .77},
                              {.26, 1.0, .27, .75},
                              {.43, .50, 1.0, .89},
                              {.17, .57, .37, 1.0}};

  TextTable table({"p1 \\ p2", "dPl", "bPl", "dDt", "bDt"});
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> row = {props[i]};
    for (int j = 0; j < 4; ++j) {
      WallTimer timer;
      const double value =
          eval::ClosedFormEvaluator::Dep(&index, props[i], props[j])
              ->SigmaAll();
      bench::Json().Record(
          "dep", {{"p1", props[i]}, {"p2", props[j]}}, timer.Seconds(),
          {{"sigma", value}, {"paper", paper[i][j]}});
      row.push_back(FormatDouble(value) + " (paper " +
                    FormatDouble(paper[i][j]) + ")");
    }
    table.AddRow(row);
  }
  std::cout << table.ToString();
  std::cout << "\nreading: Dep[deathPlace, x] high across the row — the "
               "death place is the hardest fact to acquire; knowing it "
               "implies the rest (Section 7.1.3).\n";
  return 0;
}
