// Figures 2 and 3: dataset overviews of DBpedia Persons and WordNet Nouns —
// subjects, properties, signature counts, sigma_Cov/sigma_Sim, and the
// signature-view rendering the paper draws as a black/white bitmap.

#include <iostream>

#include "bench_util.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "gen/wordnet.h"
#include "schema/ascii_view.h"
#include "util/timer.h"

namespace rdfsr {
namespace {

void Overview(const std::string& name, const schema::SignatureIndex& index,
              const std::string& paper_line) {
  std::cout << "\n--- " << name << " ---\n";
  std::cout << "paper:    " << paper_line << "\n";
  WallTimer timer;
  const double sigma_cov = eval::ClosedFormEvaluator::Cov(&index)->SigmaAll();
  const double sigma_sim = eval::ClosedFormEvaluator::Sim(&index)->SigmaAll();
  bench::Json().Record(
      "overview", {{"dataset", name}}, timer.Seconds(),
      {{"subjects", static_cast<double>(index.total_subjects())},
       {"properties", static_cast<double>(index.num_properties())},
       {"signatures", static_cast<double>(index.num_signatures())},
       {"sigma_cov", sigma_cov},
       {"sigma_sim", sigma_sim}});
  std::cout << "measured: " << FormatCount(index.total_subjects())
            << " subjects, " << index.num_properties() << " properties, "
            << index.num_signatures() << " signatures, sigma_Cov = "
            << FormatDouble(sigma_cov) << ", sigma_Sim = "
            << FormatDouble(sigma_sim) << "\n\n";
  schema::AsciiViewOptions options;
  options.max_rows = 16;
  options.show_property_header = false;
  std::cout << schema::RenderSignatureView(index, options);
}

}  // namespace
}  // namespace rdfsr

int main(int argc, char** argv) {
  using namespace rdfsr;  // NOLINT(build/namespaces)
  bench::InitHarness(argc, argv, "fig2_3_overview");
  bench::Banner("Figures 2 and 3: dataset overviews",
                "DBpedia Persons: 790,703 subj / 8 props / 64 sigs / "
                "Cov 0.54 / Sim 0.77; WordNet Nouns: 79,689 subj / 12 props "
                "/ 53 sigs / Cov 0.44 / Sim 0.93");

  Overview("DBpedia Persons (synthetic twin, 1/100 scale)",
           gen::GeneratePersons(),
           "790,703 subjects, 8 properties, 64 signatures, Cov 0.54, "
           "Sim 0.77");
  Overview("WordNet Nouns (synthetic twin, 1/10 scale)", gen::GenerateWordnet(),
           "79,689 subjects, 12 properties, 53 signatures, Cov 0.44, "
           "Sim 0.93");
  return 0;
}
