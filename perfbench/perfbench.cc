// The rdfsr benchmark program. perfbench/run.py builds it and runs it in two
// steps, so input generation never counts towards a metric or the process's
// peak memory:
//
//   rdfsr_perfbench gen --workload W --seed N --out DIR
//       writes the workload's N-Triples inputs into DIR.
//   rdfsr_perfbench run --workload W --inputs DIR --seconds S --trace 0|1
//                       [--trace-out FILE] [--plant-wrong-reference]
//       loads and queries the inputs through the public API in a closed loop
//       (one query at a time), checks every answer, and prints the metrics.
//       The last line of stdout is the result JSON.
//
// Inputs. Every input's structure (which subject carries which properties)
// is the generators' at seed 42, where the reference answers below were
// recorded; --seed draws the spelling of subject IRIs and literal values.
// The solver's cost at a fixed threshold is chaotic in the structure: at
// generator seeds 1-3 the exact_scan scan took 28 s or more instead of 10 s
// (two of them with a decision cut by the MIP time limit) and the persons
// and custom_rule searches changed by 20-60%, so structural seeds would bury
// every regression in noise. With the structure fixed, each seed still yields different text,
// dictionary and hash-table contents, and every seed is checked against the
// references.
//
// Metrics. --trace 0 measures the end-to-end metrics with tracing off.
// --trace 1 repeats a shorter untraced loop (the tracing-overhead baseline),
// one traced repetition, and then times the benchmark's own calls into each
// layer's public functions (rdf, schema, rules, eval, core, ilp) and reads
// the counters those calls return. Spans are written as Chrome trace JSON.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/rdfsr.h"
#include "core/greedy.h"
#include "core/ilp_builder.h"
#include "core/refinement.h"
#include "core/solver.h"
#include "eval/cached_evaluator.h"
#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "gen/random_graph.h"
#include "ilp/branch_and_bound.h"
#include "ilp/presolve.h"
#include "ilp/simplex.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "schema/index_builder.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace rdfsr;  // NOLINT(build/namespaces)

constexpr std::uint64_t kStructureSeed = 42;
// DBpedia Persons twin at 1/4 of the paper's 790,703 subjects (~1.05M
// triples, ~96 MB): the paper-scale file needs ~2 GB of memory and ~6 s per
// load, which leaves no room for repeated measurement inside one run.
constexpr std::int64_t kPersonsSubjects = 197676;
constexpr std::int64_t kCustomSubjects = 7907;  // the 1/100 twin
constexpr const char* kThingSort = "http://bench.example/Thing";
constexpr const char* kPropBase = "http://bench.example/prop/";

// The rules of examples/custom_rule.cpp, spelled with the full property IRIs
// an N-Triples load produces.
const char* const kCustomRules[3] = {
    "c = c && (prop(c) = <http://example.org/prop/birthDate> || "
    "prop(c) = <http://example.org/prop/birthPlace>) -> val(c) = 1",
    "subj(c1) = subj(c2) && prop(c1) = <http://example.org/prop/deathPlace> && "
    "prop(c2) = <http://example.org/prop/deathDate> && "
    "(val(c1) = 1 || val(c2) = 1) -> val(c1) = 1 && val(c2) = 1",
    "subj(c1) = subj(c2) && prop(c1) = <http://example.org/prop/description> "
    "-> val(c1) = 1"};
constexpr int kDeathPairing = 1;

// exact_scan: k = 2 decisions in this order on one solver (warm starts chain
// through them), then one on the n = 256 index. The phase transition at
// theta .54/.55 is skipped on purpose: it hits the 120 s MIP budget.
const int kExactThetas128[] = {52, 53, 56, 60, 65, 70};
constexpr int kExactTheta256 = 75;

// Each repetition's set-up sample is the fastest of the loads made back to
// back for at least this long (see Runner::Measure).
constexpr double kSetupBatchSeconds = 0.5;

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Buffered N-Triples writer that spells subjects and literal values from a
/// seeded stream. Subject i is always distinct (its index is part of it).
class SpelledWriter {
 public:
  SpelledWriter(const std::string& path, std::uint64_t seed)
      : out_(path, std::ios::binary), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  bool ok() const { return out_.good(); }

  void BeginSubject(const std::string& base, std::int64_t i) {
    subject_ = "<" + base + Hex(rng_.Next()) + "_" + std::to_string(i) + ">";
  }
  void Iri(const std::string& p, const std::string& o) {
    buf_ += subject_ + " <" + p + "> <" + o + "> .\n";
    Flush(false);
  }
  void Literal(const std::string& p) {
    buf_ += subject_ + " <" + p + "> \"" +
            Hex(rng_.Next()).substr(0, 4 + rng_.Next() % 12) + "\" .\n";
    Flush(false);
  }
  bool Finish() {
    Flush(true);
    out_.close();
    return !out_.fail();
  }

 private:
  static std::string Hex(std::uint64_t x) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
    return buf;
  }
  void Flush(bool force) {
    if (force || buf_.size() > (1u << 20)) {
      out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      buf_.clear();
    }
  }

  std::ofstream out_;
  Rng rng_;
  std::string subject_;
  std::string buf_;
};

/// The Persons twin's graph re-spelled: same subjects, properties and triple
/// order as GeneratePersonsGraph at the structure seed.
bool WritePersons(const std::string& path, std::int64_t subjects,
                  std::uint64_t seed) {
  gen::PersonsConfig config;
  config.num_subjects = subjects;
  config.seed = kStructureSeed;
  const rdf::Graph graph = gen::GeneratePersonsGraph(config);
  const rdf::Dictionary& dict = graph.dict();
  SpelledWriter out(path, seed);
  rdf::TermId current = rdf::kInvalidTermId;
  std::int64_t i = 0;
  for (const rdf::Triple& t : graph.triples()) {
    if (t.subject != current) {
      current = t.subject;
      out.BeginSubject("http://example.org/person/", i++);
    }
    const rdf::Term& object = dict.term(t.object);
    const std::string& p = dict.term(t.predicate).lexical;
    if (object.is_iri()) {
      out.Iri(p, object.lexical);
    } else {
      out.Literal(p);
    }
  }
  return out.ok() && out.Finish();
}

/// One subject per member of each signature set, in index order, each with an
/// rdf:type triple (the sort) and one literal per supported property.
bool WriteIndex(const std::string& path, const schema::SignatureIndex& index,
                std::uint64_t seed) {
  SpelledWriter out(path, seed);
  std::vector<std::string> props;
  for (const std::string& name : index.property_names()) {
    props.push_back(kPropBase + name);
  }
  std::int64_t i = 0;
  for (std::size_t s = 0; s < index.num_signatures(); ++s) {
    const std::vector<int> support = index.signature(s).support();
    for (std::int64_t c = 0; c < index.signature(s).count; ++c) {
      out.BeginSubject("http://bench.example/s/", i++);
      out.Iri(rdf::vocab::kRdfType, kThingSort);
      for (int p : support) out.Literal(props[p]);
    }
  }
  return out.ok() && out.Finish();
}

/// bench_solver's clustered shape: `families` property blocks of `block`
/// columns plus one shared column; each family's first signature takes its
/// whole block, later ones ~80% of it.
schema::SignatureIndex ClusteredIndex(int n, std::uint64_t seed,
                                      int families = 8, int block = 8) {
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % families;
    const bool full = static_cast<int>(sigs.size()) < families;
    std::vector<int> support{0};
    const int base = 1 + family * block;
    for (int p = 0; p < block; ++p) {
      if (full || rng.Chance(0.8)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) continue;
    sigs.emplace_back(std::move(support), rng.Range(1, 20));
  }
  std::vector<std::string> names;
  for (int p = 0; p < 1 + families * block; ++p) {
    names.push_back("p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

schema::SignatureIndex RandomIndex(int n) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = n;
  spec.num_properties = 10;
  spec.seed = kStructureSeed;
  return gen::GenerateRandomIndex(spec);
}

// ---------------------------------------------------------------------------
// Fingerprints (FNV-1a)
// ---------------------------------------------------------------------------

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  void Add(const std::string& s) { Add(s.data(), s.size() + 1); }
  void Add(std::int64_t v) { Add(&v, sizeof v); }
};

/// Order-independent: the multiset of (support property names, count).
/// Equal for every seed, since seeds change only spellings.
std::uint64_t StructureFingerprint(const schema::SignatureIndex& index) {
  std::vector<std::uint64_t> sigs;
  for (std::size_t s = 0; s < index.num_signatures(); ++s) {
    std::vector<std::string> names;
    for (int p : index.signature(s).support()) {
      names.push_back(index.property_name(p));
    }
    std::sort(names.begin(), names.end());
    Hasher h;
    for (const std::string& n : names) h.Add(n);
    h.Add(index.signature(s).count);
    sigs.push_back(h.h);
  }
  std::sort(sigs.begin(), sigs.end());
  Hasher h;
  for (std::uint64_t v : sigs) h.Add(static_cast<std::int64_t>(v));
  return h.h;
}

/// Order-dependent: column order, signature order, supports and counts.
/// Identical for every parser thread count (the bit-identity invariant).
std::uint64_t IndexFingerprint(const schema::SignatureIndex& index) {
  Hasher h;
  for (const std::string& name : index.property_names()) h.Add(name);
  for (std::size_t s = 0; s < index.num_signatures(); ++s) {
    for (int p : index.signature(s).support()) h.Add(std::int64_t{p});
    h.Add(std::int64_t{-1});
    h.Add(index.signature(s).count);
  }
  return h.h;
}

/// Term ids in triple order plus every term's spelling in id order.
std::uint64_t GraphFingerprint(const rdf::Graph& graph) {
  Hasher h;
  for (const rdf::Triple& t : graph.triples()) h.Add(&t, sizeof t);
  for (std::size_t id = 0; id < graph.dict().size(); ++id) {
    h.Add(graph.dict().term(static_cast<rdf::TermId>(id)).lexical);
  }
  return h.h;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string SplitSizes(const std::vector<std::vector<int>>& sorts) {
  std::vector<std::size_t> sizes;
  for (const auto& s : sorts) sizes.push_back(s.size());
  std::sort(sizes.begin(), sizes.end());
  std::string out;
  for (std::size_t s : sizes) out += (out.empty() ? "" : "+") + std::to_string(s);
  return out;
}

// ---------------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------------

/// Counts operations (loads, queries, decisions) and the failed ones. A
/// failure is a non-OK Status, an undecided answer where the reference
/// decides, an answer worse than the reference, or a failed re-validation.
struct Checks {
  long long attempted = 0;
  long long failed = 0;

  /// One operation; `problems` lists every check it failed.
  void Op(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) {
      std::cerr << "FAILED " << what << ": " << p << "\n";
    }
  }
  void Op(const std::string& what, bool ok, const std::string& problem) {
    Op(what, ok ? std::vector<std::string>{} : std::vector<std::string>{problem});
  }
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The recorded answers at the structure seed. --plant-wrong-reference
/// corrupts one of them (the benchmark self-test uses it to prove a wrong
/// answer fails the run).
struct References {
  // persons: Analyze("cov").HighestTheta(2)
  Rational persons_theta{17, 25};
  std::string persons_split = "8+52";
  // exact_scan: decisions on n = 128 (kExactThetas128) then n = 256
  std::vector<core::Decision> exact_decisions{
      core::Decision::kExists,    core::Decision::kExists,
      core::Decision::kNotExists, core::Decision::kNotExists,
      core::Decision::kNotExists, core::Decision::kNotExists,
      core::Decision::kNotExists};
  // heuristic_wide: HighestTheta(4) is not proven, so only a floor
  Rational wide_theta_floor{17, 50};
  // custom_rule: the three sigmas, then death-pairing LowestK(1, 4)
  double custom_sigmas[3] = {0.46319716706715569, 0.37833511205976522,
                             0.14885544454281016};
  int custom_k = 3;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Input {
  std::string file;
  std::string sort;
  /// StructureFingerprint of the loaded index, recorded at the structure
  /// seed; every load at every seed must reproduce it.
  std::uint64_t structure = 0;
};

/// What one decision of a traced search returned.
struct DecisionRecord {
  Rational theta;
  core::DecisionResult result;
  double seconds = 0;
};

api::DatasetOptions LoadOptions(const Input& input, int threads) {
  api::DatasetOptions options;
  options.sort = input.sort;
  options.parse_threads = threads;
  return options;
}

/// Shared answer checks for a façade refinement.
std::vector<std::string> ValidateAnswer(const api::Dataset& data,
                                        const api::Analysis& analysis,
                                        const api::Refinement& answer) {
  std::vector<std::string> problems;
  auto evaluator = eval::MakeEvaluator(analysis.rule(), &data.index());
  const Status valid = core::ValidateRefinement(
      *evaluator, core::SortRefinement{answer.sorts}, answer.theta);
  if (!valid.ok()) problems.push_back("re-validation: " + valid.ToString());
  if (answer.timed_out) problems.push_back("timed out");
  return problems;
}

/// Adds the duration of `fn` (one timed API call, also a span) to *seconds.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int rep, double* seconds, Fn&& fn) {
  Span span(tracer, name, rep);
  auto result = fn();
  *seconds += span.Close();
  return result;
}

std::string QueryPersons(const std::vector<api::Dataset>& data, Tracer* tracer,
                         int rep, const References& ref, Checks* checks,
                         double* seconds) {
  auto analysis = Timed(tracer, "api.analyze", rep, seconds,
                        [&] { return data[0].Analyze("cov"); });
  if (!analysis.ok()) {
    checks->Op("persons Analyze", false, analysis.status().ToString());
    return "error";
  }
  const auto best = Timed(tracer, "api.highest_theta", rep, seconds,
                          [&] { return analysis->HighestTheta(2); });
  if (!best.ok()) {
    checks->Op("persons HighestTheta(2)", false, best.status().ToString());
    return "error";
  }
  const api::Refinement& r = *best;
  std::vector<std::string> problems = ValidateAnswer(data[0], *analysis, r);
  if (r.theta != ref.persons_theta) {
    problems.push_back("theta " + r.theta.ToString() + ", reference " +
                       ref.persons_theta.ToString());
  }
  if (!r.optimal) problems.push_back("ceiling not proven");
  if (SplitSizes(r.sorts) != ref.persons_split) {
    problems.push_back("split " + SplitSizes(r.sorts) + ", reference " +
                       ref.persons_split);
  }
  checks->Op("persons HighestTheta(2)", problems);
  return "theta=" + r.theta.ToString() + " split=" + SplitSizes(r.sorts) +
         (r.optimal ? " optimal" : "");
}

/// Runs the exact_scan decision list on one fresh solver per index (stock
/// options). Every Exists witness is re-validated; decisions must match the
/// reference and be monotone in theta (once NotExists, never Exists again).
std::string QueryExact(const std::vector<api::Dataset>& data, Tracer* tracer,
                       int rep, const References& ref, Checks* checks,
                       double* seconds,
                       std::vector<DecisionRecord>* records = nullptr) {
  std::string canonical;
  std::size_t d = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    Span setup(tracer, "core.solver_setup", rep);
    const auto rule = api::ResolveRuleSpec("cov");
    auto evaluator = eval::MakeEvaluator(*rule, &data[i].index());
    core::RefinementSolver solver(evaluator.get(), core::SolverOptions{});
    *seconds += setup.Close();
    std::vector<int> thetas(std::begin(kExactThetas128),
                            std::end(kExactThetas128));
    if (i == 1) thetas = {kExactTheta256};
    bool seen_not_exists = false;
    for (int t : thetas) {
      DecisionRecord rec;
      rec.theta = Rational(t, 100);
      rec.result = Timed(tracer, "core.exists", rep, &rec.seconds,
                         [&] { return solver.Exists(2, rec.theta); });
      *seconds += rec.seconds;
      const core::Decision decision = rec.result.decision;
      std::vector<std::string> problems;
      if (decision == core::Decision::kUnknown) {
        problems.push_back("undecided: " + rec.result.limit.ToString());
      }
      if (d < ref.exact_decisions.size() &&
          decision != ref.exact_decisions[d]) {
        problems.push_back(std::string("decided ") +
                           core::DecisionName(decision) + ", reference " +
                           core::DecisionName(ref.exact_decisions[d]));
      }
      if (decision == core::Decision::kExists) {
        if (seen_not_exists) problems.push_back("not monotone in theta");
        Span span(tracer, "core.validate", rep);
        const Status valid = core::ValidateRefinement(
            *evaluator, *rec.result.refinement, rec.theta);
        if (!valid.ok()) problems.push_back("re-validation: " + valid.ToString());
      }
      if (decision == core::Decision::kNotExists) seen_not_exists = true;
      checks->Op("exact_scan n=" + std::to_string(data[i].num_signatures()) +
                     " Exists(2, " + rec.theta.ToString() + ")",
                 problems);
      canonical += std::string(core::DecisionName(decision)) + " ";
      ++d;
      if (records != nullptr) records->push_back(std::move(rec));
    }
  }
  checks->Op("exact_scan decision count", d == ref.exact_decisions.size(),
             "made " + std::to_string(d) + " decisions");
  return canonical;
}

std::string QueryWide(const std::vector<api::Dataset>& data, Tracer* tracer,
                      int rep, int heuristic_threads, const References& ref,
                      Checks* checks, double* seconds) {
  auto analysis = Timed(tracer, "api.analyze", rep, seconds,
                        [&] { return data[0].Analyze("cov"); });
  if (!analysis.ok()) {
    checks->Op("heuristic_wide Analyze", false, analysis.status().ToString());
    return "error";
  }
  analysis->HeuristicThreads(heuristic_threads);
  const auto best = Timed(tracer, "api.highest_theta", rep, seconds,
                          [&] { return analysis->HighestTheta(4); });
  if (!best.ok()) {
    checks->Op("heuristic_wide HighestTheta(4)", false,
               best.status().ToString());
    return "error";
  }
  const api::Refinement& r = *best;
  std::vector<std::string> problems = ValidateAnswer(data[0], *analysis, r);
  if (r.theta < ref.wide_theta_floor) {
    problems.push_back("theta " + r.theta.ToString() + " below reference " +
                       ref.wide_theta_floor.ToString());
  }
  checks->Op("heuristic_wide HighestTheta(4)", problems);
  Hasher sorts;
  for (const auto& sort : r.sorts) {
    for (int s : sort) sorts.Add(std::int64_t{s});
    sorts.Add(std::int64_t{-1});
  }
  return "theta=" + r.theta.ToString() + " split=" + SplitSizes(r.sorts) +
         " instances=" + std::to_string(r.instances) +
         " sorts=" + Hex64(sorts.h);
}

std::string QueryCustom(const std::vector<api::Dataset>& data, Tracer* tracer,
                        int rep, const References& ref, Checks* checks,
                        double* seconds) {
  std::string canonical;
  for (int i = 0; i < 3; ++i) {
    auto analysis = Timed(tracer, "api.analyze", rep, seconds,
                          [&] { return data[0].Analyze(kCustomRules[i]); });
    if (!analysis.ok()) {
      checks->Op("custom_rule Analyze", false, analysis.status().ToString());
      return "error";
    }
    const double sigma = Timed(tracer, "api.sigma", rep, seconds,
                               [&] { return analysis->Sigma(); });
    checks->Op("custom_rule Sigma(rule " + std::to_string(i + 1) + ")",
               sigma == ref.custom_sigmas[i],
               "sigma " + JsonNumber(sigma) + ", reference " +
                   JsonNumber(ref.custom_sigmas[i]));
    canonical += JsonNumber(sigma) + " ";
  }
  auto analysis =
      Timed(tracer, "api.analyze", rep, seconds,
            [&] { return data[0].Analyze(kCustomRules[kDeathPairing]); });
  if (!analysis.ok()) {
    checks->Op("custom_rule Analyze", false, analysis.status().ToString());
    return "error";
  }
  const auto lowest = Timed(tracer, "api.lowest_k", rep, seconds,
                            [&] { return analysis->LowestK(Rational(1), 4); });
  if (!lowest.ok()) {
    checks->Op("custom_rule LowestK(1, 4)", false, lowest.status().ToString());
    return "error";
  }
  const api::Refinement& r = *lowest;
  std::vector<std::string> problems = ValidateAnswer(data[0], *analysis, r);
  if (static_cast<int>(r.num_sorts()) != ref.custom_k) {
    problems.push_back("k " + std::to_string(r.num_sorts()) + ", reference " +
                       std::to_string(ref.custom_k));
  }
  if (!r.optimal) problems.push_back("minimality not proven");
  checks->Op("custom_rule LowestK(1, 4)", problems);
  return canonical + "k=" + std::to_string(r.num_sorts()) + " split=" +
         SplitSizes(r.sorts);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  std::vector<Input> inputs;
  int k = 2;  ///< the k of the workload's refinements (facts, heuristics)
};

std::optional<Spec> FindWorkload(const std::string& name) {
  const std::string person = rdf::vocab::kFoafPerson;
  if (name == "persons") {
    return Spec{name, {{"persons.nt", person, 0xdaa4ad9dcab6e620ULL}}, 2};
  }
  if (name == "exact_scan") {
    return Spec{name,
                {{"exact_128.nt", kThingSort, 0x26834a56309f078dULL},
                 {"exact_256.nt", kThingSort, 0x52bb92e183524fdeULL}},
                2};
  }
  if (name == "heuristic_wide") {
    return Spec{name, {{"wide.nt", kThingSort, 0xb62ae8b1bc5eaf60ULL}}, 4};
  }
  if (name == "custom_rule") {
    return Spec{name, {{"custom.nt", person, 0x7cd90b3397e16586ULL}}, 3};
  }
  return std::nullopt;
}

bool Generate(const Spec& spec, const std::string& dir, std::uint64_t seed) {
  const auto path = [&](int i) { return dir + "/" + spec.inputs[i].file; };
  if (spec.name == "persons") {
    return WritePersons(path(0), kPersonsSubjects, seed);
  }
  if (spec.name == "exact_scan") {
    return WriteIndex(path(0), RandomIndex(128), seed) &&
           WriteIndex(path(1), RandomIndex(256), seed + 1);
  }
  if (spec.name == "heuristic_wide") {
    return WriteIndex(path(0), ClusteredIndex(1000, kStructureSeed), seed);
  }
  return WritePersons(path(0), kCustomSubjects, seed);
}

/// The recorded references, keyed by workload.
References RecordedReferences(const std::string& workload, bool plant_wrong) {
  References ref;
  if (plant_wrong) {
    if (workload == "persons") ref.persons_theta = Rational(18, 25);
    if (workload == "exact_scan") {
      ref.exact_decisions[0] = core::Decision::kNotExists;
    }
    if (workload == "heuristic_wide") ref.wide_theta_floor = Rational(1);
    if (workload == "custom_rule") ref.custom_k = 2;
  }
  return ref;
}

struct Samples {
  std::vector<double> setup;  ///< per repetition: its batch's fastest load
  std::vector<double> query;  ///< per repetition
  std::vector<double> total;  ///< setup + query of the same repetition
  int loads = 0;              ///< every load of the run
  std::string answer;         ///< canonical answer of the first repetition
  // From the first repetition's datasets, which are released before anything
  // else is loaded so no two copies of an input are ever alive at once.
  std::vector<std::uint64_t> index_fingerprints;
  std::size_t triples = 0;
  int parse_threads = 0;
  std::string facts;
};

class Runner {
 public:
  Runner(Spec spec, std::string dir, References ref, int threads)
      : spec_(std::move(spec)),
        dir_(std::move(dir)),
        ref_(std::move(ref)),
        threads_(threads) {}

  Checks& checks() { return checks_; }
  std::string Path(const Input& input) const { return dir_ + "/" + input.file; }

  /// Loads every input through the façade. Returns false on a failed load.
  bool Load(Tracer* tracer, int rep, int threads,
            std::vector<api::Dataset>* data, double* seconds) {
    data->clear();
    double total = 0;
    for (const Input& input : spec_.inputs) {
      std::optional<Result<api::Dataset>> loaded;
      {
        Span span(tracer, "api.load", rep);
        loaded.emplace(api::Dataset::FromNTriplesFile(
            Path(input), LoadOptions(input, threads)));
        total += span.Close();
      }
      if (first_load_rss_mb_ == 0) first_load_rss_mb_ = PeakRssMb();
      if (!loaded->ok()) {
        checks_.Op("load " + input.file, false, loaded->status().ToString());
        return false;
      }
      const std::uint64_t structure = StructureFingerprint((*loaded)->index());
      checks_.Op("load " + input.file, structure == input.structure,
                 "structure " + Hex64(structure) + ", reference " +
                     Hex64(input.structure));
      data->push_back(**loaded);
    }
    *seconds = total;
    return true;
  }

  /// The workload's timed query sequence; adds its API time to *seconds.
  std::string Query(const std::vector<api::Dataset>& data, Tracer* tracer,
                    int rep, double* seconds) {
    Span span(tracer, "query", rep);
    std::string answer;
    if (spec_.name == "persons") {
      answer = QueryPersons(data, tracer, rep, ref_, &checks_, seconds);
    } else if (spec_.name == "exact_scan") {
      answer = QueryExact(data, tracer, rep, ref_, &checks_, seconds);
    } else if (spec_.name == "heuristic_wide") {
      // Timed at one heuristic thread: on a 4-vCPU VM the parallel
      // agglomerative rounds took 4.5-14.5 s for this query against 4.6-4.8 s
      // serial, too unsteady to bound. The parallel run is the untimed
      // invariance check; core.agglo_speedup reports its speed.
      answer = QueryWide(data, tracer, rep, 1, ref_, &checks_, seconds);
    } else {
      answer = QueryCustom(data, tracer, rep, ref_, &checks_, seconds);
    }
    return answer;
  }

  /// Closed loop, repeated until `seconds` have passed and at least
  /// `min_reps` repetitions ran (two keep a slow single repetition of
  /// exact_scan from being the whole sample). A repetition loads the inputs
  /// back to back until the batch has lasted `batch_s` (at least once; each
  /// load's datasets are released before the next), then queries the last
  /// load. Its set-up sample is the batch's fastest load: on a shared 4-vCPU
  /// VM single sub-100 ms loads ran 1.5-2.5x slower for seconds at a time;
  /// over ten seeds the IQR/median of setup_s on exact_scan and custom_rule
  /// was .65 and .68 as the median of single loads, .16 and .14 as the
  /// median of batch minima.
  Samples Measure(double seconds, int min_reps, double batch_s, Tracer* tracer,
                  int* rep) {
    Samples s;
    std::vector<api::Dataset> data;
    const double start = Now();
    while (static_cast<int>(s.total.size()) < min_reps ||
           Now() - start < seconds) {
      const int id = (*rep)++;
      Span rep_span(tracer, "rep", id);
      double setup = 0;
      const double batch_start = Now();
      for (int i = 0; i == 0 || Now() - batch_start < batch_s; ++i, ++s.loads) {
        data.clear();
        double load = 0;
        if (!Load(tracer, id, threads_, &data, &load)) return s;
        setup = i == 0 ? load : std::min(setup, load);
      }
      double query = 0;
      const std::string answer = Query(data, tracer, id, &query);
      if (s.answer.empty()) s.answer = answer;
      checks_.Op("repetition " + std::to_string(s.total.size()),
                 answer == s.answer, "answer changed between repetitions");
      s.setup.push_back(setup);
      s.query.push_back(query);
      s.total.push_back(setup + query);
      if (s.index_fingerprints.empty()) {
        for (const api::Dataset& d : data) {
          s.index_fingerprints.push_back(IndexFingerprint(d.index()));
          s.triples += d.num_triples();
        }
        s.parse_threads = data[0].effective_parse_threads();
        s.facts = Facts(data);
      }
      data.clear();
    }
    return s;
  }

  /// Thread-count invariants through the façade (traced run, untimed):
  /// persons loads to the same index and triple count at 1 and N parser
  /// threads; heuristic_wide finds the same refinement at N heuristic
  /// threads as the timed runs do at 1.
  void CheckThreadInvariance(const Samples& s) {
    if (s.index_fingerprints.empty()) return;
    std::vector<api::Dataset> data;
    double seconds = 0;
    if (spec_.name == "persons") {
      if (!Load(nullptr, -1, 1, &data, &seconds)) return;
      checks_.Op("persons load at 1 vs " + std::to_string(threads_) +
                     " parser threads",
                 IndexFingerprint(data[0].index()) ==
                         s.index_fingerprints[0] &&
                     data[0].num_triples() == s.triples,
                 "index or triple count differs");
    }
    if (spec_.name == "heuristic_wide") {
      if (!Load(nullptr, -1, threads_, &data, &seconds)) return;
      const std::string parallel =
          QueryWide(data, nullptr, -1, threads_, ref_, &checks_, &seconds);
      checks_.Op("heuristic_wide at 1 vs " + std::to_string(threads_) +
                     " heuristic threads",
                 parallel == s.answer, "refinement differs");
    }
  }

  /// Input facts, so a change to an input shows in the output.
  std::string Facts(const std::vector<api::Dataset>& data) const {
    std::string out = "[";
    for (std::size_t i = 0; i < data.size() && i < spec_.inputs.size(); ++i) {
      const api::Dataset& d = data[i];
      std::ifstream file(Path(spec_.inputs[i]),
                         std::ios::binary | std::ios::ate);
      const long long bytes = static_cast<long long>(file.tellg());
      const rules::Rule rule = *api::ResolveRuleSpec(
          spec_.name == "custom_rule" ? kCustomRules[kDeathPairing] : "cov");
      const auto shapes =
          core::AnalyzeTaus(eval::EnumerateTauCounts(rule, d.index()), d.index());
      const std::size_t rows =
          core::RefinementIlpActiveRows(d.index(), shapes, spec_.k);
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"file\":\"%s\",\"bytes\":%lld,\"triples\":%zu,"
                    "\"subjects\":%lld,\"signatures\":%zu,\"properties\":%zu,"
                    "\"k\":%d,\"ilp_active_rows\":%zu,\"structure\":\"%s\"}",
                    i == 0 ? "" : ",", spec_.inputs[i].file.c_str(), bytes,
                    d.num_triples(), static_cast<long long>(d.num_subjects()),
                    d.num_signatures(), d.num_properties(), spec_.k, rows,
                    Hex64(StructureFingerprint(d.index())).c_str());
      out += buf;
    }
    return out + "]";
  }

  /// The traced layer replay: the benchmark's own calls into each layer's
  /// public functions, one span each. It rebuilds the inputs call by call
  /// (checked equal to the façade's loads in `traced`) and runs the rest on
  /// datasets wrapping the rebuilt indexes.
  void TraceLayers(const Samples& traced, Tracer* tracer, int rep, Metrics* m);

 private:
  Spec spec_;
  std::string dir_;
  References ref_;
  int threads_;
  Checks checks_;
  double first_load_rss_mb_ = 0;
};

void Runner::TraceLayers(const Samples& traced, Tracer* tracer, int rep,
                         Metrics* m) {
  std::vector<api::Dataset> data;
  // --- rdf + schema: the façade's load chain, call by call ----------------
  double triples = 0, signatures = 0, subjects = 0;
  int parse_threads = 1;
  {
    Span replay(tracer, "replay.load", rep);
    for (std::size_t i = 0; i < spec_.inputs.size(); ++i) {
      const Input& input = spec_.inputs[i];
      std::optional<Result<std::string>> text;
      {
        Span span(tracer, "rdf.read", rep);
        text.emplace(rdf::ReadFileToString(Path(input)));
      }
      if (!text->ok()) {
        checks_.Op("replay read " + input.file, false, text->status().ToString());
        return;
      }
      rdf::ParseOptions options;
      options.threads = threads_;
      const int effective = rdf::EffectiveParseThreads(options, (*text)->size());
      parse_threads = std::max(parse_threads, effective);
      options.threads = effective;
      std::unique_ptr<util::ThreadPool> pool;
      if (effective > 1) {
        pool = std::make_unique<util::ThreadPool>(effective - 1);
        options.pool = pool.get();
      }
      rdf::Graph graph;
      Status st;
      {
        Span span(tracer, "rdf.parse", rep);
        st = rdf::ParseNTriplesInto(**text, &graph, options);
      }
      {
        Span span(tracer, "rdf.type_postings", rep);
        graph.TypePostings();
      }
      schema::SignatureIndex index;
      {
        Span span(tracer, "schema.index_build", rep);
        index = schema::IndexBuilder::FromSortSlice(graph, input.sort, true,
                                                    nullptr, pool.get());
      }
      rdf::Graph single;
      Status st1;
      {
        Span span(tracer, "rdf.parse_1t", rep);
        st1 = rdf::ParseNTriplesInto(**text, &single);
      }
      checks_.Op("replay load " + input.file,
                 st.ok() && st1.ok() &&
                     GraphFingerprint(graph) == GraphFingerprint(single) &&
                     IndexFingerprint(index) == traced.index_fingerprints[i],
                 "replayed graph or index differs from the façade's, or the "
                 "1-thread parse differs from the " +
                     std::to_string(effective) + "-thread one");
      triples += static_cast<double>(graph.size());
      signatures += static_cast<double>(index.num_signatures());
      subjects += static_cast<double>(index.total_subjects());
      data.push_back(api::Dataset::FromIndex(std::move(index)));
    }
  }
  const double read = tracer->TotalSeconds("rdf.read");
  const double parse = tracer->TotalSeconds("rdf.parse");
  const double parse_1t = tracer->TotalSeconds("rdf.parse_1t");
  const double postings = tracer->TotalSeconds("rdf.type_postings");
  const double index_build = tracer->TotalSeconds("schema.index_build");
  (*m)["rdf.read_s"] = {read, "s"};
  (*m)["rdf.parse_s"] = {parse, "s"};
  (*m)["rdf.parse_1t_s"] = {parse_1t, "s"};
  (*m)["rdf.parse_speedup"] = {parse > 0 ? parse_1t / parse : 0, "ratio"};
  (*m)["rdf.parse_threads"] = {static_cast<double>(parse_threads), "count"};
  (*m)["rdf.triples_per_s"] = {parse > 0 ? triples / parse : 0, "1/s"};
  (*m)["rdf.type_postings_s"] = {postings, "s"};
  (*m)["rdf.peak_rss_mb"] = {first_load_rss_mb_, "MB"};
  (*m)["schema.index_build_s"] = {index_build, "s"};
  (*m)["schema.signatures"] = {signatures, "count"};
  (*m)["schema.subjects"] = {subjects, "count"};
  // The traced façade load and the replayed calls are two separate loads, so
  // the remainder can come out negative.
  const double facade = traced.setup[0];
  const double layers = read + parse + postings + index_build;
  (*m)["api.load_self_s"] = {facade - layers, "s"};
  (*m)["trace.setup_coverage"] = {facade > 0 ? layers / facade : 0, "ratio"};

  // --- rules, eval, core, ilp on the workload's main dataset -------------
  const api::Dataset& main = data[0];
  const std::string spec = spec_.name == "custom_rule"
                               ? kCustomRules[kDeathPairing]
                               : std::string("cov");
  std::optional<Result<rules::Rule>> rule;
  {
    Span span(tracer, "rules.resolve", rep);
    if (spec_.name == "custom_rule") {
      for (const char* text : kCustomRules) (void)api::ResolveRuleSpec(text);
    }
    rule.emplace(api::ResolveRuleSpec(spec));
  }
  if (!rule->ok()) {
    checks_.Op("replay resolve", false, rule->status().ToString());
    return;
  }
  const core::SolverOptions options = main.Analyze(**rule).options();
  auto evaluator = eval::MakeEvaluator(**rule, &main.index());
  {
    Span span(tracer, "eval.sigma_all", rep);
    (void)evaluator->SigmaAll();
  }
  std::vector<eval::TauCount> taus;
  {
    Span span(tracer, "eval.tau_enum", rep);
    taus = eval::EnumerateTauCounts(**rule, main.index());
  }

  // The search, decision by decision, on one solver with the façade's
  // options: the same Exists sequence FindHighestTheta / FindLowestK run.
  std::vector<DecisionRecord> decisions;
  core::SortRefinement answer;
  Rational answer_theta;
  int answer_k = spec_.k;
  std::vector<std::pair<int, Rational>> proofs;  // cold exact replays
  {
    Span search(tracer, "core.search", rep);
    if (spec_.name == "exact_scan") {
      double unused = 0;
      QueryExact(data, tracer, rep, ref_, &checks_, &unused, &decisions);
      for (const DecisionRecord& d : decisions) {
        if (d.result.decision == core::Decision::kExists) {
          answer = *d.result.refinement;
          answer_theta = d.theta;
        }
      }
      proofs = {{2, Rational(kExactThetas128[2], 100)}};
    } else {
      core::RefinementSolver solver(evaluator.get(), options);
      const auto decide = [&](int k, Rational theta) -> const DecisionRecord& {
        DecisionRecord rec;
        rec.theta = theta;
        Span span(tracer, "core.exists", rep);
        rec.result = solver.Exists(k, theta);
        rec.seconds = span.Close();
        decisions.push_back(std::move(rec));
        return decisions.back();
      };
      if (spec_.name == "custom_rule") {
        for (int k = 1; k <= 4; ++k) {
          const DecisionRecord& d = decide(k, Rational(1));
          if (d.result.decision != core::Decision::kExists) continue;
          answer = *d.result.refinement;
          answer_theta = Rational(1);
          answer_k = k;
          if (k > 1) proofs = {{k - 1, Rational(1)}};
          break;
        }
      } else {
        const eval::SigmaCounts all = evaluator->CountsAll();
        const Rational sigma_all(static_cast<std::int64_t>(all.favorable),
                                 static_cast<std::int64_t>(all.total));
        const core::ThetaGrid grid =
            core::MakeThetaGrid(sigma_all, options.theta_step);
        answer.sorts.push_back(eval::AllSignatures(main.index()));
        answer_theta = sigma_all;
        for (std::int64_t g = grid.first; g <= grid.last; ++g) {
          const DecisionRecord& d = decide(spec_.k, grid.Theta(g));
          if (d.result.decision != core::Decision::kExists) {
            proofs = {{spec_.k, d.theta}};
            break;
          }
          answer = *d.result.refinement;
          answer_theta = d.theta;
        }
      }
    }
  }
  if (spec_.name == "exact_scan") {
    proofs.push_back({2, Rational(kExactTheta256, 100)});
  }
  {
    Span span(tracer, "core.validate", rep);
    const Status valid = core::ValidateRefinement(*evaluator, answer,
                                                  answer_theta);
    span.Close();
    const bool as_recorded =
        spec_.name == "persons"          ? answer_theta == ref_.persons_theta
        : spec_.name == "heuristic_wide" ? answer_theta >= ref_.wide_theta_floor
        : spec_.name == "custom_rule"    ? answer_k == ref_.custom_k
                                         : true;
    checks_.Op("replay search answer", valid.ok() && as_recorded,
               "theta " + answer_theta.ToString() + ", k " +
                   std::to_string(answer_k) + ", validation " +
                   valid.ToString());
  }
  std::vector<double> exists_s;
  double via_greedy = 0, nodes = 0;
  ilp::LpEngineStats lp;
  for (const DecisionRecord& d : decisions) {
    exists_s.push_back(d.seconds);
    via_greedy += d.result.via_greedy ? 1 : 0;
    nodes += static_cast<double>(d.result.mip_nodes);
    lp.MergeWith(d.result.lp_stats);
  }
  const double n = static_cast<double>(decisions.size());
  (*m)["core.instances"] = {n, "count"};
  (*m)["core.via_greedy_frac"] = {n > 0 ? via_greedy / n : 0, "ratio"};
  (*m)["core.exists_median_s"] = {Median(exists_s), "s"};
  (*m)["core.exists_max_s"] = {
      exists_s.empty() ? 0 : *std::max_element(exists_s.begin(), exists_s.end()),
      "s"};
  (*m)["core.search_s"] = {tracer->TotalSeconds("core.search"), "s"};
  (*m)["core.search_self_s"] = {tracer->SelfSeconds("core.search"), "s"};
  (*m)["ilp.nodes"] = {nodes, "count"};
  (*m)["ilp.pivots"] = {static_cast<double>(lp.pivots), "count"};
  (*m)["ilp.refactorizations"] = {static_cast<double>(lp.refactorizations),
                                  "count"};
  (*m)["ilp.basis_reuses"] = {static_cast<double>(lp.basis_reuses), "count"};
  (*m)["ilp.basis_repairs"] = {static_cast<double>(lp.basis_repairs), "count"};
  (*m)["ilp.max_eta_length"] = {static_cast<double>(lp.max_eta_length),
                                "count"};

  // --- the heuristics the search leans on, called one by one, each on a
  // cold memo over the rule's evaluator as the solver wraps it. Closed forms
  // bypass the memo, so only the generic evaluator (custom_rule) hits it.
  {
    eval::CachedEvaluator cached(evaluator.get());
    Span span(tracer, "core.greedy", rep);
    (void)core::GreedyMaxMinSigma(cached, answer_k, options.greedy);
    span.Close();
    const double lookups = static_cast<double>(cached.hits() + cached.misses());
    (*m)["eval.cache_hit_ratio"] = {lookups > 0 ? cached.hits() / lookups : 0,
                                    "ratio"};
  }
  core::SortRefinement fixed_1t, fixed_nt;
  {
    eval::CachedEvaluator cached(evaluator.get());
    Span span(tracer, "core.agglo_fixed_k", rep);
    fixed_1t = core::AgglomerativeFixedK(cached, answer_k, 1);
  }
  {
    eval::CachedEvaluator cached(evaluator.get());
    Span span(tracer, "core.agglo_fixed_k_nt", rep);
    fixed_nt = core::AgglomerativeFixedK(cached, answer_k, threads_);
  }
  checks_.Op("agglomerative fixed-k at 1 vs " + std::to_string(threads_) +
                 " threads",
             fixed_1t.sorts == fixed_nt.sorts, "merge sequence differs");
  {
    eval::CachedEvaluator cached(evaluator.get());
    Span span(tracer, "core.agglo_lowest_k", rep);
    (void)core::AgglomerativeLowestK(cached, answer_theta, 1);
  }
  const double agglo_1t = tracer->TotalSeconds("core.agglo_fixed_k");
  const double agglo_nt = tracer->TotalSeconds("core.agglo_fixed_k_nt");
  (*m)["core.greedy_s"] = {tracer->TotalSeconds("core.greedy"), "s"};
  (*m)["core.agglo_fixed_k_s"] = {agglo_1t, "s"};
  (*m)["core.agglo_lowest_k_s"] = {tracer->TotalSeconds("core.agglo_lowest_k"),
                                   "s"};
  (*m)["core.agglo_speedup"] = {agglo_nt > 0 ? agglo_1t / agglo_nt : 0,
                                "ratio"};
  (*m)["core.validate_s"] = {tracer->TotalSeconds("core.validate"), "s"};

  // --- cold replays of the exact proofs through the ilp layer -----------
  double rows = 0, root_pivots = 0, mip_pivots = 0, limit_hits = 0;
  {
    Span replay(tracer, "replay.exact", rep);
    for (const auto& [k, theta] : proofs) {
      const api::Dataset& d =
          spec_.name == "exact_scan" && theta == Rational(kExactTheta256, 100)
              ? data[1]
              : main;
      std::vector<eval::TauCount> proof_taus =
          &d == &main ? taus : eval::EnumerateTauCounts(**rule, d.index());
      std::optional<core::IlpEncoding> enc;
      {
        Span span(tracer, "core.encode", rep);
        const auto shapes = core::AnalyzeTaus(proof_taus, d.index());
        const std::size_t active =
            core::RefinementIlpActiveRows(d.index(), shapes, k, options.build);
        rows = std::max(rows, static_cast<double>(active));
        // The solver's own gate: over it, no model is built or solved.
        if (active <= options.max_mip_rows) {
          enc.emplace(core::BuildRefinementIlp(d.index(), **rule, proof_taus, k,
                                               theta, options.build));
        }
      }
      if (!enc.has_value()) continue;
      std::optional<ilp::PresolveResult> pre;
      {
        Span span(tracer, "ilp.presolve", rep);
        pre.emplace(ilp::Presolve(enc->model));
      }
      if (!pre->proven_infeasible) {
        Span span(tracer, "ilp.root_lp", rep);
        const ilp::LpResult lp_root = ilp::SolveLp(pre->reduced, options.mip.lp);
        root_pivots += static_cast<double>(lp_root.stats.pivots);
      }
      ilp::MipResult mip;
      {
        Span span(tracer, "ilp.mip", rep);
        mip = ilp::SolveMip(enc->model, options.mip);
      }
      mip_pivots += static_cast<double>(mip.lp_stats.pivots);
      limit_hits += static_cast<double>(mip.lp_iteration_limit_hits);
      checks_.Op("cold replay Exists(" + std::to_string(k) + ", " +
                     theta.ToString() + ")",
                 mip.status == ilp::MipStatus::kInfeasible,
                 std::string("MIP status ") + ilp::MipStatusName(mip.status) +
                     " where the search proved NotExists");
    }
  }
  const double mip_s = tracer->TotalSeconds("ilp.mip");
  (*m)["eval.sigma_all_s"] = {tracer->TotalSeconds("eval.sigma_all"), "s"};
  (*m)["eval.tau_enum_s"] = {tracer->TotalSeconds("eval.tau_enum"), "s"};
  (*m)["eval.tau_counts"] = {static_cast<double>(taus.size()), "count"};
  (*m)["rules.resolve_s"] = {tracer->TotalSeconds("rules.resolve"), "s"};
  (*m)["core.encode_s"] = {tracer->TotalSeconds("core.encode"), "s"};
  (*m)["core.ilp_rows"] = {rows, "count"};
  (*m)["ilp.presolve_s"] = {tracer->TotalSeconds("ilp.presolve"), "s"};
  (*m)["ilp.root_lp_s"] = {tracer->TotalSeconds("ilp.root_lp"), "s"};
  (*m)["ilp.root_pivots"] = {root_pivots, "count"};
  (*m)["ilp.mip_s"] = {mip_s, "s"};
  (*m)["ilp.pivots_per_s"] = {mip_s > 0 ? mip_pivots / mip_s : 0, "1/s"};
  (*m)["ilp.lp_iteration_limit_hits"] = {limit_hits, "count"};
}

int Usage() {
  std::cerr << "usage: rdfsr_perfbench gen --workload W --seed N --out DIR\n"
               "       rdfsr_perfbench run --workload W --inputs DIR "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--plant-wrong-reference]\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  bool plant_wrong = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--plant-wrong-reference") {
      plant_wrong = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::optional<Spec> spec = FindWorkload(args["workload"]);
  if (!spec.has_value()) {
    std::cerr << "unknown workload '" << args["workload"] << "'\n";
    return Usage();
  }

  if (command == "gen") {
    if (args["out"].empty() || args["seed"].empty()) return Usage();
    const std::uint64_t seed = std::stoull(args["seed"]);
    if (!Generate(*spec, args["out"], seed)) {
      std::cerr << "cannot write inputs into " << args["out"] << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run" || args["inputs"].empty() || args["seconds"].empty()) {
    return Usage();
  }

  // Refuse to report from an unoptimized library build.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  const bool optimized = false;
#else
  const bool optimized = build_type == "Release" || build_type == "RelWithDebInfo";
#endif
  if (!optimized) {
    std::cerr << "refusing to measure a non-optimized build (build type '"
              << build_type << "')\n";
    return 3;
  }

  const double seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  const int threads = BenchThreads();
  Runner runner(*spec, args["inputs"],
                RecordedReferences(spec->name, plant_wrong), threads);
  Tracer tracer;
  Metrics metrics;
  int rep = 0;
  Samples samples;
  if (!trace) {
    samples = runner.Measure(seconds, 2, kSetupBatchSeconds, nullptr, &rep);
    metrics["setup_s"] = {Median(samples.setup), "s"};
    metrics["query_s"] = {Median(samples.query), "s"};
    metrics["total_s"] = {Median(samples.total), "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    samples =
        runner.Measure(0.5 * seconds, 1, kSetupBatchSeconds, nullptr, &rep);
    // One traced load, so it compares with the replay's single load chain.
    const Samples traced = runner.Measure(0, 1, 0, &tracer, &rep);
    if (!samples.index_fingerprints.empty() &&
        !traced.index_fingerprints.empty()) {
      runner.TraceLayers(traced, &tracer, rep++, &metrics);
      runner.CheckThreadInvariance(samples);
      metrics["trace.overhead_s"] = {
          Median(traced.total) - Median(samples.total), "s"};
      std::cout << "traced set-up " << JsonNumber(traced.setup[0])
                << " s = " << JsonNumber(traced.setup[0] / Median(samples.setup))
                << " x untraced setup_s\n";
    }
    if (!args["trace-out"].empty()) {
      std::ofstream out(args["trace-out"]);
      out << tracer.ChromeJson();
      std::cerr << "trace: " << tracer.records().size() << " spans written to "
                << args["trace-out"] << "\n";
    }
  }

  Checks& checks = runner.checks();
  const double failed_frac =
      checks.attempted > 0
          ? static_cast<double>(checks.failed) / checks.attempted
          : 1.0;
  std::cout << "workload " << spec->name << ": " << samples.total.size()
            << " repetitions, " << samples.loads << " loads; answer "
            << samples.answer << "\n";
  for (const auto& [name, values] :
       {std::pair{"setup_s", &samples.setup}, std::pair{"query_s", &samples.query},
        std::pair{"total_s", &samples.total}}) {
    std::cout << name << " samples:";
    for (double v : *values) std::cout << " " << JsonNumber(v);
    std::cout << "\n";
  }
  std::cout << "failed_frac " << JsonNumber(failed_frac) << " ("
            << checks.failed << " of " << checks.attempted << " operations)\n";
  if (trace) {
    std::cout << "self time by span:";
    std::set<std::string> names;
    for (const auto& r : tracer.records()) names.insert(r.name);
    for (const std::string& name : names) {
      std::cout << " " << name << "=" << JsonNumber(tracer.SelfSeconds(name));
    }
    std::cout << "\n";
  }
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << name << " = " << JsonNumber(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "facts {\"workload\":\"" << spec->name
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"compiler\":\"" << PERFBENCH_CXX_COMPILER
            << "\",\"build_type\":\"" << build_type
            << "\",\"parse_threads\":" << samples.parse_threads
            << ",\"heuristic_threads\":1,\"invariance_threads\":" << threads
            << ",\"closed_loop_clients\":1,\"repetitions\":"
            << samples.total.size() << ",\"loads\":" << samples.loads
            << ",\"failed_frac\":" << JsonNumber(failed_frac)
            << ",\"inputs\":" << (samples.facts.empty() ? "[]" : samples.facts)
            << "}\n";

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 && checks.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted) +
          ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    json += sep;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::cout << json << std::endl;
  return checks.failed == 0 && checks.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
