// bench_refine — refinement-search throughput: incremental SortStats engines
// vs the seed's scratch-evaluation heuristics.
//
// The paper spends its experiments (Sections 6-7) deciding Exists(k, theta)
// over signature indices; after PR 3 made ingestion stream, the hot path is
// the heuristic ladder in core/greedy.cc. This harness measures both layers
// at n = 256 / 1k / 4k signatures on two index shapes:
//
//   clustered   8 property families + 2 shared columns; most within-family
//               merges stay above theta, so agglomerative lowest-k runs
//               ~n - 8 merge rounds — the deep-merge regime where scratch
//               evaluation re-walks ever-growing sorts
//   random      gen::GenerateRandomIndex; almost no merge passes theta, so
//               the cost is the O(n^2) first-round scan
//
// and two implementations per heuristic:
//
//   incremental core/greedy.cc: per-part/per-slot SortStats, closed-form
//               extraction, lazy best-pair heap. Merge round
//               O(n log n + n * |P|/64); greedy trial O(|supp| + k log k).
//   scratch     the seed implementation mirrored verbatim below: every
//               candidate evaluation re-derives its counts from the member
//               signatures (Evaluator::Counts). Merge round O(n^2 * |sort| * |P|); greedy trial
//               O(k * |sort| * |P|).
//
// Outputs must match exactly and the binary exits non-zero on any divergence
// (CI runs the small size as a smoke tier, no perf gating). The incremental
// sigmas come from the same exact integer counts as scratch evaluation; the
// one intended difference is the merge tie-break — exact CompareSigma instead
// of the seed's `sigma > best + 1e-15` double slack — so the outputs agree
// whenever no two candidate sigmas are distinct rationals within 1e-15 of
// each other, which holds at these shapes and sizes (cross-products of totals
// stay far below the ~1e15 where double slack could mask a real difference).
// The scratch agglomerative
// baseline is O(n^3) and takes ~a minute at n = 1k; sizes above
// --scratch-max (default 1000) skip it and record the incremental side only
// (so --signatures 4000 is cheap).
//
// `--threads N` runs the incremental agglomerative side on N worker threads
// (0 = one per hardware thread). For sizes up to --parallel-check-max the
// harness re-runs the search serially and on >= 2 threads and asserts all
// three refinements are bit-identical (exit non-zero otherwise); every
// record carries the thread count and the process peak RSS, so large runs
// (--signatures 100000) document the sparse-SortStats memory footprint.
//
// Usage: bench_refine [--json <path>] [--signatures N[,N...]]
//                     [--scratch-max N] [--threads N]
//                     [--parallel-check-max N]    (default sizes 256, 1000)

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/greedy.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rdfsr::bench {
namespace {

// --- The seed's heuristics, mirrored verbatim (commit c2222b7) so the
// --- speedup is measured against what this repo actually did before the
// --- incremental-stats rewrite: per-candidate scratch Counts() walks.
namespace scratch {

std::vector<double> Score(const eval::Evaluator& evaluator,
                          const std::vector<std::vector<int>>& slots) {
  std::vector<double> sigmas;
  for (const std::vector<int>& slot : slots) {
    if (!slot.empty()) sigmas.push_back(evaluator.Sigma(slot));
  }
  std::sort(sigmas.begin(), sigmas.end());
  return sigmas;
}

core::SortRefinement ToRefinement(const std::vector<std::vector<int>>& slots) {
  core::SortRefinement refinement;
  for (const std::vector<int>& slot : slots) {
    if (!slot.empty()) refinement.sorts.push_back(slot);
  }
  return refinement;
}

core::SortRefinement GreedyMaxMinSigma(const eval::Evaluator& evaluator, int k,
                                       const core::GreedyOptions& options) {
  const schema::SignatureIndex& index = evaluator.index();
  const int n = static_cast<int>(index.num_signatures());
  Rng rng(options.seed);
  std::vector<std::vector<int>> best_slots;
  std::vector<double> best_score;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<int> shuffled = order;
    if (restart > 0) {
      for (int i = n - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[rng.Below(i + 1)]);
      }
    }
    std::vector<std::vector<int>> slots(k);
    std::vector<schema::PropertySet> slot_support(
        k, schema::PropertySet(index.num_properties()));
    for (int sig : shuffled) {
      const schema::PropertySet& sig_props = index.signature(sig).props();
      std::vector<int> slot_order(k);
      std::iota(slot_order.begin(), slot_order.end(), 0);
      std::vector<std::size_t> overlap(k);
      for (int s = 0; s < k; ++s) {
        overlap[s] = slot_support[s].IntersectCount(sig_props);
      }
      std::stable_sort(slot_order.begin(), slot_order.end(),
                       [&](int a, int b) { return overlap[a] > overlap[b]; });
      int best_slot = -1;
      std::vector<double> best_local;
      bool tried_empty = false;
      for (int s : slot_order) {
        if (slots[s].empty()) {
          if (tried_empty) continue;
          tried_empty = true;
        }
        slots[s].push_back(sig);
        std::vector<double> sc = Score(evaluator, slots);
        slots[s].pop_back();
        if (best_slot < 0 || sc > best_local) {
          best_local = std::move(sc);
          best_slot = s;
        }
      }
      slots[best_slot].push_back(sig);
      slot_support[best_slot].UnionWith(sig_props);
    }

    for (int pass = 0; pass < options.max_passes; ++pass) {
      bool improved = false;
      std::vector<double> current = Score(evaluator, slots);
      for (int s = 0; s < k; ++s) {
        for (std::size_t pos = 0; pos < slots[s].size(); ++pos) {
          const int sig = slots[s][pos];
          bool tried_empty = false;
          for (int d = 0; d < k; ++d) {
            if (d == s) continue;
            if (slots[d].empty()) {
              if (tried_empty) continue;
              tried_empty = true;
            }
            slots[s].erase(slots[s].begin() + pos);
            slots[d].push_back(sig);
            std::vector<double> sc = Score(evaluator, slots);
            if (sc > current) {
              current = std::move(sc);
              improved = true;
              break;
            }
            slots[d].pop_back();
            slots[s].insert(slots[s].begin() + pos, sig);
          }
          if (improved) break;
        }
        if (improved) break;
      }
      if (!improved) break;
    }

    std::vector<double> sc = Score(evaluator, slots);
    if (best_slots.empty() || sc > best_score) {
      best_score = std::move(sc);
      best_slots = slots;
    }
  }
  return ToRefinement(best_slots);
}

core::SortRefinement Agglomerate(
    const eval::Evaluator& evaluator, std::size_t min_sorts,
    const std::function<bool(const eval::SigmaCounts&)>& may_merge) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  std::vector<std::vector<int>> parts(n);
  for (int i = 0; i < n; ++i) parts[i] = {i};

  auto merged_counts = [&](int a, int b) {
    std::vector<int> merged = parts[a];
    merged.insert(merged.end(), parts[b].begin(), parts[b].end());
    return evaluator.Counts(merged);
  };

  while (parts.size() > std::max<std::size_t>(min_sorts, 1)) {
    int best_a = -1, best_b = -1;
    double best_sigma = -1.0;
    bool best_allowed = false;
    for (std::size_t a = 0; a < parts.size(); ++a) {
      for (std::size_t b = a + 1; b < parts.size(); ++b) {
        const eval::SigmaCounts counts =
            merged_counts(static_cast<int>(a), static_cast<int>(b));
        const bool allowed = may_merge(counts);
        const double sigma = counts.Value();
        if ((allowed && !best_allowed) ||
            (allowed == best_allowed && sigma > best_sigma + 1e-15)) {
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
          best_sigma = sigma;
          best_allowed = allowed;
        }
      }
    }
    if (best_a < 0) break;
    if (!best_allowed) break;
    parts[best_a].insert(parts[best_a].end(), parts[best_b].begin(),
                         parts[best_b].end());
    parts.erase(parts.begin() + best_b);
  }

  core::SortRefinement refinement;
  for (auto& part : parts) {
    std::sort(part.begin(), part.end());
    refinement.sorts.push_back(std::move(part));
  }
  return refinement;
}

core::SortRefinement AgglomerativeLowestK(const eval::Evaluator& evaluator,
                                          Rational theta) {
  return Agglomerate(evaluator, 1, [&](const eval::SigmaCounts& counts) {
    return core::SigmaAtLeast(counts, theta);
  });
}

}  // namespace scratch

/// Clustered index: `families` property blocks of `block` columns plus two
/// shared columns; signatures draw ~85% of their family block. Distinct
/// supports, counts uniform in [1, 50].
schema::SignatureIndex MakeClusteredIndex(int n, std::uint64_t seed) {
  constexpr int kFamilies = 8;
  constexpr int kShared = 2;
  // At the 0.85 draw density each block column contributes only ~0.6 bits
  // of support entropy, so a family's draws concentrate on ~2^(0.6*kBlock)
  // typical sets. 12 columns cover the default sizes (<= 4k signatures);
  // widen the blocks for larger n so the distinct-support draw cannot
  // stall (kept at 12 below 4k so the small shapes stay bit-identical).
  int kBlock = 12;
  while (n > 4096 &&
         0.6 * kBlock < std::log2(16.0 * static_cast<double>(n) / kFamilies)) {
    ++kBlock;
  }
  const int num_props = kShared + kFamilies * kBlock;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  int stall = 0;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % kFamilies;
    std::vector<int> support;
    for (int p = 0; p < kShared; ++p) support.push_back(p);
    const int base = kShared + family * kBlock;
    for (int p = 0; p < kBlock; ++p) {
      if (rng.Chance(0.85)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) {
      RDFSR_CHECK_LT(++stall, 1000000) << "cannot draw distinct supports";
      continue;
    }
    sigs.emplace_back(std::move(support), rng.Range(1, 50));
  }
  std::vector<std::string> names;
  for (int p = 0; p < num_props; ++p) {
    names.push_back("http://bench/p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

schema::SignatureIndex MakeRandomIndex(int n, std::uint64_t seed) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = n;
  spec.num_properties = 64;
  spec.density = 0.3;
  spec.seed = seed;
  return gen::GenerateRandomIndex(spec);
}

bool SameRefinement(const core::SortRefinement& a,
                    const core::SortRefinement& b) {
  return a.sorts == b.sorts;
}

struct Measurement {
  double incr_seconds = 0;
  double scratch_seconds = 0;  // 0 = skipped
  std::size_t sorts = 0;
  bool match = true;
  bool scratch_ran = false;
  int threads = 1;             // worker threads of the timed incremental run
  std::size_t peak_rss = 0;    // process high-water RSS after the run
  bool parallel_checked = false;
  bool parallel_match = true;  // serial == parallel refinement
};

void Report(TextTable* table, bool* ok, const std::string& config,
            const std::string& algo, const std::string& rule, int n,
            const Measurement& m) {
  const auto fmt = [](double seconds) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(3) << seconds;
    return out.str();
  };
  std::ostringstream speedup;
  if (m.scratch_ran) {
    speedup << std::fixed << std::setprecision(1)
            << m.scratch_seconds / m.incr_seconds << "x";
  } else {
    speedup << "-";
  }
  table->AddRow({config, algo, rule, std::to_string(n), fmt(m.incr_seconds),
                 m.scratch_ran ? fmt(m.scratch_seconds) : "-", speedup.str(),
                 std::to_string(m.sorts),
                 m.scratch_ran ? (m.match ? "yes" : "MISMATCH") : "-"});
  if (!m.match) {
    std::cerr << "FAIL: incremental and scratch refinements differ for "
              << config << "/" << algo << "/" << rule << " at n = " << n
              << "\n";
    *ok = false;
  }
  if (!m.parallel_match) {
    std::cerr << "FAIL: parallel and serial agglomerative refinements differ "
              << "for " << config << "/" << algo << "/" << rule << " at n = "
              << n << "\n";
    *ok = false;
  }
  std::vector<std::pair<std::string, double>> metrics = {
      {"signatures", static_cast<double>(n)},
      {"sorts", static_cast<double>(m.sorts)},
      {"threads", static_cast<double>(m.threads)},
      {"peak_rss_bytes", static_cast<double>(m.peak_rss)},
  };
  if (m.parallel_checked) {
    // Emitted only when the serial-vs-parallel comparison ran, so a CI
    // assertion on it never passes vacuously.
    metrics.emplace_back("parallel_match", m.parallel_match ? 1.0 : 0.0);
  }
  if (m.scratch_ran) {
    // Emitted only when the scratch comparison actually ran, so a CI
    // assertion on `match` never passes vacuously for skipped configs.
    metrics.emplace_back("match", m.match ? 1.0 : 0.0);
    metrics.emplace_back("scratch_seconds", m.scratch_seconds);
    metrics.emplace_back("speedup_vs_scratch",
                         m.scratch_seconds / m.incr_seconds);
  }
  Json().Record(
      "refine/" + config + "/" + algo + "/" + rule,
      {{"config", config}, {"algo", algo}, {"rule", rule},
       {"signatures", std::to_string(n)}},
      m.incr_seconds, metrics);
}

int Run(const std::vector<int>& sizes, int scratch_max, int threads,
        int parallel_check_max) {
  Banner("Refinement heuristics: incremental SortStats vs scratch evaluation",
         "Sections 6-7 Exists(k, theta) search; Figure 8 runtime shape");

  TextTable table({"config", "algo", "rule", "n", "incr_s", "scratch_s",
                   "speedup", "sorts", "identical"});
  bool ok = true;
  const Rational theta(3, 4);
  const Rational theta_random(9, 10);
  core::GreedyOptions greedy_options;
  greedy_options.restarts = 2;
  greedy_options.max_passes = 3;
  constexpr int kGreedySlots = 8;

  for (int n : sizes) {
    const bool run_scratch = n <= scratch_max;

    // Clustered shape: deep-merge agglomerative regime, cov and sim.
    const schema::SignatureIndex clustered = MakeClusteredIndex(n, 42);
    for (const auto& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &clustered);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::AgglomerativeLowestK(*evaluator, theta, threads);
      m.incr_seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.threads = threads;
      m.peak_rss = PeakRssBytes();
      if (n <= parallel_check_max) {
        const core::SortRefinement serial =
            core::AgglomerativeLowestK(*evaluator, theta, 1);
        const core::SortRefinement parallel =
            threads > 1 ? incr
                        : core::AgglomerativeLowestK(*evaluator, theta, 2);
        m.parallel_checked = true;
        m.parallel_match =
            SameRefinement(serial, parallel) && SameRefinement(serial, incr);
      }
      if (run_scratch) {
        WallTimer scratch_timer;
        const core::SortRefinement base =
            scratch::AgglomerativeLowestK(*evaluator, theta);
        m.scratch_seconds = scratch_timer.Seconds();
        m.scratch_ran = true;
        m.match = SameRefinement(incr, base);
      }
      Report(&table, &ok, "clustered", "agglo", rule.name(), n, m);
    }

    // Random shape: the first-round O(n^2) scan dominates.
    const schema::SignatureIndex random_index = MakeRandomIndex(n, 7);
    {
      auto evaluator = eval::MakeEvaluator(rules::CovRule(), &random_index);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::AgglomerativeLowestK(*evaluator, theta_random, threads);
      m.incr_seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.threads = threads;
      m.peak_rss = PeakRssBytes();
      if (n <= parallel_check_max) {
        const core::SortRefinement serial =
            core::AgglomerativeLowestK(*evaluator, theta_random, 1);
        const core::SortRefinement parallel =
            threads > 1
                ? incr
                : core::AgglomerativeLowestK(*evaluator, theta_random, 2);
        m.parallel_checked = true;
        m.parallel_match =
            SameRefinement(serial, parallel) && SameRefinement(serial, incr);
      }
      if (run_scratch) {
        WallTimer scratch_timer;
        const core::SortRefinement base =
            scratch::AgglomerativeLowestK(*evaluator, theta_random);
        m.scratch_seconds = scratch_timer.Seconds();
        m.scratch_ran = true;
        m.match = SameRefinement(incr, base);
      }
      Report(&table, &ok, "random", "agglo", "Cov", n, m);
    }

    // Greedy + local search on the clustered shape.
    {
      auto evaluator = eval::MakeEvaluator(rules::CovRule(), &clustered);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::GreedyMaxMinSigma(*evaluator, kGreedySlots, greedy_options);
      m.incr_seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.peak_rss = PeakRssBytes();
      if (run_scratch) {
        WallTimer scratch_timer;
        const core::SortRefinement base = scratch::GreedyMaxMinSigma(
            *evaluator, kGreedySlots, greedy_options);
        m.scratch_seconds = scratch_timer.Seconds();
        m.scratch_ran = true;
        m.match = SameRefinement(incr, base);
      }
      Report(&table, &ok, "clustered", "greedy", "Cov", n, m);
    }
  }

  std::cout << table.ToString();
  std::cout << "\nincr = incremental SortStats engines (core/greedy.cc); "
               "scratch = the seed's\n  per-candidate re-evaluation, mirrored "
               "verbatim. identical = refinements agree\n  exactly (the "
               "bit-identical contract; '-' when scratch skipped via "
               "--scratch-max).\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) {
  std::vector<int> sizes;
  int scratch_max = 1000;
  int threads = 1;
  int parallel_check_max = 4000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      rdfsr::bench::Json().Open(argv[++i], "bench_refine");
    } else if (std::strcmp(argv[i], "--signatures") == 0 && i + 1 < argc) {
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) sizes.push_back(std::stoi(item));
    } else if (std::strcmp(argv[i], "--scratch-max") == 0 && i + 1 < argc) {
      scratch_max = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--parallel-check-max") == 0 &&
               i + 1 < argc) {
      parallel_check_max = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--signatures N[,N...]]"
                   " [--scratch-max N] [--threads N]"
                   " [--parallel-check-max N]\n";
      return 2;
    }
  }
  if (sizes.empty()) sizes = {256, 1000};
  return rdfsr::bench::Run(sizes, scratch_max, threads, parallel_check_max);
}
