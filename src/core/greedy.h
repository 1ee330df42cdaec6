// Greedy + local-search heuristic for sort refinement.
//
// Commercial MIP solvers find feasible points fast via primal heuristics and
// spend their time on proofs; the paper's CPLEX runs show the same shape
// (800 ms feasible vs hours for infeasible). This backend plays the primal-
// heuristic role for our homegrown solver: multi-restart randomized greedy
// assignment of signatures to k sorts followed by single-move local search
// maximizing the minimum sigma. It can only certify existence (a validated
// refinement), never non-existence — the exact MIP remains the decision
// procedure.
//
// Both heuristics evaluate candidate sorts through the incremental SortStats
// subsystem (eval/sort_stats.h): per-slot / per-part aggregates are mutated
// in place and sigma extracted in closed form, instead of re-walking member
// signatures per probe. Greedy trial placements drop from O(k * |sort| * |P|)
// to O(|supp| + k log k) each; an agglomerative merge round drops from
// O(n^2 * |sort| * |P|) to O(n log n + n * |P|/64) via a lazy best-pair
// priority queue (bench/bench_refine.cc measures both against the scratch
// baselines). Outputs are bit-identical to scratch evaluation: the stats
// carry the same exact integer counts as Evaluator::Counts over the members.

#ifndef RDFSR_CORE_GREEDY_H_
#define RDFSR_CORE_GREEDY_H_

#include <cstdint>

#include "core/refinement.h"
#include "eval/evaluator.h"
#include "util/deadline.h"
#include "util/rational.h"

namespace rdfsr::core {

/// Heuristic knobs.
struct GreedyOptions {
  int restarts = 6;
  int max_passes = 40;      ///< Local-search sweeps per restart.
  std::uint64_t seed = 17;  ///< Deterministic PRNG stream.
  /// Cooperative cancellation: polled between restarts / passes and
  /// periodically inside the construction loop. A tripped token still yields
  /// a valid partition (remaining signatures fall into the first slot) — the
  /// result is just a worse heuristic, never an invalid one.
  util::CancellationToken cancel;
};

/// Best-effort partition into at most k sorts maximizing min-sigma. Always
/// returns a valid partition (all signatures covered); the min sigma may be
/// below any particular threshold.
SortRefinement GreedyMaxMinSigma(const eval::Evaluator& evaluator, int k,
                                 const GreedyOptions& options = {});

/// Bottom-up merge heuristic for the lowest-k problem: start with every
/// signature set in its own implicit sort (for the builtin rule families a
/// single-signature sort has sigma = 1) and repeatedly merge the pair of
/// sorts whose merged sigma is highest, as long as that merged sigma still
/// meets theta (checked exactly). Stops when no pair can merge — the number
/// of remaining sorts is a greedy upper bound on the lowest k. Deterministic.
///
/// `threads` parallelizes the best-pair row recomputation (values < 1 mean
/// one thread per hardware thread). The merge sequence — and therefore the
/// returned refinement — is bit-identical for every thread count: candidate
/// pairs are totally ordered (exact sigma comparison, then pair index), so
/// the per-row best and the popped merge are unique regardless of the order
/// worker threads discover them. Parallelism engages only when the evaluator
/// reports cheap_stats() (pure closed-form extraction, no shared memo) and
/// the instance is large enough to pay for the fan-out.
///
/// `cancel` is polled once per merge round (and per row during the initial
/// build): a tripped token stops merging early, returning the valid partial
/// partition reached so far — more sorts than the uncancelled run, never an
/// invalid partition.
SortRefinement AgglomerativeLowestK(const eval::Evaluator& evaluator,
                                    Rational theta, int threads = 1,
                                    const util::CancellationToken& cancel = {});

/// Merge variant for fixed k: merge best pairs unconditionally until at most
/// `k` sorts remain (a hierarchical-clustering seed for Exists/highest-theta;
/// callers validate against their threshold). `threads` and `cancel` as in
/// AgglomerativeLowestK (a cancelled run may stop above k sorts).
SortRefinement AgglomerativeFixedK(const eval::Evaluator& evaluator, int k,
                                   int threads = 1,
                                   const util::CancellationToken& cancel = {});

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_GREEDY_H_
