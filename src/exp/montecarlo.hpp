#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/param_ranges.hpp"
#include "exp/sweep.hpp"
#include "io/bench_json.hpp"
#include "sched/registry.hpp"
#include "support/thread_pool.hpp"

/// The Monte-Carlo heuristic race behind Figs. 1–4 — gridcast's one race
/// engine, also behind `gridcast_race --race` and the bench binaries.
///
/// Per cluster count (a *parameter point*): draw `iterations` Table 2
/// instances, race every competitor on each draw through a collective
/// backend, and report the mean completion plus the hit counts — the
/// draws where a series matched the global minimum.  Ties credit every
/// achiever, which is why Fig. 4's counts sum to more than the iteration
/// count (semantics pinned by tests/exp/test_montecarlo.cpp).
///
/// Determinism: a draw's RNG stream derives from (seed, cluster count,
/// iteration) only, and means fold per-block sums in block order, so any
/// thread count or competitor superset reproduces a series' numbers bit
/// for bit.
namespace gridcast::exp {

/// What to race.  Instance-only backends ("plogp") time the sampled
/// instances directly — the paper's configuration.  Grid-executing
/// backends ("sim") need `realise = true`: each draw is realised as a
/// synthetic grid (exp/realise.hpp) and the collective is executed
/// message-level on it.  Without the flag such a backend is a designed
/// error — the `instance_only()` mismatch — because executing a draw is a
/// different experiment than scoring it, and the switch should be
/// explicit.
struct RaceGridSpec {
  std::vector<std::string> sched_names;
  /// Parameter points; empty = `fig1_cluster_ladder()`.  Each >= 2, no
  /// duplicates (they would make the baseline gate ambiguous).
  std::vector<std::size_t> cluster_counts;
  std::uint64_t iterations = 1000;
  /// Iterations per cell.  The (point x block) partition is the unit of
  /// parallel work *and* of mean accumulation — per-block sums fold in
  /// block order, so any thread count reproduces the report byte for
  /// byte.
  std::uint64_t block_iters = 256;
  std::uint64_t seed = 42;
  ClusterId root = 0;
  std::string backend = "plogp";
  sched::CompletionModel completion = sched::CompletionModel::kEager;
  double jitter = 0.05;  ///< executing backends only
  bool realise = false;  ///< execute draws on synthetic grid realisations
  ParamRanges ranges = ParamRanges::paper();
  /// Relative tie tolerance for hit counting.
  double hit_epsilon = 1e-9;
  /// Lower-bound pruning in composite selectors, as in RaceSpec::prune.
  bool prune = true;
};

/// The paper's cluster-count ladders: Fig. 1 races 2-10 clusters, Figs.
/// 2-4 race 5-50 in steps of 5.
[[nodiscard]] std::vector<std::size_t> fig1_cluster_ladder();
[[nodiscard]] std::vector<std::size_t> fig2_cluster_ladder();

/// Iteration blocks per parameter point, ceil(iterations / block_iters)
/// computed without overflow.  Throws InvalidInput when the race's
/// (point x block) grid over `points` points would exceed one million
/// cells: the race holds a partial per cell and series, so the cap bounds
/// its memory.  Requires block_iters >= 1.
[[nodiscard]] std::size_t race_block_count(std::size_t points,
                                           std::uint64_t iterations,
                                           std::uint64_t block_iters);

/// Deterministic RNG stream id for one parameter point's instance draws.
/// Mixed from the race seed and the *cluster count* only — never from the
/// competitor set, the point's position in the ladder, or the thread
/// count — so draws are invariant under competitor growth and ladder
/// reshuffling.
[[nodiscard]] std::uint64_t race_instance_seed(std::uint64_t seed,
                                               std::size_t clusters);

/// Deterministic backend seed for one (point, iteration, series) execution
/// — FNV-1a over the series name, so adding a competitor cannot reseed the
/// series that were already there.  Deterministic backends ignore it.
[[nodiscard]] std::uint64_t race_exec_seed(std::uint64_t seed,
                                           std::size_t clusters,
                                           std::uint64_t iteration,
                                           std::string_view series_name);

/// Run the race.  Series are the resolved competitors in order, then the
/// synthetic "GlobalMin" row (mean of the per-iteration minima, Figs. 1-2's
/// bottom curve; it has no hit counts).  Throws InvalidInput for unknown
/// or repeated schedulers, a `can_schedule` refusal (a race cannot skip
/// entries without skewing the hit denominator), an instance-only mismatch
/// (see `RaceGridSpec::realise`), or a backend without broadcast support.
[[nodiscard]] io::BenchReport run_race_grid(const RaceGridSpec& spec,
                                            ThreadPool& pool);

/// As above over already-resolved competitors, for line-ups the registry
/// names cannot express: per-entry `HeuristicOptions` (an ablation racing
/// FEF under two edge weights) or a repeated entry (twins that must tie).
/// `spec.sched_names`, `spec.completion` and `spec.prune` are ignored —
/// each competitor carries its own options — and repeated names are
/// allowed, so such a report may not gate unambiguously.
[[nodiscard]] io::BenchReport run_race_grid(
    const std::vector<sched::Scheduler>& comps, const RaceGridSpec& spec,
    ThreadPool& pool);

}  // namespace gridcast::exp
