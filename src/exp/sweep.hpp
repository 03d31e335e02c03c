#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collective/backend.hpp"
#include "exp/instance_cache.hpp"
#include "io/bench_json.hpp"
#include "sched/registry.hpp"
#include "support/thread_pool.hpp"

/// Message-size sweeps over a concrete grid (Figs. 5 and 6).
///
/// One engine — `backend_sweep` — races any competitor list over a size
/// ladder through a `collective::Backend`.  The backend decides what a
/// completion *is*: the "plogp" backend times the schedule analytically
/// (the Fig. 5 curves), the "sim" backend executes every point-to-point
/// message on the discrete-event simulator (the Fig. 6 substitute,
/// DESIGN.md substitution table) and contributes the grid-unaware binomial
/// baseline the paper labels "Default LAM".  `run_race_sweep` wraps it for
/// `gridcast_race`: registry names in, an `io::BenchReport` out.
namespace gridcast::exp {

/// One strategy's series over the sweep sizes.
struct SweepSeries {
  std::string name;
  std::vector<Time> completion;  ///< seconds, aligned with the size ladder
};

struct SweepResult {
  std::vector<Bytes> sizes;
  std::vector<SweepSeries> series;
  /// Competitors whose `can_schedule` refused one of the sweep's instances
  /// (grid-shape-specialised entries on the wrong grid shape): skipped
  /// rather than raced, so they have no series.
  std::vector<std::string> skipped;
};

/// The paper's Fig. 5/6 x-axis: 256 KiB steps from 256 KiB to 4 MiB
/// (16 points).
[[nodiscard]] std::vector<Bytes> default_size_ladder();

/// Deterministic simulation seed for one sweep cell, mixed from the sweep
/// seed, the *size index* and the *series name* (FNV-1a) — never from the
/// competitor count, so adding a competitor cannot reseed the series that
/// were already there.  Deterministic backends ignore it.
[[nodiscard]] std::uint64_t measured_cell_seed(std::uint64_t seed,
                                               std::size_t size_index,
                                               std::string_view series_name);

/// Race `comps` over `sizes` through `backend`: completion per (size,
/// series) cell, preceded by the backend's baseline comparator series when
/// it has one (broadcast sweeps only — the comparator is a broadcast).
/// `verb` selects the collective raced per cell: broadcast (the default,
/// sizes are message sizes), scatter (sizes are per-rank blocks, rooted at
/// `root`) or all-to-all (sizes are per-rank-pair blocks; `root` is
/// unused).  A backend that does not support the verb is a one-line
/// InvalidInput.  Cells are dispatched across `pool` (results are
/// identical for any worker count); instances are derived once per size
/// through `cache` (whose grid must be the one `backend` executes on);
/// per-cell seeds derive from `seed` via `measured_cell_seed`.
/// Competitors whose `can_schedule` refuses any of the sweep's instances
/// (every root's instance, for all-to-all) are skipped rather than raced
/// (reported in `SweepResult::skipped`); when every competitor is skipped
/// the sweep throws InvalidInput.
[[nodiscard]] SweepResult backend_sweep(
    const collective::Backend& backend, InstanceCache& cache, ClusterId root,
    const std::vector<sched::Scheduler>& comps, std::span<const Bytes> sizes,
    std::uint64_t seed, ThreadPool& pool,
    collective::Verb verb = collective::Verb::kBcast);

/// What `run_race_sweep` races.  `sched_names` are scheduler-registry
/// names (canonical or alias); empty `sizes` means `default_size_ladder()`;
/// `backend` is a backend-registry name ("plogp"/"sim", or the legacy
/// "predicted"/"measured" aliases).
struct RaceSpec {
  std::vector<std::string> sched_names;
  std::vector<Bytes> sizes;
  ClusterId root = 0;
  std::string backend = "plogp";
  /// Which collective the sweep races (`--verb`): broadcast by default,
  /// scatter (sizes = per-rank blocks) or all-to-all (sizes = per-rank-
  /// pair blocks).  A backend that does not support the verb fails with a
  /// one-line diagnostic.
  collective::Verb verb = collective::Verb::kBcast;
  sched::CompletionModel completion = sched::CompletionModel::kEager;
  double jitter = 0.05;     ///< sim backend only
  std::uint64_t seed = 1;   ///< non-deterministic backends only
  /// Lower-bound pruning in composite selectors ("auto"); `--no-prune`
  /// clears it.  A pure optimisation: winners and reports are
  /// byte-identical either way (tests and CI pin exactly that).
  bool prune = true;
};

/// Resolve registry names into Scheduler handles; an unknown name throws
/// InvalidInput listing every registered scheduler, and so does a name
/// selected twice (also via an alias).
[[nodiscard]] std::vector<sched::Scheduler> resolve_competitors(
    const std::vector<std::string>& names, sched::HeuristicOptions opts);

/// Race `spec` over the cache's grid through the backend `spec.backend`
/// names, as a `bench == "race"` report.  `grid_name` is recorded in the
/// report so baseline comparisons can refuse mismatched inputs.
/// Schedulers gated out by `can_schedule` get no series; their names are
/// appended to `skipped` when given.
[[nodiscard]] io::BenchReport run_race_sweep(
    InstanceCache& cache, const std::string& grid_name, const RaceSpec& spec,
    ThreadPool& pool, std::vector<std::string>* skipped = nullptr);

}  // namespace gridcast::exp
