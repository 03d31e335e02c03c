#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "collective/backend.hpp"
#include "exp/race_cli.hpp"
#include "io/bench_json.hpp"
#include "sched/instance.hpp"
#include "sched/registry.hpp"
#include "support/thread_pool.hpp"
#include "topology/grid.hpp"

/// The benchmark's workloads and the inputs each one generates from its
/// seed.  The library only ever receives these generated instances and
/// grids.
namespace perfbench {

using namespace gridcast;

/// Which engine a workload drives.
enum class Engine : std::uint8_t {
  kRace,   ///< exp::run_race_grid over sampled Table 2 instances
  kSweep,  ///< exp::run_race_sweep over generated grids
};

struct WorkloadDef {
  std::string_view name;
  Engine engine;
  /// kRace: cluster counts, draws per count, and how many draws of each
  /// count's stream (the first ones, so the race's draws when fewer) form
  /// the selection-latency set.
  std::vector<std::size_t> clusters;
  std::uint64_t draws = 0;
  std::uint64_t select_draws = 0;
  /// kSweep: one random_grid per cluster count, raced over `sizes` for
  /// every verb on every backend.
  std::vector<std::uint32_t> grid_clusters;
  std::vector<Bytes> sizes;
};

/// The named workload, or nullptr.
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);

/// The race line-up: the paper's seven, Mixed and auto.
[[nodiscard]] const std::vector<std::string>& competitor_names();

/// One generated grid of a sweep workload and the backends bound to it.
struct GridInputs {
  std::string name;
  topology::Grid grid;
  collective::BackendPtr plogp;
  collective::BackendPtr sim;
};

/// Everything a run needs, built from (workload, seed) before any timing.
struct Inputs {
  const WorkloadDef* def = nullptr;
  std::vector<sched::Scheduler> comps;
  std::size_t auto_index = 0;  ///< position of "auto" in comps

  // kRace
  exp::RaceGridSpec race;

  // kSweep.  Backends reference the grids, so grids never move once built
  // (Inputs lives behind a unique_ptr and `grids` is filled once).
  std::vector<std::unique_ptr<GridInputs>> grids;
  std::vector<exp::RaceSpec> sweeps;  ///< one per (verb, backend)

  /// The selection-latency set and the cluster count of each instance.
  std::vector<sched::Instance> select_set;
  std::vector<std::size_t> select_group;
};

[[nodiscard]] std::unique_ptr<Inputs> make_inputs(const WorkloadDef& def,
                                                  std::uint64_t seed);

/// One untraced pass of the workload's engine.
struct EngineRun {
  std::vector<io::BenchReport> reports;
  std::string json;               ///< every report, bench_to_json'd
  std::uint64_t schedules = 0;    ///< (instance x competitor) cells timed
};

[[nodiscard]] EngineRun run_engine(const Inputs& in, ThreadPool& pool);

}  // namespace perfbench
