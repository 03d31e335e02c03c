#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

/// The traced replay: the benchmark's own code re-runs a workload's engine
/// pass one layer call at a time, with a span around each call, and checks
/// that every result equals the untraced engine's report.
namespace perfbench {

/// Work counted at the layer boundaries of one replay.
struct ReplayCounts {
  std::uint64_t schedules = 0;       ///< same unit as EngineRun::schedules
  std::uint64_t evaluate_calls = 0;  ///< sched::evaluate_order calls
  std::uint64_t derive_calls = 0;    ///< sched::Instance::from_grid calls
  std::uint64_t auto_proposals = 0;
  std::uint64_t auto_evaluated = 0;
  std::uint64_t auto_pruned = 0;
  std::uint64_t auto_gated = 0;
  std::uint64_t sim_messages = 0;  ///< from each executed CollectiveResult
  std::uint64_t sim_wan_messages = 0;
  std::uint64_t sim_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t mismatched = 0;  ///< report cells the replay did not match
};

/// Replay the engine pass that produced `reference` (run_engine's reports,
/// same inputs) under `tr`.  Group ids set on the tracer are cluster
/// counts.
[[nodiscard]] ReplayCounts replay(const Inputs& in,
                                  const std::vector<io::BenchReport>& reference,
                                  Tracer& tr);

/// Median seconds per order() call of each ladder entry (the paper's
/// seven, Mixed, ECEF-AvgEdge, ECEF-AvgMove and auto) on one Table 2
/// instance of 10, 50, 100 and 200 clusters, as ("<entry>.n<count>",
/// seconds) in entry-major order.
[[nodiscard]] std::vector<std::pair<std::string, double>> order_ladder(
    std::uint64_t seed);

}  // namespace perfbench
