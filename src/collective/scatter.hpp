#pragma once

#include <vector>

#include "collective/result.hpp"
#include "sched/scheduler_entry.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// Scatter: the paper's "future work" pattern, grid-aware vs naive.
///
/// In a scatter, the root holds one distinct `block` of bytes per rank.
/// The naive algorithm sends every block point-to-point from the root; the
/// grid-aware algorithm forwards each remote cluster's blocks to its
/// coordinator as one aggregated message (one WAN crossing per cluster)
/// and lets the coordinator distribute locally — the same inter/intra
/// split the broadcast heuristics exploit.
namespace gridcast::collective {

/// Root coordinator of `root_cluster` sends each rank its block directly.
[[nodiscard]] CollectiveResult run_naive_scatter(sim::Network& net,
                                                 ClusterId root_cluster,
                                                 Bytes block);

/// Aggregated two-level scatter (see header comment).  Remote clusters
/// receive `size * block` bytes at the coordinator, then distribute.
[[nodiscard]] CollectiveResult run_hierarchical_scatter(
    sim::Network& net, ClusterId root_cluster, Bytes block);

/// Scheduler-driven form: the root's WAN injections are sequenced by when
/// each cluster is reached in `sched`'s broadcast order, so the scatter
/// reuses the same grid knowledge the broadcast heuristics encode (urgent
/// clusters first) instead of the size-sorted default above.
[[nodiscard]] CollectiveResult run_hierarchical_scatter(
    sim::Network& net, ClusterId root_cluster, Bytes block,
    const sched::SchedulerEntry& sched);

/// The WAN injection sequence `sched` implies for a scatter from
/// `root_cluster`: the receiver appearance order of its broadcast schedule
/// over the instance the grid poses at `block` bytes.  Shared by the
/// executing backend (run_hierarchical_scatter) and the analytic predictor
/// (plogp::predict_hierarchical_scatter), so both sequence the identical
/// schedule.  Throws LogicError when `sched` cannot schedule the instance.
[[nodiscard]] std::vector<ClusterId> scatter_wan_order(
    const topology::Grid& grid, ClusterId root_cluster, Bytes block,
    const sched::SchedulerEntry& sched);

}  // namespace gridcast::collective
