#pragma once

#include <vector>

#include "collective/result.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler_entry.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// Executable broadcast algorithms (message-level, on the simulator).
///
/// These run the *actual* communication pattern — every point-to-point
/// message is simulated — and therefore "measure" completion the way the
/// paper's Section 7 measured its 88-machine runs.  The analytic
/// predictors in plogp/collective_predict.hpp are the Fig. 5 counterpart.
namespace gridcast::collective {

/// The four intra-cluster algorithms over an explicit rank list (ranks[0]
/// is the root).  Each matches its plogp::predict_*_bcast closed form;
/// `delivered` is indexed by global rank, like every executor's.

/// Binomial tree, the MPI default: the child handles floor(n/2) ranks,
/// the holder keeps the rest and keeps injecting.
[[nodiscard]] CollectiveResult run_binomial_bcast(
    sim::Network& net, const std::vector<NodeId>& ranks, Bytes m);

/// Flat tree: the root sends to each rank in order.
[[nodiscard]] CollectiveResult run_flat_bcast(
    sim::Network& net, const std::vector<NodeId>& ranks, Bytes m);

/// Chain: rank i forwards to rank i+1.
[[nodiscard]] CollectiveResult run_chain_bcast(
    sim::Network& net, const std::vector<NodeId>& ranks, Bytes m);

/// Segmented (pipelined) chain: `segment`-byte pieces, each forwarded as
/// soon as it arrives.
[[nodiscard]] CollectiveResult run_segmented_chain_bcast(
    sim::Network& net, const std::vector<NodeId>& ranks, Bytes m,
    Bytes segment);

/// Coordinator NIC policy for the two-level broadcast (DESIGN.md §4.4).
enum class IntraOrder : std::uint8_t {
  /// Relay to other clusters first, local broadcast after the last
  /// injection — MagPIe semantics and the paper's cost model.
  kRelayFirst,
  /// Start the local broadcast before relaying (ablation: improves the
  /// local cluster, delays everyone downstream).
  kLocalFirst,
};

/// The paper's grid broadcast: coordinators relay the message between
/// clusters following `order` (a heuristic's SendOrder), then each cluster
/// runs its local broadcast with the algorithm it names
/// (`Cluster::algorithm()`, the one its T_c predicts); `intra_order`
/// decides whether the coordinator's NIC serves the relays or the local
/// tree first.  Returns delivery times for **all** grid ranks.
[[nodiscard]] CollectiveResult run_hierarchical_bcast(
    sim::Network& net, ClusterId root_cluster, const sched::SendOrder& order,
    Bytes m, IntraOrder intra_order = IntraOrder::kRelayFirst);

/// Scheduler-driven form: derives the instance the grid poses for an
/// m-byte broadcast, asks `sched` for the order (after `can_schedule`),
/// and executes it.  This is the one-call path from a registry entry
/// (`registry().make("ECEF-LAT")`) to a measured completion time.
[[nodiscard]] CollectiveResult run_hierarchical_bcast(
    sim::Network& net, ClusterId root_cluster,
    const sched::SchedulerEntry& sched, Bytes m,
    IntraOrder intra_order = IntraOrder::kRelayFirst);

/// As above, but with a caller-supplied runtime info (root cluster and
/// message size come from it).  Sweep harnesses derive one instance per
/// message size through `exp::InstanceCache` and race every competitor
/// over it, instead of paying the O(clusters²) derivation per cell.
[[nodiscard]] CollectiveResult run_hierarchical_bcast(
    sim::Network& net, const sched::SchedulerEntry& sched,
    const sched::SchedulerRuntimeInfo& info,
    IntraOrder intra_order = IntraOrder::kRelayFirst);

/// The "Default LAM" comparator of Fig. 6: a grid-unaware binomial tree
/// over all ranks in global rank order, rooted at `root_cluster`'s
/// coordinator.
[[nodiscard]] CollectiveResult run_grid_unaware_binomial(
    sim::Network& net, ClusterId root_cluster, Bytes m);

}  // namespace gridcast::collective
