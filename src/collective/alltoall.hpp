#pragma once

#include <vector>

#include "collective/result.hpp"
#include "sched/scheduler_entry.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// All-to-all: the second "future work" pattern.
///
/// Every rank owes a distinct `block` of bytes to every other rank.  The
/// naive personalized exchange sends all N·(N−1) blocks point-to-point —
/// each WAN link carries size_a · size_b separate small messages.  The
/// grid-aware variant routes cross-cluster traffic through coordinators:
///   1. gather: each rank ships its remote-bound blocks to its coordinator
///      (one local message per rank),
///   2. exchange: coordinator c sends coordinator d one aggregate of
///      size_c · size_d blocks (one WAN message per cluster pair),
///   3. deliver: coordinator d forwards to each local rank the blocks
///      addressed to it (one local message per rank per source cluster).
/// Intra-cluster pairs always exchange directly.
namespace gridcast::collective {

/// Direct personalized exchange; rank r issues sends to r+1, r+2, ...
/// (rotated start to avoid hammering rank 0 first — the classic
/// round-robin schedule).  `delivered[r]` is when rank r's last inbound
/// block arrived.
[[nodiscard]] CollectiveResult run_naive_alltoall(sim::Network& net,
                                                  Bytes block);

/// Coordinator-routed exchange (see header comment).
[[nodiscard]] CollectiveResult run_hierarchical_alltoall(sim::Network& net,
                                                         Bytes block);

/// Scheduler-driven form: each coordinator sequences its outgoing
/// aggregates by the order `sched` would reach the other clusters in a
/// broadcast rooted at itself (slow links first / last per the entry's
/// policy), instead of ascending cluster id.
[[nodiscard]] CollectiveResult run_hierarchical_alltoall(
    sim::Network& net, Bytes block, const sched::SchedulerEntry& sched);

/// The per-coordinator aggregate injection sequences `sched` implies:
/// `result[c]` is the receiver appearance order of a broadcast rooted at
/// cluster c (empty sequences for grids with fewer than two clusters).
/// Shared by the executing backend (run_hierarchical_alltoall) and the
/// analytic predictor (plogp::predict_hierarchical_alltoall).  Throws
/// LogicError when `sched` cannot schedule one of the instances.
[[nodiscard]] std::vector<std::vector<ClusterId>> alltoall_dest_order(
    const topology::Grid& grid, Bytes block,
    const sched::SchedulerEntry& sched);

}  // namespace gridcast::collective
