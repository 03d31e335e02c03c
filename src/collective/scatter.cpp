#include "collective/scatter.hpp"

#include <algorithm>

#include "collective/execution.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

using detail::Execution;

CollectiveResult run_naive_scatter(sim::Network& net, ClusterId root_cluster,
                                   Bytes block) {
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  Execution ex(net);
  const NodeId root = grid.global_rank(root_cluster, 0);
  ex.record(root, net.engine().now());
  for (NodeId r = 0; r < net.ranks(); ++r) {
    if (r == root) continue;
    net.send(root, r, block, [&ex, r](Time t) { ex.record(r, t); });
  }
  return ex.finish();
}

namespace {

/// Shared body of the two-level scatter: `remote` fixes the root's WAN
/// injection sequence.
CollectiveResult hierarchical_scatter_over(
    sim::Network& net, ClusterId root_cluster, Bytes block,
    const std::vector<ClusterId>& remote) {
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  Execution ex(net);
  const NodeId root = grid.global_rank(root_cluster, 0);
  ex.record(root, net.engine().now());

  for (const ClusterId c : remote) {
    const NodeId coord = grid.global_rank(c, 0);
    const std::uint32_t size = grid.cluster(c).size();
    const Bytes aggregate = static_cast<Bytes>(size) * block;
    net.send(root, coord, aggregate, [&ex, c, coord, block, size](Time t) {
      ex.record(coord, t);
      for (NodeId l = 1; l < size; ++l) {
        const NodeId dst = ex.net.grid().global_rank(c, l);
        ex.net.send(coord, dst, block,
                    [&ex, dst](Time tt) { ex.record(dst, tt); });
      }
    });
  }
  // Local cluster: direct sends.
  const std::uint32_t root_size = grid.cluster(root_cluster).size();
  for (NodeId l = 1; l < root_size; ++l) {
    const NodeId dst = grid.global_rank(root_cluster, l);
    net.send(root, dst, block, [&ex, dst](Time t) { ex.record(dst, t); });
  }
  return ex.finish();
}

}  // namespace

CollectiveResult run_hierarchical_scatter(sim::Network& net,
                                          ClusterId root_cluster, Bytes block) {
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  // Remote clusters first (they cross the WAN; start them earliest),
  // largest aggregate first so the big transfers overlap the local work.
  std::vector<ClusterId> remote;
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    if (c != root_cluster) remote.push_back(c);
  std::sort(remote.begin(), remote.end(), [&](ClusterId a, ClusterId b) {
    return grid.cluster(a).size() > grid.cluster(b).size();
  });
  return hierarchical_scatter_over(net, root_cluster, block, remote);
}

std::vector<ClusterId> scatter_wan_order(const topology::Grid& grid,
                                         ClusterId root_cluster, Bytes block,
                                         const sched::SchedulerEntry& sched) {
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  const sched::Instance inst =
      sched::Instance::from_grid(grid, root_cluster, block);
  const sched::SchedulerRuntimeInfo info(inst, block);
  GRIDCAST_ASSERT(sched.can_schedule(info),
                  "scheduler cannot handle this instance");
  // Each non-root cluster appears exactly once as a receiver in a valid
  // SendOrder; that appearance sequence becomes the injection sequence.
  std::vector<ClusterId> remote;
  remote.reserve(grid.cluster_count() - 1);
  for (const auto& [s, r] : sched.order(info)) remote.push_back(r);
  return remote;
}

CollectiveResult run_hierarchical_scatter(sim::Network& net,
                                          ClusterId root_cluster, Bytes block,
                                          const sched::SchedulerEntry& sched) {
  return hierarchical_scatter_over(
      net, root_cluster, block,
      scatter_wan_order(net.grid(), root_cluster, block, sched));
}

}  // namespace gridcast::collective
