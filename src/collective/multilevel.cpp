#include "collective/multilevel.hpp"

#include <functional>
#include <memory>

#include "collective/bcast_internal.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

SiteMap sites_by_latency(const topology::Grid& grid, Time site_threshold) {
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  SiteMap site(n, UINT32_MAX);
  std::uint32_t next_site = 0;
  for (ClusterId c = 0; c < n; ++c) {
    if (site[c] != UINT32_MAX) continue;
    site[c] = next_site;
    for (ClusterId d = static_cast<ClusterId>(c + 1); d < n; ++d) {
      if (site[d] != UINT32_MAX) continue;
      if (grid.link(c, d).L < site_threshold) site[d] = next_site;
    }
    ++next_site;
  }
  return site;
}

BcastResult run_multilevel_bcast(sim::Network& net, ClusterId root_cluster,
                                 const SiteMap& sites, Bytes m) {
  const auto& grid = net.grid();
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  GRIDCAST_ASSERT(root_cluster < n, "root cluster out of range");
  GRIDCAST_ASSERT(sites.size() == n, "site map size mismatch");

  // Gateways: the lowest-id cluster of each site, except the root's site
  // whose gateway is the root itself.
  std::vector<ClusterId> gateway_of_site;
  std::vector<std::vector<ClusterId>> clusters_of_site;
  for (ClusterId c = 0; c < n; ++c) {
    const std::uint32_t s = sites[c];
    if (s >= clusters_of_site.size()) {
      clusters_of_site.resize(s + 1);
      gateway_of_site.resize(s + 1, kNoCluster);
    }
    clusters_of_site[s].push_back(c);
    if (gateway_of_site[s] == kNoCluster) gateway_of_site[s] = c;
  }
  gateway_of_site[sites[root_cluster]] = root_cluster;

  const auto st = detail::make_state(net, net.ranks());

  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };

  // Level 2: local binomial once a coordinator holds the payload.
  const auto local_tree = [&net, &grid, st, m](ClusterId c) {
    const std::uint32_t size = grid.cluster(c).size();
    if (size <= 1) return;
    std::vector<NodeId> local;
    local.reserve(size);
    for (NodeId l = 0; l < size; ++l) local.push_back(grid.global_rank(c, l));
    detail::binomial_issue_global(net, std::move(local), m, st);
  };

  // Level 1: a gateway flat-trees to its site's other coordinators, then
  // broadcasts locally; plain coordinators go straight to level 2.
  const auto on_coordinator =
      std::make_shared<std::function<void(ClusterId, Time)>>();
  *on_coordinator = [&net, st, coord, &clusters_of_site, &sites,
                     gateway_of_site, local_tree, on_coordinator,
                     m](ClusterId c, Time t) {
    const NodeId me = coord(c);
    st->delivered[me] = t;
    if (gateway_of_site[sites[c]] == c) {
      for (const ClusterId d : clusters_of_site[sites[c]]) {
        if (d == c) continue;
        net.send(me, coord(d), m, [on_coordinator, d](Time tt) {
          (*on_coordinator)(d, tt);
        });
      }
    }
    local_tree(c);
  };

  // Level 0: the root flat-trees to every remote site's gateway.
  const NodeId root_rank = coord(root_cluster);
  st->delivered[root_rank] = net.engine().now();
  for (std::uint32_t s = 0; s < gateway_of_site.size(); ++s) {
    if (gateway_of_site[s] == kNoCluster || s == sites[root_cluster])
      continue;
    const ClusterId gw = gateway_of_site[s];
    net.send(root_rank, coord(gw), m,
             [on_coordinator, gw](Time t) { (*on_coordinator)(gw, t); });
  }
  // The root is its own site's gateway: serve its site and its cluster.
  (*on_coordinator)(root_cluster, net.engine().now());

  BcastResult r = detail::collect(net, st);
  // The handler owns `on_coordinator`: break the cycle.
  *on_coordinator = nullptr;
  return r;
}

}  // namespace gridcast::collective
