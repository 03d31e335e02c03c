#include "collective/multilevel.hpp"

#include "collective/execution.hpp"
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

CollectiveResult run_multilevel_bcast(sim::Network& net,
                                      ClusterId root_cluster,
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

  // Level 1: a gateway flat-trees to its site's other coordinators, then
  // broadcasts locally (level 2, the cluster's own algorithm); plain
  // coordinators go straight to level 2.
  struct Levels {
    detail::Execution& ex;
    const SiteMap& sites;
    const std::vector<ClusterId>& gateway_of_site;
    const std::vector<std::vector<ClusterId>>& clusters_of_site;
    Bytes m;

    void receive(ClusterId c, Time t) {
      const auto& grid = ex.net.grid();
      const NodeId me = grid.global_rank(c, 0);
      ex.record(me, t);
      if (gateway_of_site[sites[c]] == c) {
        for (const ClusterId d : clusters_of_site[sites[c]]) {
          if (d == c) continue;
          ex.net.send(me, grid.global_rank(d, 0), m,
                      [this, d](Time tt) { receive(d, tt); });
        }
      }
      detail::local_tree_issue(ex, c, m);
    }
  };

  detail::Execution ex(net);
  Levels levels{ex, sites, gateway_of_site, clusters_of_site, m};

  // Level 0: the root flat-trees to every remote site's gateway.
  const NodeId root_rank = grid.global_rank(root_cluster, 0);
  for (std::uint32_t s = 0; s < gateway_of_site.size(); ++s) {
    if (gateway_of_site[s] == kNoCluster || s == sites[root_cluster])
      continue;
    const ClusterId gw = gateway_of_site[s];
    net.send(root_rank, grid.global_rank(gw, 0), m,
             [&levels, gw](Time t) { levels.receive(gw, t); });
  }
  // The root is its own site's gateway: serve its site and its cluster.
  levels.receive(root_cluster, net.engine().now());
  return ex.finish();
}

}  // namespace gridcast::collective
