#pragma once

#include <vector>

#include "collective/bcast.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// Multi-level broadcast after Karonis et al. (MPICH-G2), paper Section 2.
///
/// The related-work baseline between MagPIe's two levels and the paper's
/// scheduled approach: clusters are grouped into *sites* (level 0 = WAN
/// between sites, level 1 = LAN between clusters of one site, level 2 =
/// inside a cluster).  The root's coordinator flat-trees to one gateway
/// coordinator per remote site; each gateway flat-trees to the other
/// coordinators of its site; every coordinator then runs its cluster's
/// local broadcast (`Cluster::algorithm()`).  Communication *overlaps
/// across levels* — a site can fan out internally while the root is still
/// contacting other sites — which is the property Karonis exploited; but
/// each level still uses a flat tree, which is the weakness the paper's
/// heuristics remove.
namespace gridcast::collective {

/// Assignment of each cluster to a site (site ids need not be dense).
using SiteMap = std::vector<std::uint32_t>;

/// Derive a site map by grouping clusters whose mutual latency is below
/// `site_threshold` with the reference cluster of each site (greedy).
[[nodiscard]] SiteMap sites_by_latency(const topology::Grid& grid,
                                       Time site_threshold = ms(2.0));

/// Execute the multi-level broadcast on the simulator.
[[nodiscard]] CollectiveResult run_multilevel_bcast(sim::Network& net,
                                                    ClusterId root_cluster,
                                                    const SiteMap& sites,
                                                    Bytes m);

}  // namespace gridcast::collective
