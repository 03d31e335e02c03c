#include "collective/bcast.hpp"

#include <algorithm>

#include "collective/execution.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

using detail::Execution;
using detail::Ranks;

namespace {

/// Binomial issue over ranks[lo, hi); ranks[lo] holds the payload *now*
/// (the engine's current time).  Matches the analytic predictor's split:
/// the child handles floor(n/2) ranks, the holder keeps the rest and keeps
/// injecting.
void binomial_issue(Execution& ex, const Ranks& ranks, std::uint32_t lo,
                    std::uint32_t hi, Bytes m) {
  const std::uint32_t n = hi - lo;
  if (n <= 1) return;
  const std::uint32_t mid = lo + (n - n / 2);
  ex.net.send(ranks[lo], ranks[mid], m, [&ex, ranks, mid, hi, m](Time t) {
    ex.record(ranks[mid], t);
    binomial_issue(ex, ranks, mid, hi, m);
  });
  binomial_issue(ex, ranks, lo, mid, m);
}

void flat_issue(Execution& ex, const Ranks& ranks, Bytes m) {
  for (std::uint32_t i = 1; i < ranks.size; ++i) {
    const NodeId dst = ranks[i];
    ex.net.send(ranks[0], dst, m, [&ex, dst](Time t) { ex.record(dst, t); });
  }
}

/// ranks[i] received a `piece`-byte piece at `t`: record it and pass it on.
void chain_forward(Execution& ex, const Ranks& ranks, std::uint32_t i,
                   Bytes piece, Time t) {
  ex.record(ranks[i], t);
  if (i + 1 < ranks.size)
    ex.net.send(ranks[i], ranks[i + 1], piece,
                [&ex, ranks, i, piece](Time tt) {
                  chain_forward(ex, ranks, i + 1, piece, tt);
                });
}

/// Chain over `ranks`, the payload cut into `segment`-byte pieces (the
/// last one shorter) that the root streams back to back; a `segment` of
/// at least m sends the payload whole (the unsegmented chain).
void chain_issue(Execution& ex, const Ranks& ranks, Bytes m, Bytes segment) {
  GRIDCAST_ASSERT(segment > 0 || m == 0, "segment size must be positive");
  if (ranks.size <= 1) return;
  Bytes sent = 0;
  do {
    const Bytes piece = std::min(segment, m - sent);
    ex.net.send(ranks[0], ranks[1], piece, [&ex, ranks, piece](Time t) {
      chain_forward(ex, ranks, 1, piece, t);
    });
    sent += piece;
  } while (sent < m);
}

}  // namespace

namespace detail {

void tree_issue(Execution& ex, plogp::BcastAlgorithm algorithm,
                const Ranks& ranks, Bytes m, Bytes segment) {
  switch (algorithm) {
    case plogp::BcastAlgorithm::kFlat: return flat_issue(ex, ranks, m);
    case plogp::BcastAlgorithm::kChain: return chain_issue(ex, ranks, m, m);
    case plogp::BcastAlgorithm::kBinomial:
      return binomial_issue(ex, ranks, 0, ranks.size, m);
    case plogp::BcastAlgorithm::kSegmentedChain:
      return chain_issue(ex, ranks, m, segment);
  }
  GRIDCAST_ASSERT(false, "unknown broadcast algorithm");
}

void local_tree_issue(Execution& ex, ClusterId c, Bytes m) {
  const auto& grid = ex.net.grid();
  const auto& cluster = grid.cluster(c);
  tree_issue(ex, cluster.algorithm(),
             Ranks{nullptr, grid.global_rank(c, 0), cluster.size()}, m,
             plogp::kDefaultSegment);
}

}  // namespace detail

namespace {

/// One of the four algorithms over an explicit rank list.
CollectiveResult run_tree(sim::Network& net, const std::vector<NodeId>& ranks,
                          Bytes m, plogp::BcastAlgorithm algorithm,
                          Bytes segment = plogp::kDefaultSegment) {
  GRIDCAST_ASSERT(!ranks.empty(), "broadcast over an empty rank set");
  for (const NodeId r : ranks)
    GRIDCAST_ASSERT(r < net.ranks(), "rank out of range");
  Execution ex(net);
  ex.record(ranks[0], net.engine().now());
  detail::tree_issue(ex, algorithm,
                     Ranks{ranks.data(), 0,
                           static_cast<std::uint32_t>(ranks.size())},
                     m, segment);
  return ex.finish();
}

}  // namespace

CollectiveResult run_binomial_bcast(sim::Network& net,
                                    const std::vector<NodeId>& ranks,
                                    Bytes m) {
  return run_tree(net, ranks, m, plogp::BcastAlgorithm::kBinomial);
}

CollectiveResult run_flat_bcast(sim::Network& net,
                                const std::vector<NodeId>& ranks, Bytes m) {
  return run_tree(net, ranks, m, plogp::BcastAlgorithm::kFlat);
}

CollectiveResult run_chain_bcast(sim::Network& net,
                                 const std::vector<NodeId>& ranks, Bytes m) {
  return run_tree(net, ranks, m, plogp::BcastAlgorithm::kChain);
}

CollectiveResult run_segmented_chain_bcast(sim::Network& net,
                                           const std::vector<NodeId>& ranks,
                                           Bytes m, Bytes segment) {
  GRIDCAST_ASSERT(segment > 0, "segment size must be positive");
  return run_tree(net, ranks, m, plogp::BcastAlgorithm::kSegmentedChain,
                  segment);
}

CollectiveResult run_hierarchical_bcast(sim::Network& net,
                                        ClusterId root_cluster,
                                        const sched::SendOrder& order, Bytes m,
                                        IntraOrder intra_order) {
  const auto& grid = net.grid();
  const auto n_clusters = grid.cluster_count();
  GRIDCAST_ASSERT(root_cluster < n_clusters, "root cluster out of range");
  GRIDCAST_ASSERT(order.size() == n_clusters - 1,
                  "send order must cover every non-root cluster");

  // Per-cluster outgoing coordinator sends, in schedule order.
  std::vector<std::vector<ClusterId>> outgoing(n_clusters);
  for (const auto& [s, r] : order) {
    GRIDCAST_ASSERT(s < n_clusters && r < n_clusters, "bad pair in order");
    outgoing[s].push_back(r);
  }

  // When cluster c's coordinator holds the payload: issue its relays and
  // its local tree; the NIC serializes in issue order, so `intra_order`
  // reduces to which group of sends is issued first.
  struct Relay {
    Execution& ex;
    const std::vector<std::vector<ClusterId>>& outgoing;
    Bytes m;
    IntraOrder intra_order;

    void receive(ClusterId c, Time t) {
      const auto& grid = ex.net.grid();
      const NodeId me = grid.global_rank(c, 0);
      ex.record(me, t);
      if (intra_order == IntraOrder::kLocalFirst)
        detail::local_tree_issue(ex, c, m);
      for (const ClusterId dst : outgoing[c])
        ex.net.send(me, grid.global_rank(dst, 0), m,
                    [this, dst](Time tt) { receive(dst, tt); });
      if (intra_order == IntraOrder::kRelayFirst)
        detail::local_tree_issue(ex, c, m);
    }
  };

  Execution ex(net);
  Relay relay{ex, outgoing, m, intra_order};
  relay.receive(root_cluster, net.engine().now());
  return ex.finish();
}

CollectiveResult run_hierarchical_bcast(sim::Network& net,
                                        ClusterId root_cluster,
                                        const sched::SchedulerEntry& sched,
                                        Bytes m, IntraOrder intra_order) {
  const sched::Instance inst =
      sched::Instance::from_grid(net.grid(), root_cluster, m);
  return run_hierarchical_bcast(net, sched, sched::SchedulerRuntimeInfo(inst, m),
                                intra_order);
}

CollectiveResult run_hierarchical_bcast(sim::Network& net,
                                        const sched::SchedulerEntry& sched,
                                        const sched::SchedulerRuntimeInfo& info,
                                        IntraOrder intra_order) {
  GRIDCAST_ASSERT(info.message_size() > 0,
                  "runtime info must carry the message size");
  GRIDCAST_ASSERT(sched.can_schedule(info),
                  "scheduler cannot handle this instance");
  return run_hierarchical_bcast(net, info.instance().root(),
                                sched.order(info), info.message_size(),
                                intra_order);
}

CollectiveResult run_grid_unaware_binomial(sim::Network& net,
                                           ClusterId root_cluster, Bytes m) {
  const auto& grid = net.grid();
  std::vector<NodeId> ranks;
  ranks.reserve(net.ranks());
  const NodeId root = grid.global_rank(root_cluster, 0);
  ranks.push_back(root);
  for (NodeId r = 0; r < net.ranks(); ++r)
    if (r != root) ranks.push_back(r);
  return run_binomial_bcast(net, ranks, m);
}

}  // namespace gridcast::collective
