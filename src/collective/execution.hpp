#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "collective/result.hpp"
#include "plogp/collective_predict.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// The execution core every executed collective shares (bcast.cpp,
/// multilevel.cpp, scatter.cpp, alltoall.cpp).  Internal to
/// src/collective: not part of the public API.
namespace gridcast::collective::detail {

/// The state of one executed collective, owned by the executor's stack
/// frame.  Delivery handlers capture a reference to it: every executor
/// calls finish() — which drains the engine — before it returns, so no
/// handler outlives the frame.
class Execution {
 public:
  /// Fresh deliveries (one slot per network rank) and counters read from
  /// now on.
  explicit Execution(sim::Network& network)
      : net(network),
        delivered_(network.ranks(), 0.0),
        base_messages_(network.messages()),
        base_wan_messages_(network.inter_cluster_messages()),
        base_bytes_(network.bytes_sent()),
        base_wan_bytes_(network.inter_cluster_bytes()) {}

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// `rank` held its payload (or one more piece of it) at `t`; its
  /// delivery time is the latest such arrival.
  void record(NodeId rank, Time t) {
    delivered_[rank] = std::max(delivered_[rank], t);
  }

  /// Drain the engine and read the result: deliveries by global rank,
  /// their maximum, and the counters as deltas since construction.
  [[nodiscard]] CollectiveResult finish() {
    net.engine().run();
    CollectiveResult r;
    r.completion = *std::max_element(delivered_.begin(), delivered_.end());
    r.delivered = std::move(delivered_);
    r.messages = net.messages() - base_messages_;
    r.wan_messages = net.inter_cluster_messages() - base_wan_messages_;
    r.bytes = net.bytes_sent() - base_bytes_;
    r.wan_bytes = net.inter_cluster_bytes() - base_wan_bytes_;
    return r;
  }

  sim::Network& net;

 private:
  std::vector<Time> delivered_;
  std::uint64_t base_messages_;
  std::uint64_t base_wan_messages_;
  Bytes base_bytes_;
  Bytes base_wan_bytes_;
};

/// The participants of one broadcast tree, in tree order (index 0 holds
/// the payload): the caller's explicit global ranks, or — when `list` is
/// null — the contiguous block first, first + 1, ... (a cluster's local
/// ranks).  Trivially copyable, so handlers carry it by value.
struct Ranks {
  const NodeId* list = nullptr;
  NodeId first = 0;
  std::uint32_t size = 0;

  [[nodiscard]] NodeId operator[](std::uint32_t i) const {
    return list != nullptr ? list[i] : first + i;
  }
};

/// Issue the broadcast `algorithm` names over `ranks`; ranks[0] holds the
/// payload *now* and is not recorded.  The segmented chain cuts the
/// payload into `segment`-byte pieces.  Shapes match the
/// plogp::predict_*_bcast closed forms.
void tree_issue(Execution& ex, plogp::BcastAlgorithm algorithm,
                const Ranks& ranks, Bytes m, Bytes segment);

/// Issue cluster c's local broadcast from its coordinator, with the
/// algorithm the cluster names and plogp::kDefaultSegment: the broadcast
/// its T_c predicts.
void local_tree_issue(Execution& ex, ClusterId c, Bytes m);

}  // namespace gridcast::collective::detail
