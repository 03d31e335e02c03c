#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collective/bcast.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// Pieces the executed broadcasts share (bcast.cpp, multilevel.cpp).
/// Internal to src/collective: not part of the public API.
namespace gridcast::collective::detail {

/// Shared mutable state of one broadcast execution, kept alive by the
/// callbacks through a shared_ptr (the engine outlives the issuing
/// function's stack frame only within run(), but callbacks capture by
/// value).
struct BcastState {
  std::vector<Time> delivered;
  std::uint64_t base_messages = 0;
};

/// A fresh state over `n` delivery slots, counting messages from now.
[[nodiscard]] std::shared_ptr<BcastState> make_state(sim::Network& net,
                                                     std::size_t n);

/// Drain the engine and read the result off `st`: per-slot deliveries,
/// their maximum (the engine's clock when there are none), and the
/// messages sent since `make_state`.
[[nodiscard]] BcastResult collect(sim::Network& net,
                                  const std::shared_ptr<BcastState>& st);

/// Binomial issue over explicit global ranks; ranks[0] holds the payload
/// *now*.  Deliveries are recorded by global rank, so `st` must have a
/// slot per network rank.  The split matches the analytic predictor: the
/// child handles floor(n/2) ranks, the holder keeps the rest and keeps
/// injecting.
void binomial_issue_global(sim::Network& net, std::vector<NodeId> ranks,
                           Bytes m, const std::shared_ptr<BcastState>& st);

}  // namespace gridcast::collective::detail
