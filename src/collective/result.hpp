#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace gridcast::collective {

/// Outcome of one collective, whatever produced it: every executor in
/// src/collective returns it, and so does every `Backend` verb.
/// `delivered` is per-rank for executing backends and per-cluster for
/// analytic ones (`per_rank` says which); the scalar fields always mean
/// the same thing.
struct CollectiveResult {
  /// Delivery / finish time per rank (executors, indexed by global rank;
  /// ranks that took no part read 0) or per cluster (analytic backends,
  /// indexed by cluster).  The root's entry is its start time.
  std::vector<Time> delivered;
  bool per_rank = true;          ///< granularity of `delivered`
  Time completion = 0.0;         ///< max over delivered
  std::uint64_t messages = 0;    ///< point-to-point sends (or transfers)
  std::uint64_t wan_messages = 0;  ///< messages that crossed clusters
  Bytes bytes = 0;               ///< total payload bytes moved (0 = untracked)
  Bytes wan_bytes = 0;           ///< bytes that crossed clusters
};

}  // namespace gridcast::collective
