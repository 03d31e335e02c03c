#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "sched/instance.hpp"
#include "topology/grid.hpp"

/// Memoised `Instance::from_grid` derivations for one grid.
///
/// Deriving an instance costs O(clusters²) gap-function evaluations, and
/// sweep harnesses used to pay it once per (size, series) *cell* — the
/// measured sweep re-derived the identical instance for every competitor
/// of a size.  The cache keys on (root, size); the grid is fixed per cache
/// (grids are the expensive measured artefact and have no cheap identity).
/// Every key a sweep or race touches stays resident for the cache's life:
/// the ladders are small, so there is no bound and no eviction.
namespace gridcast::exp {

/// Shared ownership handle for a cached derivation.
using InstancePtr = std::shared_ptr<const sched::Instance>;

class InstanceCache {
 public:
  explicit InstanceCache(const topology::Grid& grid) : grid_(&grid) {}
  /// The cache only references the grid; a temporary would dangle.
  explicit InstanceCache(topology::Grid&&) = delete;

  InstanceCache(const InstanceCache&) = delete;
  InstanceCache& operator=(const InstanceCache&) = delete;

  [[nodiscard]] const topology::Grid& grid() const noexcept { return *grid_; }

  /// The instance the grid poses for an m-byte broadcast rooted at `root`,
  /// derived on first use.  Thread-safe.  Concurrent first requests for the
  /// same key may derive twice (derivation runs outside the lock so
  /// distinct keys never serialise); the first insertion wins and
  /// derivation is deterministic, so all callers see identical values.
  [[nodiscard]] InstancePtr get(ClusterId root, Bytes m);

  /// Distinct (root, size) keys currently held.
  [[nodiscard]] std::size_t entries() const;

  /// Lookups that found an existing entry / had to derive one.  The
  /// counters are monitoring data, not synchronisation: they are relaxed
  /// atomics, so readers never contend with the cache lock and TSan stays
  /// quiet when a sweep thread polls them mid-run.  Each value is exact; a
  /// hits-vs-misses snapshot taken mid-run may straddle an in-flight
  /// lookup.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  const topology::Grid* grid_;
  mutable std::mutex mu_;
  std::map<std::pair<ClusterId, Bytes>, InstancePtr> cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace gridcast::exp
