#include "exp/instance_cache.hpp"

namespace gridcast::exp {

InstancePtr InstanceCache::get(ClusterId root, Bytes m) {
  const std::pair key{root, m};
  {
    std::lock_guard lk(mu_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Derive outside the lock: distinct keys must not serialise behind one
  // O(clusters²) derivation (the threaded sweeps request many sizes at
  // once).
  auto derived = std::make_shared<const sched::Instance>(
      sched::Instance::from_grid(*grid_, root, m));
  std::lock_guard lk(mu_);
  // Counts derivations performed, lost races included.
  misses_.fetch_add(1, std::memory_order_relaxed);
  // A thread that lost the derivation race gets the winner's entry.
  return cache_.try_emplace(key, std::move(derived)).first->second;
}

std::size_t InstanceCache::entries() const {
  std::lock_guard lk(mu_);
  return cache_.size();
}

}  // namespace gridcast::exp
