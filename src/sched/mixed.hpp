#pragma once

#include <cstddef>
#include <string_view>

#include "sched/registry.hpp"

/// The paper's closing recommendation (Section 6): use performance-
/// oriented heuristics (ECEF-LA) on small grids and the balance-oriented
/// ECEF-LAT once the cluster count grows, because the latter's hit rate
/// stays constant while the former's decays.
namespace gridcast::sched {

/// A composite `SchedulerEntry` that delegates to two registry entries by
/// instance size.  Registered in the global registry as "Mixed", so the
/// paper's deployment recommendation is itself selectable by name.
class MixedStrategy final : public SchedulerEntry {
 public:
  /// `threshold`: cluster count at and below which the small-grid
  /// heuristic is used.  The paper suggests "reduced" ≈ today's grids
  /// (~10 clusters, the GRID5000 scale of Fig. 1).  Delegates are
  /// resolved through `registry()` by name, not hardcoded.
  explicit MixedStrategy(std::size_t threshold = 10,
                         HeuristicOptions opts = {},
                         std::string_view small_name = "ECEF-LA",
                         std::string_view large_name = "ECEF-LAT");

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Mixed";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
  /// Delegating entry: composite selectors ("auto") must not recurse
  /// into it.
  [[nodiscard]] bool is_composite() const noexcept override { return true; }

  /// Which registered heuristic the strategy delegates to for this
  /// instance size.
  [[nodiscard]] const SchedulerEntry& delegate(
      std::size_t clusters) const noexcept;

  /// Name of the delegate for this instance size.
  [[nodiscard]] std::string_view choice(std::size_t clusters) const noexcept {
    return delegate(clusters).name();
  }

  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

  using SchedulerEntry::order;

 private:
  std::size_t threshold_;
  SchedulerEntryPtr small_;
  SchedulerEntryPtr large_;
};

}  // namespace gridcast::sched
