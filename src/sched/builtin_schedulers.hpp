#pragma once

#include "sched/scheduler_entry.hpp"

/// Concrete `SchedulerEntry` subclasses for the paper's heuristics, one
/// class per selection rule.  The ECEF family is one class parameterised
/// by its lookahead function — the class also exposes the two alternative
/// lookaheads Bhat suggested ("ECEF-AvgEdge", "ECEF-AvgMove"), which the
/// paper recounts but does not race.
///
/// Normal code should not construct these directly; go through
/// `registry().make(name, opts)` so strategy choice stays a runtime
/// string, not a compile-time type.
namespace gridcast::sched {

class FlatTreeScheduler final : public SchedulerEntry {
 public:
  using SchedulerEntry::SchedulerEntry;
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "FlatTree";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
};

class FefScheduler final : public SchedulerEntry {
 public:
  using SchedulerEntry::SchedulerEntry;
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "FEF";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
};

class EcefScheduler final : public SchedulerEntry {
 public:
  explicit EcefScheduler(Lookahead la, HeuristicOptions opts = {})
      : SchedulerEntry(opts), la_(la) {}
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
  [[nodiscard]] Lookahead lookahead() const noexcept { return la_; }

 private:
  Lookahead la_;
};

class BottomUpScheduler final : public SchedulerEntry {
 public:
  using SchedulerEntry::SchedulerEntry;
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "BottomUp";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
};

// -- Grid-shape-specialised entries ----------------------------------
//
// These entries only make sense on particular grid shapes, so they
// implement `can_schedule` over the runtime info's cached aggregates
// (`lower_bound()`, `max_internal()`) instead of accepting any instance.
// Race harnesses consult the gate and *skip* a refusing entry rather than
// race it (exp::backend_sweep), so registering a specialised entry is safe
// even for `--sched=all` sweeps over grids it was not built for.

/// LAN-homogeneous grids: when the makespan lower bound shows the cheapest
/// inter-cluster transfers add at most `lan_slack - 1` of the internal
/// broadcast time (lower_bound <= lan_slack * max_internal), the WAN
/// ordering barely matters and the O(n) flat order is the right tool —
/// paying an O(n³) lookahead there buys nothing.  On genuinely
/// wide-area grids the gate refuses.
class LanFlatScheduler final : public SchedulerEntry {
 public:
  explicit LanFlatScheduler(HeuristicOptions opts = {},
                            double lan_slack = kDefaultLanSlack)
      : SchedulerEntry(opts), lan_slack_(lan_slack) {}
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "LAN-Flat";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
  [[nodiscard]] bool can_schedule(
      const SchedulerRuntimeInfo& info) const override;

  /// Transfers may add at most 10% over the internal broadcasts.
  static constexpr double kDefaultLanSlack = 1.1;

 private:
  double lan_slack_;
};

/// Star-shaped WANs: every non-root cluster's cheapest incoming edge is
/// the direct edge from the root (hub-and-spoke, the shape of a testbed
/// whose sites all peer through one exchange).  There the root serves
/// everyone anyway, so the entry orders the spokes directly — worst
/// direct path (g + L + T) first — without running a general heuristic's
/// lookahead.  `can_schedule` verifies the hub shape and additionally
/// requires the star to matter (lower_bound above the LAN regime).
class StarWanScheduler final : public SchedulerEntry {
 public:
  using SchedulerEntry::SchedulerEntry;
  using SchedulerEntry::order;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Star-WAN";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;
  [[nodiscard]] bool can_schedule(
      const SchedulerRuntimeInfo& info) const override;
};

class SchedulerRegistry;

/// Register every built-in entry (the paper's seven plus the two extra
/// lookahead flavours and the grid-shape-specialised pair) into `reg`.
/// Called once by `registry()`; exposed so tests can populate a private
/// registry.
void register_builtin_schedulers(SchedulerRegistry& reg);

}  // namespace gridcast::sched
