#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sched/registry.hpp"

/// The registry-wide per-instance selector (nvfuser's
/// `SchedulerEntry::proposeHeuristics` pattern): the paper's headline
/// claim is that no single heuristic wins everywhere, and "Mixed" encodes
/// only a two-way size split of that insight.  "auto" closes the loop —
/// it consults *every* non-composite registry entry, scores the
/// `can_schedule` survivors under the analytic model, and returns the
/// per-instance winner, so it matches or beats Mixed by construction.
namespace gridcast::sched {

/// A composite `SchedulerEntry` registered as "auto" (aliases "best",
/// "propose").  Its candidate set is snapshotted from a registry at
/// construction: every canonical entry except itself and other composites
/// (is_composite() — "auto" never recurses into "Mixed" or "auto").
class AutoScheduler final : public SchedulerEntry {
 public:
  /// The outcome of one selection, exposed for tests and cost surfacing.
  struct Proposal {
    std::string_view winner;  ///< winning candidate's registry name
    SendOrder order;          ///< the winner's send order
    Time makespan = 0.0;      ///< the winner's evaluated makespan
    std::size_t evaluated = 0;  ///< candidates scored through the model
    std::size_t pruned = 0;     ///< skipped: bound cannot beat incumbent
    std::size_t gated = 0;      ///< skipped: can_schedule refused
  };

  /// Snapshot candidates from `reg` (usually the global registry; tests
  /// pass local ones).  `self_name` is the canonical name this entry is
  /// registered under — skipped *before* construction, since building it
  /// would recurse forever.  Other composites are constructed, recognised
  /// via is_composite(), and dropped.
  explicit AutoScheduler(const SchedulerRegistry& reg,
                         HeuristicOptions opts = {},
                         std::string_view self_name = "auto");

  [[nodiscard]] std::string_view name() const noexcept override {
    return "auto";
  }
  [[nodiscard]] bool is_composite() const noexcept override { return true; }

  /// True iff any candidate accepts the instance — "auto" can schedule
  /// exactly when the registry holds at least one non-composite entry
  /// that can.
  [[nodiscard]] bool can_schedule(
      const SchedulerRuntimeInfo& info) const override;

  /// The winner's order (`propose(info).order`).
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override;

  /// Full selection: walk the candidates in registration order, skip
  /// `can_schedule` refusers, evaluate the rest under the analytic model
  /// (`evaluate_order` with this entry's completion model) and keep the
  /// strict-less winner — ties keep the earlier candidate, so selection
  /// is deterministic and pinned.  With `options().prune`, a candidate
  /// whose `lower_bound(info)` cannot beat the incumbent is skipped
  /// unevaluated; because a sound bound never exceeds the evaluated
  /// makespan, pruning can only skip candidates that could not have won —
  /// winners (and therefore reports) are byte-identical with pruning on
  /// or off.  An unsound candidate bound trips a GRIDCAST_DCHECK when
  /// evaluated.  Throws InvalidInput when every candidate refuses.
  [[nodiscard]] Proposal propose(const SchedulerRuntimeInfo& info) const;

  /// Candidate registry names, in registration order (tests pin the
  /// composite-exclusion and ordering contracts against this).
  [[nodiscard]] std::vector<std::string_view> candidate_names() const;

  using SchedulerEntry::order;

 private:
  std::vector<SchedulerEntryPtr> candidates_;  ///< registration order
};

}  // namespace gridcast::sched
