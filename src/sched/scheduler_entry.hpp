#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "sched/evaluate.hpp"
#include "sched/heuristics.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"

/// The polymorphic scheduler interface.
///
/// A heuristic is no longer an enum case: it is a `SchedulerEntry` subclass
/// registered by name in the global `SchedulerRegistry` (registry.hpp).
/// Entries are immutable once constructed — `order()` is const and
/// stateless — so one instance can be shared freely across threads (the
/// Monte-Carlo race and the sweep harness both do).
namespace gridcast::sched {

/// Tunable knobs shared by the ablation variants.  Every registered
/// factory accepts one of these, so a single options bag configures any
/// entry (knobs an entry does not understand are ignored).
struct HeuristicOptions {
  FefWeight fef_weight = FefWeight::kLatencyOnly;
  BottomUpPolicy bottomup = BottomUpPolicy::kReadyTimeAware;
  /// How schedules are scored (selection is unaffected; see evaluate.hpp).
  CompletionModel completion = CompletionModel::kEager;
  /// Lower-bound pruning during composite selection ("auto"): a pure
  /// optimisation — winners and reports are identical either way — kept
  /// as a knob so tests (and `--no-prune`) can pin exactly that.
  bool prune = true;
};

/// Per-instance runtime context threaded through selection, so heuristics
/// and their callers stop re-deriving it (nvfuser's SchedulerRuntimeInfo
/// pattern).  Carries the data the Instance alone cannot answer — the
/// message size the gap matrix was derived for, the completion model the
/// caller scores with — plus cached instance aggregates.
class SchedulerRuntimeInfo {
 public:
  /// Build from an instance; `message_size == 0` means "unknown" (the
  /// instance was constructed from explicit matrices, not from a grid).
  explicit SchedulerRuntimeInfo(
      const Instance& inst, Bytes message_size = 0,
      CompletionModel completion = CompletionModel::kEager);

  [[nodiscard]] const Instance& instance() const noexcept { return *inst_; }
  [[nodiscard]] std::size_t clusters() const noexcept { return clusters_; }
  [[nodiscard]] Bytes message_size() const noexcept { return message_size_; }
  [[nodiscard]] CompletionModel completion() const noexcept {
    return completion_;
  }
  /// Cached `Instance::max_T()`.
  [[nodiscard]] Time max_internal() const noexcept { return max_internal_; }
  /// Cached `Instance::lower_bound()`.
  [[nodiscard]] Time lower_bound() const noexcept { return lower_bound_; }

 private:
  const Instance* inst_;
  std::size_t clusters_;
  Bytes message_size_;
  CompletionModel completion_;
  Time max_internal_;
  Time lower_bound_;
};

/// Virtual base class for scheduling heuristics.  Implementations derive
/// from this, implement `order()` over a `SchedulerRuntimeInfo`, and are
/// constructed through the registry (`registry().make("ECEF-LAT")`).
class SchedulerEntry {
 public:
  explicit SchedulerEntry(HeuristicOptions opts = {}) : opts_(opts) {}
  virtual ~SchedulerEntry() = default;

  SchedulerEntry(const SchedulerEntry&) = delete;
  SchedulerEntry& operator=(const SchedulerEntry&) = delete;

  /// Display name as used in the paper's figures ("ECEF-LAT", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Select the send order for the instance described by `info`.
  [[nodiscard]] virtual SendOrder order(
      const SchedulerRuntimeInfo& info) const = 0;

  /// Whether this entry can produce a schedule for the instance.  The
  /// default accepts any instance with at least two clusters;
  /// grid-shape-specialised subclasses refine it over the info's cached
  /// aggregates (LAN-Flat and Star-WAN gate on `lower_bound()` vs
  /// `max_internal()`).  Race harnesses *skip* a refusing entry rather
  /// than race it (exp::backend_sweep), so specialised entries are safe
  /// to register globally.
  [[nodiscard]] virtual bool can_schedule(
      const SchedulerRuntimeInfo& info) const;

  /// Whether this entry delegates to other registry entries ("Mixed",
  /// "auto").  Composite selectors exclude composites from their
  /// candidate set — "auto" must never recurse into "Mixed" or itself.
  [[nodiscard]] virtual bool is_composite() const noexcept { return false; }

  /// A sound lower bound on the makespan of any schedule this entry can
  /// produce for `info`'s instance: `lower_bound(info) <=
  /// evaluate_order(inst, order(info), ...).makespan` must hold for every
  /// instance the entry accepts.  The default returns the instance-level
  /// bound cached in the info (every schedule delivers each cluster at
  /// least once).  Composite selectors prune candidates whose bound
  /// cannot beat the incumbent; an unsound override is detected under
  /// GRIDCAST_DCHECK during proposal.
  [[nodiscard]] virtual Time lower_bound(
      const SchedulerRuntimeInfo& info) const {
    return info.lower_bound();
  }

  [[nodiscard]] const HeuristicOptions& options() const noexcept {
    return opts_;
  }

  // -- Conveniences over the virtual interface ------------------------

  /// Select the send order, deriving the runtime info internally.
  [[nodiscard]] SendOrder order(const Instance& inst) const;

  /// Select and time: the full pipeline (timed with this entry's
  /// completion model).
  [[nodiscard]] Schedule run(const Instance& inst) const;

  /// Shorthand when only the makespan matters (hot path of the
  /// Monte-Carlo benches).
  [[nodiscard]] Time makespan(const Instance& inst) const;

 protected:
  HeuristicOptions opts_;
};

/// Entries are shared, immutable and thread-safe; this is the ownership
/// handle the registry vends.
using SchedulerEntryPtr = std::shared_ptr<const SchedulerEntry>;

}  // namespace gridcast::sched
