#pragma once

#include "collective/backend.hpp"

/// The two built-in collective backends.
///
/// Normal code should not construct these directly; go through
/// `backend_registry().make("sim" | "plogp", opts)` so the execution
/// target stays a runtime string — that is what lets `gridcast_race
/// --backend=...` and the sweep harnesses swap predictor for executor
/// without a mode fork.  The concrete classes are exposed for library
/// callers that already hold a grid and want a backend without registry
/// indirection (and for the parity tests).
namespace gridcast::collective {

/// Message-level discrete-event execution (the Fig. 6 "measured" path):
/// every point-to-point send of the collective is simulated on a fresh
/// `sim::Network` per call, seeded by the caller, so concurrent sweep
/// cells never share simulator state.
class SimBackend final : public Backend {
 public:
  /// The backend only references the grid; it must outlive the backend.
  /// Throws InvalidInput unless `jitter.frac` lies in [0, 0.5).
  explicit SimBackend(const topology::Grid& grid,
                      sim::JitterConfig jitter = {});
  explicit SimBackend(topology::Grid&&, sim::JitterConfig = {}) = delete;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sim";
  }
  [[nodiscard]] std::string_view mode_label() const noexcept override {
    return "measured";
  }
  [[nodiscard]] bool supports(Verb v) const noexcept override;
  [[nodiscard]] bool instance_only() const noexcept override { return false; }
  [[nodiscard]] std::string_view baseline_series() const noexcept override {
    return "DefaultLAM";
  }

  [[nodiscard]] const topology::Grid& grid() const noexcept { return *grid_; }

  [[nodiscard]] CollectiveResult bcast(const sched::SchedulerEntry& sched,
                                       const sched::SchedulerRuntimeInfo& info,
                                       std::uint64_t seed) const override;
  /// The grid-unaware binomial tree the paper labels "Default LAM".
  [[nodiscard]] CollectiveResult baseline_bcast(
      ClusterId root_cluster, Bytes m, std::uint64_t seed) const override;
  [[nodiscard]] CollectiveResult scatter(const sched::SchedulerEntry& sched,
                                         ClusterId root_cluster, Bytes block,
                                         std::uint64_t seed) const override;
  [[nodiscard]] CollectiveResult alltoall(const sched::SchedulerEntry& sched,
                                          Bytes block,
                                          std::uint64_t seed) const override;

 private:
  const topology::Grid* grid_;
  sim::JitterConfig jitter_;
};

/// Analytic pLogP prediction (the Fig. 5 "predicted" path): the broadcast
/// is timed by `sched::evaluate_order` over the instance carried in the
/// runtime info — whose gap/latency matrices and per-cluster T_c come from
/// the pLogP predictors (plogp/collective_predict.hpp) — without executing
/// a single message.  Works from any instance (sampled or grid-derived),
/// which is what lets the Monte-Carlo races route through it.
///
/// Scatter and all-to-all are predicted in closed form from the grid's gap
/// functions (plogp/hierarchical_predict.hpp) — the aggregate sizes differ
/// per link, so a fixed-size instance is not enough.  Construct with a
/// grid (the registry passes `BackendOptions::grid` through) to enable
/// them; without one those verbs throw InvalidInput at call time while
/// `supports()` still advertises them — the capability is the backend's,
/// the grid is per-workload context, exactly as for `SimBackend`.
class PlogpBackend final : public Backend {
 public:
  /// `grid` enables the scatter/alltoall predictions; it is only
  /// referenced and must outlive the backend.  Broadcast never uses it.
  explicit PlogpBackend(const topology::Grid* grid = nullptr) noexcept
      : grid_(grid) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "plogp";
  }
  [[nodiscard]] std::string_view mode_label() const noexcept override {
    return "predicted";
  }
  [[nodiscard]] bool supports(Verb) const noexcept override { return true; }
  [[nodiscard]] bool instance_only() const noexcept override { return true; }

  [[nodiscard]] CollectiveResult bcast(const sched::SchedulerEntry& sched,
                                       const sched::SchedulerRuntimeInfo& info,
                                       std::uint64_t seed) const override;
  [[nodiscard]] CollectiveResult scatter(const sched::SchedulerEntry& sched,
                                         ClusterId root_cluster, Bytes block,
                                         std::uint64_t seed) const override;
  [[nodiscard]] CollectiveResult alltoall(const sched::SchedulerEntry& sched,
                                          Bytes block,
                                          std::uint64_t seed) const override;

 private:
  /// The grid behind scatter/alltoall, or throws the one-line "needs a
  /// grid" InvalidInput.
  [[nodiscard]] const topology::Grid& grid_for(Verb v) const;

  const topology::Grid* grid_;
};

}  // namespace gridcast::collective
