#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "collective/result.hpp"
#include "collective/verb.hpp"
#include "sched/scheduler_entry.hpp"
#include "sim/network.hpp"
#include "support/named_registry.hpp"
#include "support/types.hpp"

/// The collective execution backend interface.
///
/// The paper's core claim is that one grid-aware schedule can be
/// *predicted* (pLogP model, Fig. 5) and *executed* (measured runs, Fig. 6)
/// interchangeably.  A `Backend` makes that interchangeability an API: the
/// collective verbs (broadcast, scatter, all-to-all) are abstract methods
/// returning a common `CollectiveResult`, and concrete backends — the
/// message-level simulator, the analytic pLogP predictor, later a real MPI
/// harness — are selected by name through the `BackendRegistry`, exactly
/// like scheduling heuristics are selected through `SchedulerRegistry`.
/// Adding a real execution harness is then "register one more backend",
/// not "fork every sweep on a mode flag".
namespace gridcast::collective {

/// Abstract collective backend.  Implementations are immutable once
/// constructed — every verb is const — so one instance can be shared
/// freely across sweep worker threads, like `SchedulerEntry`.
class Backend {
 public:
  Backend() = default;
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Registry name ("sim", "plogp", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The mode string recorded in `BenchReport`s ("measured" for executing
  /// backends, "predicted" for analytic ones) — kept distinct from name()
  /// so reports stay byte-compatible with the pre-backend mode fork.
  [[nodiscard]] virtual std::string_view mode_label() const noexcept = 0;

  /// Whether this backend implements `v`.  Calling an unsupported verb
  /// throws InvalidInput.
  [[nodiscard]] virtual bool supports(Verb v) const noexcept = 0;

  /// True when bcast() consumes only the `SchedulerRuntimeInfo` (analytic
  /// backends).  Executing backends are bound to a concrete grid and
  /// require the info's instance to be derived from it; they cannot run
  /// the Monte-Carlo races over sampled instances.
  [[nodiscard]] virtual bool instance_only() const noexcept = 0;

  /// Name of the scheduler-free comparator series this backend adds to
  /// sweeps ("DefaultLAM" for the simulator's grid-unaware binomial tree),
  /// or empty when it has none.  Non-empty implies baseline_bcast() works.
  [[nodiscard]] virtual std::string_view baseline_series() const noexcept;

  /// Broadcast under `sched`'s send order.  `info` carries the instance,
  /// message size and completion model; `seed` feeds backend-local noise
  /// (ignored by deterministic backends).  Asserts `sched.can_schedule`.
  [[nodiscard]] virtual CollectiveResult bcast(
      const sched::SchedulerEntry& sched,
      const sched::SchedulerRuntimeInfo& info,
      std::uint64_t seed = 0) const = 0;

  /// The comparator broadcast behind baseline_series().  Throws
  /// InvalidInput unless baseline_series() is non-empty.
  [[nodiscard]] virtual CollectiveResult baseline_bcast(
      ClusterId root_cluster, Bytes m, std::uint64_t seed = 0) const;

  /// Scatter `block` bytes per rank from `root_cluster`'s coordinator,
  /// WAN injections sequenced by `sched`.  Throws InvalidInput unless
  /// supports(Verb::kScatter).
  [[nodiscard]] virtual CollectiveResult scatter(
      const sched::SchedulerEntry& sched, ClusterId root_cluster, Bytes block,
      std::uint64_t seed = 0) const;

  /// All-to-all with `block` bytes per rank pair, coordinator aggregates
  /// sequenced by `sched`.  Throws InvalidInput unless
  /// supports(Verb::kAlltoall).
  [[nodiscard]] virtual CollectiveResult alltoall(
      const sched::SchedulerEntry& sched, Bytes block,
      std::uint64_t seed = 0) const;

 protected:
  /// Shared "verb not supported" error for default implementations.
  [[noreturn]] void unsupported(Verb v) const;
};

/// Backends are shared, immutable and thread-safe; this is the ownership
/// handle the registry vends.
using BackendPtr = std::shared_ptr<const Backend>;

/// Everything a backend factory may need.  Analytic backends ignore all of
/// it; executing backends require the grid (and read their noise knobs).
struct BackendOptions {
  /// The grid executing backends run on.  The backend only references it;
  /// it must outlive the backend.
  const topology::Grid* grid = nullptr;
  /// Per-message multiplicative noise (simulator-family backends).
  sim::JitterConfig jitter = {};
};

/// The backend registry: every execution target the system knows is a
/// named factory here, mirroring `SchedulerRegistry`.  Canonical names
/// match case-insensitively (they are all lowercase); aliases fold too, so
/// `--backend=measured` keeps working as a spelling of "sim".
class BackendRegistry {
 public:
  using Factory = std::function<BackendPtr(const BackendOptions&)>;

  BackendRegistry();

  /// Register a factory under a canonical name plus optional aliases, with
  /// a one-line description for `--list-backends`.  Throws InvalidInput
  /// when the name or any alias is already taken (also within this call).
  void add(std::string name, std::string description, Factory factory,
           std::vector<std::string> aliases = {});

  /// Construct the backend registered under `name` (canonical or alias,
  /// case-insensitive).  Throws InvalidInput for unknown names, listing
  /// what is available; factories may throw for missing options (e.g. the
  /// simulator without a grid).
  [[nodiscard]] BackendPtr make(std::string_view name,
                                const BackendOptions& opts = {}) const;

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Resolve a name or alias to its canonical name, throwing the same
  /// InvalidInput as make() for unknown names — the one place the
  /// "unknown backend" error is worded (CLI parsing validates early
  /// through this).
  [[nodiscard]] std::string resolve(std::string_view name) const;

  /// Canonical names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Registered aliases of a canonical name (folded), in registration
  /// order; empty for unknown names.
  [[nodiscard]] std::vector<std::string> aliases_of(
      std::string_view name) const;

  /// The description `add()` recorded for a canonical name or alias.
  [[nodiscard]] std::string description_of(std::string_view name) const;

 private:
  /// The shared machinery: backend policy is lowercase canonicals with
  /// every lookup folded.  Factories come back by value and run outside
  /// the lock, like SchedulerRegistry — a composite backend resolving
  /// delegates through the registry from its factory must not
  /// self-deadlock.
  NamedRegistry<Factory> reg_;
};

/// The process-wide registry, pre-populated with the built-in backends
/// ("sim" — the discrete-event simulator, "plogp" — the analytic pLogP
/// predictor).  Thread-safe; user code may `add()` an MPI-shaped backend
/// behind the same interface at any time.
[[nodiscard]] BackendRegistry& backend_registry();

}  // namespace gridcast::collective
