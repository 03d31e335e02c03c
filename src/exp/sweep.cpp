#include "exp/sweep.hpp"

#include <limits>
#include <set>

#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace gridcast::exp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::vector<Bytes> default_size_ladder() {
  // The paper's Fig. 5/6 x-axis stops at 4 MiB; an off-by-one endpoint
  // (4.25 MiB) used to emit a 17th point past the figure.
  std::vector<Bytes> sizes;
  for (Bytes m = KiB(256); m <= MiB(4); m += KiB(256)) sizes.push_back(m);
  return sizes;
}

std::uint64_t measured_cell_seed(std::uint64_t seed, std::size_t size_index,
                                 std::string_view series_name) {
  // The name hash keeps a cell's seed independent of the series' position
  // in the competitor list; the finalizer disperses (seed, size index).
  return splitmix64(seed +
                    0x9e3779b97f4a7c15ULL *
                        (static_cast<std::uint64_t>(size_index) + 1) +
                    fnv1a64(series_name));
}

SweepResult backend_sweep(const collective::Backend& backend,
                          InstanceCache& cache, ClusterId root,
                          const std::vector<sched::Scheduler>& comps,
                          std::span<const Bytes> sizes, std::uint64_t seed,
                          ThreadPool& pool, collective::Verb verb) {
  GRIDCAST_ASSERT(!comps.empty(), "no competitors");
  GRIDCAST_ASSERT(!sizes.empty(), "no sizes");
  if (!backend.supports(verb))
    throw InvalidInput("backend '" + std::string(backend.name()) +
                       "' does not support verb '" +
                       std::string(collective::verb_name(verb)) + "'");

  // The all-to-all executes one schedule per root cluster, so its gate
  // must probe every root; broadcast and scatter schedule from `root`
  // alone.
  std::vector<ClusterId> gate_roots;
  if (verb == collective::Verb::kAlltoall) {
    const auto n = static_cast<ClusterId>(cache.grid().cluster_count());
    for (ClusterId c = 0; c < n; ++c) gate_roots.push_back(c);
  } else {
    gate_roots.push_back(root);
  }

  // Derive every (root, size) instance up front in parallel: the gate
  // below must see all of them (a series is either fully present or
  // absent).
  pool.parallel_for(
      sizes.size() * gate_roots.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          (void)cache.get(gate_roots[i % gate_roots.size()],
                          sizes[i / gate_roots.size()]);
      });

  // Gate: a competitor races only if it can schedule *every* instance of
  // the ladder, so a series is either fully present or absent.
  // Grid-shape-specialised entries (LAN-only, star-WAN) drop out here on
  // grids they were not built for — skipped, not raced.
  SweepResult out;
  std::vector<const sched::Scheduler*> raced;
  raced.reserve(comps.size());
  for (const auto& comp : comps) {
    bool ok = true;
    for (std::size_t i = 0; ok && i < sizes.size(); ++i) {
      for (const ClusterId r : gate_roots) {
        const InstancePtr inst = cache.get(r, sizes[i]);
        // Probe with the info the verb path will build: the competitor's
        // completion model for broadcasts, the default (eager) model for
        // scatter/alltoall — their order derivations construct exactly
        // that (scatter_wan_order / alltoall_dest_order), and a gate that
        // disagreed with their can_schedule assert would skip-vs-die
        // inconsistently.
        const sched::SchedulerRuntimeInfo info(
            *inst, sizes[i],
            verb == collective::Verb::kBcast ? comp.options().completion
                                             : sched::CompletionModel::kEager);
        ok = comp.entry().can_schedule(info);
        if (!ok) break;
      }
    }
    if (ok)
      raced.push_back(&comp);
    else
      out.skipped.emplace_back(comp.name());
  }
  if (raced.empty()) {
    std::string who;
    for (const auto& name : out.skipped) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    throw InvalidInput(
        "no raceable schedulers: can_schedule refused every competitor on "
        "this grid (" + who + ")");
  }

  // The comparator series is a broadcast (the grid-unaware binomial), so
  // only broadcast sweeps carry it.
  const std::string_view baseline = verb == collective::Verb::kBcast
                                        ? backend.baseline_series()
                                        : std::string_view{};
  const std::size_t base = baseline.empty() ? 0 : 1;
  const std::size_t n_series = raced.size() + base;
  out.sizes.assign(sizes.begin(), sizes.end());
  out.series.resize(n_series);
  if (base != 0) out.series[0].name = baseline;
  for (std::size_t s = 0; s < raced.size(); ++s)
    out.series[s + base].name = raced[s]->name();
  for (auto& series : out.series)
    series.completion.assign(sizes.size(), kNaN);

  // One task per (size, series) cell, written by index, so any worker
  // count produces the same result.
  // Each cell's seed derives from (size index, series name) — never from
  // scheduling order, the competitor count, or the worker count — so a
  // series' results are invariant under competitor-set growth.
  pool.parallel_for(
      sizes.size() * n_series, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t cell = lo; cell < hi; ++cell) {
          const std::size_t i = cell / n_series;
          const std::size_t s = cell % n_series;
          const Bytes m = sizes[i];
          const std::uint64_t cell_seed =
              measured_cell_seed(seed, i, out.series[s].name);
          if (base != 0 && s == 0) {
            out.series[0].completion[i] =
                backend.baseline_bcast(root, m, cell_seed).completion;
          } else {
            const sched::Scheduler& comp = *raced[s - base];
            switch (verb) {
              case collective::Verb::kBcast: {
                const InstancePtr inst = cache.get(root, m);
                const sched::SchedulerRuntimeInfo info(
                    *inst, m, comp.options().completion);
                out.series[s].completion[i] =
                    backend.bcast(comp.entry(), info, cell_seed).completion;
                break;
              }
              // Scatter/alltoall cells re-derive their instances inside
              // the backend (the Backend verb signatures are grid-bound,
              // not info-bound — an MPI harness has no Instance at all).
              // Accepted: O(clusters²) gap evaluations per cell, below
              // the cell's own execution/prediction work; the cache still
              // serves the gate above.
              case collective::Verb::kScatter:
                out.series[s].completion[i] =
                    backend.scatter(comp.entry(), root, m, cell_seed)
                        .completion;
                break;
              case collective::Verb::kAlltoall:
                out.series[s].completion[i] =
                    backend.alltoall(comp.entry(), m, cell_seed).completion;
                break;
            }
          }
        }
      });
  return out;
}

std::vector<sched::Scheduler> resolve_competitors(
    const std::vector<std::string>& names, sched::HeuristicOptions opts) {
  std::vector<sched::Scheduler> out;
  out.reserve(names.size());
  for (const auto& name : names)
    out.emplace_back(name, opts);  // throws, listing registered names
  // Duplicate series would make the baseline gate ambiguous; reject them
  // by canonical name so `ecef-lat,ECEF-LAT` is caught too.
  std::set<std::string_view> seen;
  for (const auto& c : out)
    if (!seen.insert(c.name()).second)
      throw InvalidInput("scheduler '" + std::string(c.name()) +
                         "' selected more than once");
  return out;
}

io::BenchReport run_race_sweep(InstanceCache& cache,
                               const std::string& grid_name,
                               const RaceSpec& spec, ThreadPool& pool,
                               std::vector<std::string>* skipped) {
  if (spec.sched_names.empty())
    throw InvalidInput("no schedulers selected (use --sched=a,b,c or all)");
  if (spec.root >= cache.grid().cluster_count())
    throw InvalidInput("--root=" + std::to_string(spec.root) +
                       " is out of range for a " +
                       std::to_string(cache.grid().cluster_count()) +
                       "-cluster grid");

  sched::HeuristicOptions opts;
  opts.completion = spec.completion;
  opts.prune = spec.prune;
  const std::vector<sched::Scheduler> comps =
      resolve_competitors(spec.sched_names, opts);
  const std::vector<Bytes> sizes =
      spec.sizes.empty() ? default_size_ladder() : spec.sizes;

  collective::BackendOptions bopts;
  bopts.grid = &cache.grid();
  bopts.jitter = {spec.jitter};
  const collective::BackendPtr backend =
      collective::backend_registry().make(spec.backend, bopts);

  const SweepResult sweep =
      backend_sweep(*backend, cache, spec.root, comps, sizes, spec.seed, pool,
                    spec.verb);
  if (skipped != nullptr)
    skipped->insert(skipped->end(), sweep.skipped.begin(),
                    sweep.skipped.end());

  io::BenchReport r;
  r.bench = "race";
  r.grid = grid_name;
  r.mode = backend->mode_label();
  r.verb = collective::verb_name(spec.verb);
  r.root = spec.root;
  r.seed = spec.seed;
  r.jitter = spec.jitter;
  r.sizes = sweep.sizes;
  r.series.reserve(sweep.series.size());
  for (const auto& s : sweep.series) {
    io::BenchSeries row;
    row.name = s.name;
    row.makespan_s = s.completion;
    r.series.push_back(std::move(row));
  }
  return r;
}

}  // namespace gridcast::exp
