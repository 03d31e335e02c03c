#include "exp/montecarlo.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "collective/backend.hpp"
#include "exp/realise.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace gridcast::exp {

namespace {

constexpr std::uint64_t kMaxRaceCells = 1000000;

}  // namespace

std::vector<std::size_t> fig1_cluster_ladder() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 2; n <= 10; ++n) counts.push_back(n);
  return counts;
}

std::vector<std::size_t> fig2_cluster_ladder() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 5; n <= 50; n += 5) counts.push_back(n);
  return counts;
}

std::uint64_t race_instance_seed(std::uint64_t seed, std::size_t clusters) {
  // Domain-tagged so a race never shares streams with the sweep cells.
  constexpr std::uint64_t kRaceDomain = 0x52414345ULL;  // "RACE"
  return splitmix64(seed + kRaceDomain +
                    0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(clusters));
}

std::uint64_t race_exec_seed(std::uint64_t seed, std::size_t clusters,
                             std::uint64_t iteration,
                             std::string_view series_name) {
  std::uint64_t z = seed + fnv1a64(series_name);
  z += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(clusters) + 1);
  z += 0xd1b54a32d192ed03ULL * (iteration + 1);
  return splitmix64(z);
}

std::size_t race_block_count(std::size_t points, std::uint64_t iterations,
                             std::uint64_t block_iters) {
  GRIDCAST_ASSERT(block_iters >= 1, "race block size must be >= 1");
  // ceil() without the `iterations + block_iters - 1` wrap near 2^64.
  const std::uint64_t blocks =
      iterations / block_iters + (iterations % block_iters != 0 ? 1 : 0);
  if (points != 0 && blocks > kMaxRaceCells / points)
    throw InvalidInput(
        "--iters=" + std::to_string(iterations) + " over " +
        std::to_string(points) + " cluster count(s) spans more than " +
        std::to_string(kMaxRaceCells) + " race cells of " +
        std::to_string(block_iters) + " iterations");
  return static_cast<std::size_t>(blocks);
}

io::BenchReport run_race_grid(const RaceGridSpec& spec, ThreadPool& pool) {
  if (spec.sched_names.empty())
    throw InvalidInput("no schedulers selected (use --sched=a,b,c)");
  sched::HeuristicOptions opts;
  opts.completion = spec.completion;
  opts.prune = spec.prune;
  return run_race_grid(resolve_competitors(spec.sched_names, opts), spec,
                       pool);
}

io::BenchReport run_race_grid(const std::vector<sched::Scheduler>& comps,
                              const RaceGridSpec& spec, ThreadPool& pool) {
  if (comps.empty()) throw InvalidInput("no competitors to race");
  if (spec.iterations == 0)
    throw InvalidInput("--iters must be >= 1");
  if (spec.block_iters == 0)
    throw InvalidInput("race block size must be >= 1");
  spec.ranges.validate();

  const std::vector<std::size_t> counts =
      spec.cluster_counts.empty() ? fig1_cluster_ladder() : spec.cluster_counts;
  {
    std::set<std::size_t> seen;
    for (const std::size_t n : counts) {
      if (n < 2)
        throw InvalidInput("--clusters: a race needs at least 2 clusters, got " +
                           std::to_string(n));
      if (!seen.insert(n).second)
        throw InvalidInput("--clusters: count " + std::to_string(n) +
                           " listed more than once");
      if (spec.root >= n)
        throw InvalidInput("--root=" + std::to_string(spec.root) +
                           " is out of range for a " + std::to_string(n) +
                           "-cluster point");
    }
  }
  const std::size_t n_points = counts.size();
  const std::size_t n_blocks =
      race_block_count(n_points, spec.iterations, spec.block_iters);

  auto& registry = collective::backend_registry();
  const std::string backend_name = registry.resolve(spec.backend);

  // Probe the backend's capabilities against a throwaway realised grid —
  // executing backends refuse construction without one, and we cannot know
  // a backend is instance-only before constructing it.
  const sched::Instance probe_inst(0, SquareMatrix<Time>(2, 0.0),
                                   SquareMatrix<Time>(2, 0.0),
                                   std::vector<Time>(2, 0.0));
  const topology::Grid probe_grid = realise_instance(probe_inst);
  collective::BackendOptions bopts;
  bopts.grid = &probe_grid;
  bopts.jitter = {spec.jitter};
  const collective::BackendPtr probe = registry.make(backend_name, bopts);
  if (!probe->supports(collective::Verb::kBcast))
    throw InvalidInput("backend '" + backend_name +
                       "' does not implement broadcast");
  if (!probe->instance_only() && !spec.realise)
    throw InvalidInput(
        "backend '" + backend_name +
        "' executes on a concrete grid and cannot time the race's sampled "
        "Table 2 instances (instance_only() mismatch); pass --realise to "
        "execute every draw on a synthetic grid realisation");

  // The shared backend of the sampled path.  Constructed without a grid:
  // instance-only backends ignore BackendOptions entirely, and holding the
  // probe grid's address past this scope would dangle.
  collective::BackendPtr shared_backend;
  if (!spec.realise)
    shared_backend = registry.make(backend_name, collective::BackendOptions{});

  const std::size_t n_comps = comps.size();
  const std::size_t n_series = n_comps + 1;  // + GlobalMin

  io::BenchReport r;
  r.bench = "montecarlo";
  r.grid = spec.realise ? "table2_realised" : "table2_sampled";
  r.mode = probe->mode_label();
  r.root = spec.root;
  r.seed = spec.seed;
  r.jitter = spec.jitter;
  r.iterations = spec.iterations;
  r.sizes.assign(counts.begin(), counts.end());
  r.series.resize(n_series);
  for (std::size_t s = 0; s < n_comps; ++s) r.series[s].name = comps[s].name();
  r.series[n_comps].name = "GlobalMin";

  // Per-(point, block) partials, laid out [series][point][block]; each
  // cell writes only its own slots.
  const std::size_t n_cells = n_points * n_blocks;
  std::vector<double> partial_sum(n_series * n_cells);
  std::vector<std::uint64_t> partial_hits(n_comps * n_cells);

  // One task per (point, block) cell: all competitors race the cell's
  // draws together (hits need the per-iteration minimum across the whole
  // field), sums accumulate in iteration order within the block, and the
  // block grid is fixed by (iterations, block_iters) alone — so any
  // thread count or competitor superset reproduces these numbers bit for
  // bit.
  pool.parallel_for(
      n_cells, [&](std::size_t lo, std::size_t hi) {
        std::vector<Time> mk(n_comps);
        std::vector<double> sums(n_series);
        std::vector<std::uint64_t> hits(n_comps);
        sched::Instance drawn;  // storage reused across iterations
        for (std::size_t cell = lo; cell < hi; ++cell) {
          const std::size_t p = cell / n_blocks;
          const std::size_t b = cell % n_blocks;
          const std::size_t n = counts[p];
          const std::uint64_t it_lo = b * spec.block_iters;
          const std::uint64_t it_hi =
              std::min<std::uint64_t>(spec.iterations,
                                      it_lo + spec.block_iters);

          std::fill(sums.begin(), sums.end(), 0.0);
          std::fill(hits.begin(), hits.end(), 0);
          for (std::uint64_t it = it_lo; it < it_hi; ++it) {
            Rng rng = Rng::stream(race_instance_seed(spec.seed, n), it);
            sample_instance_into(spec.ranges, n, rng, spec.root, drawn);

            // The realised path executes on a per-draw synthetic grid; the
            // heuristics then see the instance *derived* from that grid —
            // bit-identical to the draw by realise_instance's contract,
            // but derived, so the whole pipeline is the executing one.
            std::optional<topology::Grid> grid;
            std::optional<sched::Instance> derived;
            collective::BackendPtr local;
            const collective::Backend* backend = shared_backend.get();
            const sched::Instance* inst = &drawn;
            if (spec.realise) {
              grid.emplace(realise_instance(drawn));
              derived.emplace(
                  sched::Instance::from_grid(*grid, spec.root, MiB(1)));
              collective::BackendOptions cell_opts;
              cell_opts.grid = &*grid;
              cell_opts.jitter = {spec.jitter};
              local = registry.make(backend_name, cell_opts);
              backend = local.get();
              inst = &*derived;
            }

            Time best = std::numeric_limits<Time>::infinity();
            for (std::size_t s = 0; s < n_comps; ++s) {
              const sched::SchedulerRuntimeInfo info(
                  *inst, spec.realise ? MiB(1) : Bytes{0},
                  comps[s].options().completion);
              // A race cannot skip a refusing entry per iteration without
              // skewing the hit-rate denominator, so a refusal is a
              // designed error; grid sweeps are where gated entries are
              // skipped (backend_sweep).
              if (!comps[s].entry().can_schedule(info))
                throw InvalidInput(
                    "scheduler '" + std::string(comps[s].name()) +
                    "' refused a sampled instance (" + std::to_string(n) +
                    " clusters, iteration " + std::to_string(it) +
                    "): the Monte-Carlo race needs entries that accept "
                    "every draw; shape-gated entries belong in grid "
                    "sweeps, which skip them");
              mk[s] = backend
                          ->bcast(comps[s].entry(), info,
                                  race_exec_seed(spec.seed, n, it,
                                                 comps[s].name()))
                          .completion;
              sums[s] += mk[s];
              best = std::min(best, mk[s]);
            }
            sums[n_comps] += best;
            const Time cutoff = best * (1.0 + spec.hit_epsilon);
            for (std::size_t s = 0; s < n_comps; ++s)
              if (mk[s] <= cutoff) ++hits[s];
          }

          for (std::size_t s = 0; s < n_series; ++s)
            partial_sum[s * n_cells + cell] = sums[s];
          for (std::size_t s = 0; s < n_comps; ++s)
            partial_hits[s * n_cells + cell] = hits[s];
        }
      });

  // Fold the blocks of each point in block order: the fold, not the
  // worker that computed a block, fixes the float summation order.
  for (std::size_t s = 0; s < n_series; ++s) {
    auto& series = r.series[s];
    series.makespan_s.assign(n_points, 0.0);
    if (s < n_comps) series.hits.assign(n_points, 0.0);
    for (std::size_t p = 0; p < n_points; ++p) {
      const std::size_t first = s * n_cells + p * n_blocks;
      double total = 0.0;
      for (std::size_t b = 0; b < n_blocks; ++b)
        total += partial_sum[first + b];
      series.makespan_s[p] = total / static_cast<double>(spec.iterations);
      if (s < n_comps) {
        std::uint64_t h = 0;
        for (std::size_t b = 0; b < n_blocks; ++b)
          h += partial_hits[first + b];
        series.hits[p] = static_cast<double>(h);
      }
    }
  }
  return r;
}

}  // namespace gridcast::exp
