#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "exp/param_ranges.hpp"
#include "exp/sweep.hpp"
#include "plogp/hierarchical_predict.hpp"
#include "sched/auto_scheduler.hpp"
#include "sched/evaluate.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using collective::Verb;
using Id = Tracer::NameId;

/// Span names, looked up once per replay.
struct Names {
  explicit Names(Tracer& tr)
      : draw(tr.name("exp.race.draw")),
        sample(tr.name("exp.sample")),
        sweep(tr.name("exp.sweep")),
        cell(tr.name("exp.sweep.cell")),
        cache(tr.name("exp.instance_cache")),
        derive(tr.name("sched.derive")),
        order(tr.name("sched.order")),
        evaluate(tr.name("sched.evaluate")),
        plogp_bcast(tr.name("plogp.bcast")),
        plogp_scatter(tr.name("plogp.scatter")),
        plogp_alltoall(tr.name("plogp.alltoall")),
        sim_bcast(tr.name("sim.bcast")),
        sim_scatter(tr.name("sim.scatter")),
        sim_alltoall(tr.name("sim.alltoall")) {}
  Id draw, sample, sweep, cell, cache, derive, order, evaluate, plogp_bcast,
      plogp_scatter, plogp_alltoall, sim_bcast, sim_scatter, sim_alltoall;
};

/// Hands a backend the orders the replay already computed (one per root
/// cluster), so the backend's span holds no scheduling work.
class ReplayEntry final : public sched::SchedulerEntry {
 public:
  ReplayEntry(const sched::SchedulerEntry& real, std::size_t clusters)
      : SchedulerEntry(real.options()), real_(real), by_root_(clusters) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return real_.name();
  }
  [[nodiscard]] bool can_schedule(
      const sched::SchedulerRuntimeInfo& info) const override {
    return real_.can_schedule(info);
  }
  [[nodiscard]] sched::SendOrder order(
      const sched::SchedulerRuntimeInfo& info) const override {
    return by_root_.at(info.instance().root());
  }
  using SchedulerEntry::order;

  void set(ClusterId root, sched::SendOrder order) {
    by_root_.at(root) = std::move(order);
  }

 private:
  const sched::SchedulerEntry& real_;
  std::vector<sched::SendOrder> by_root_;
};

struct Replayer {
  const Inputs& in;
  Tracer& tr;
  Names names;
  ReplayCounts c;
  std::vector<const sched::AutoScheduler*> autos;

  Replayer(const Inputs& inputs, Tracer& tracer)
      : in(inputs), tr(tracer), names(tracer) {
    for (const auto& comp : in.comps)
      autos.push_back(
          dynamic_cast<const sched::AutoScheduler*>(&comp.entry()));
  }

  void check(double replayed, double reported) {
    if (replayed != reported) ++c.mismatched;
  }

  /// One order() call under a sched.order span; "auto" is asked through
  /// propose() so its candidate accounting is visible.
  sched::SendOrder order(std::size_t s, const sched::SchedulerRuntimeInfo& info,
                         std::uint64_t draw) {
    const Scope span(tr, names.order, draw);
    if (autos[s] == nullptr) return in.comps[s].entry().order(info);
    sched::AutoScheduler::Proposal p = autos[s]->propose(info);
    ++c.auto_proposals;
    c.auto_evaluated += p.evaluated;
    c.auto_pruned += p.pruned;
    c.auto_gated += p.gated;
    return std::move(p.order);
  }

  /// PlogpBackend::bcast, one layer call at a time.
  Time plogp_bcast(std::size_t s, const sched::SchedulerRuntimeInfo& info,
                   std::uint64_t draw) {
    const Scope span(tr, names.plogp_bcast, draw);
    const sched::SendOrder o = order(s, info, draw);
    const Scope eval(tr, names.evaluate, draw);
    ++c.evaluate_calls;
    return sched::evaluate_order(info.instance(), o, info.completion())
        .makespan;
  }

  Time executed(Id name, std::uint64_t draw,
                const std::function<collective::CollectiveResult()>& call) {
    collective::CollectiveResult r;
    {
      const Scope span(tr, name, draw);
      r = call();
    }
    c.sim_messages += r.messages;
    c.sim_wan_messages += r.wan_messages;
    c.sim_bytes += r.bytes;
    return r.completion;
  }

  sched::Instance derive(const topology::Grid& grid, ClusterId root, Bytes m,
                         std::uint64_t draw) {
    const Scope span(tr, names.derive, draw);
    ++c.derive_calls;
    return sched::Instance::from_grid(grid, root, m);
  }

  exp::InstancePtr cached(exp::InstanceCache& cache, ClusterId root, Bytes m,
                          std::uint64_t draw) {
    const std::uint64_t misses = cache.misses();
    tr.open(names.cache, draw);
    exp::InstancePtr p = cache.get(root, m);
    ++c.cache_lookups;
    if (cache.misses() == misses) {
      ++c.cache_hits;
    } else {
      tr.rename(names.derive);
      ++c.derive_calls;
    }
    tr.close();
    return p;
  }

  // -- Monte-Carlo race (exp::run_race_grid, unsharded) ------------------

  void race(const io::BenchReport& ref) {
    const exp::RaceGridSpec& spec = in.race;
    const std::size_t n_comps = in.comps.size();
    const std::uint64_t iters = spec.iterations;
    const std::size_t n_blocks =
        static_cast<std::size_t>((iters + spec.block_iters - 1) /
                                 spec.block_iters);
    sched::Instance drawn;
    std::vector<Time> mk(n_comps);
    for (std::size_t p = 0; p < spec.cluster_counts.size(); ++p) {
      const std::size_t n = spec.cluster_counts[p];
      tr.set_group(n);
      std::vector<std::vector<double>> sums(
          n_comps + 1, std::vector<double>(n_blocks, 0.0));
      std::vector<double> hits(n_comps, 0.0);
      for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t draw = p * iters + it;
        const std::size_t b = static_cast<std::size_t>(it / spec.block_iters);
        const Scope span(tr, names.draw, draw);
        {
          const Scope sample(tr, names.sample, draw);
          Rng rng = Rng::stream(exp::race_instance_seed(spec.seed, n), it);
          exp::sample_instance_into(spec.ranges, n, rng, spec.root, drawn);
        }
        Time best = std::numeric_limits<Time>::infinity();
        for (std::size_t s = 0; s < n_comps; ++s) {
          const sched::SchedulerRuntimeInfo info(
              drawn, 0, in.comps[s].options().completion);
          if (!in.comps[s].entry().can_schedule(info))
            throw std::runtime_error("competitor refused a sampled instance");
          mk[s] = plogp_bcast(s, info, draw);
          sums[s][b] += mk[s];
          best = std::min(best, mk[s]);
        }
        sums[n_comps][b] += best;
        const Time cutoff = best * (1.0 + spec.hit_epsilon);
        for (std::size_t s = 0; s < n_comps; ++s)
          if (mk[s] <= cutoff) hits[s] += 1.0;
        c.schedules += n_comps;
      }
      // Fold blocks in block order, as the engine does.
      for (std::size_t s = 0; s <= n_comps; ++s) {
        double total = 0.0;
        for (const double v : sums[s]) total += v;
        check(total / static_cast<double>(iters), ref.series[s].makespan_s[p]);
        if (s < n_comps) check(hits[s], ref.series[s].hits[p]);
      }
    }
  }

  // -- Size sweep (exp::run_race_sweep -> exp::backend_sweep) ------------

  void sweep(const GridInputs& g, const exp::RaceSpec& spec,
             exp::InstanceCache& cache, const io::BenchReport& ref,
             std::uint64_t& next_draw) {
    const bool sim = spec.backend == "sim";
    const collective::Backend& backend = sim ? *g.sim : *g.plogp;
    const auto clusters = static_cast<ClusterId>(g.grid.cluster_count());
    const std::vector<Bytes>& sizes = spec.sizes;
    tr.set_group(clusters);
    const Scope span(tr, names.sweep, next_draw);

    std::vector<ClusterId> gate_roots;
    if (spec.verb == Verb::kAlltoall) {
      for (ClusterId r = 0; r < clusters; ++r) gate_roots.push_back(r);
    } else {
      gate_roots.push_back(spec.root);
    }
    for (std::size_t i = 0; i < sizes.size() * gate_roots.size(); ++i)
      (void)cached(cache, gate_roots[i % gate_roots.size()],
                   sizes[i / gate_roots.size()], next_draw);

    std::vector<std::size_t> raced;
    for (std::size_t s = 0; s < in.comps.size(); ++s) {
      bool ok = true;
      for (std::size_t i = 0; ok && i < sizes.size(); ++i) {
        for (const ClusterId r : gate_roots) {
          const exp::InstancePtr inst = cached(cache, r, sizes[i], next_draw);
          const sched::SchedulerRuntimeInfo info(
              *inst, sizes[i],
              spec.verb == Verb::kBcast ? in.comps[s].options().completion
                                        : sched::CompletionModel::kEager);
          ok = in.comps[s].entry().can_schedule(info);
          if (!ok) break;
        }
      }
      if (ok) raced.push_back(s);
    }

    const bool base = spec.verb == Verb::kBcast &&
                      !backend.baseline_series().empty();
    std::vector<std::string> series;
    if (base) series.emplace_back(backend.baseline_series());
    for (const std::size_t s : raced) series.emplace_back(in.comps[s].name());
    bool same = series.size() == ref.series.size();
    for (std::size_t s = 0; same && s < series.size(); ++s)
      same = series[s] == ref.series[s].name;
    if (!same) {
      c.mismatched += ref.series.size() * sizes.size();
      return;
    }

    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const Bytes m = sizes[i];
      for (std::size_t k = 0; k < series.size(); ++k) {
        const std::uint64_t draw = next_draw++;
        const Scope cell_span(tr, names.cell, draw);
        const std::uint64_t seed =
            exp::measured_cell_seed(spec.seed, i, series[k]);
        Time completion = 0.0;
        if (base && k == 0) {
          completion = executed(names.sim_bcast, draw, [&] {
            return backend.baseline_bcast(spec.root, m, seed);
          });
        } else {
          const std::size_t s = raced[k - (base ? 1 : 0)];
          completion = verb_cell(g, spec, backend, sim, cache, s, m, seed,
                                 draw);
        }
        check(completion, ref.series[k].makespan_s[i]);
        ++c.schedules;
      }
    }
  }

  Time verb_cell(const GridInputs& g, const exp::RaceSpec& spec,
                 const collective::Backend& backend, bool sim,
                 exp::InstanceCache& cache, std::size_t s, Bytes m,
                 std::uint64_t seed, std::uint64_t draw) {
    const auto clusters = g.grid.cluster_count();
    ReplayEntry replayed(in.comps[s].entry(), clusters);
    const auto receivers = [](const sched::SendOrder& o) {
      std::vector<ClusterId> r;
      for (const auto& pair : o) r.push_back(pair.receiver);
      return r;
    };
    switch (spec.verb) {
      case Verb::kBcast: {
        const exp::InstancePtr inst = cached(cache, spec.root, m, draw);
        const sched::SchedulerRuntimeInfo info(
            *inst, m, in.comps[s].options().completion);
        if (!sim) return plogp_bcast(s, info, draw);
        replayed.set(spec.root, order(s, info, draw));
        return executed(names.sim_bcast, draw,
                        [&] { return backend.bcast(replayed, info, seed); });
      }
      case Verb::kScatter: {
        const sched::Instance inst = derive(g.grid, spec.root, m, draw);
        sched::SendOrder o = order(s, sched::SchedulerRuntimeInfo(inst, m),
                                   draw);
        if (!sim) {
          const std::vector<ClusterId> wan = receivers(o);
          const Scope span(tr, names.plogp_scatter, draw);
          return plogp::predict_hierarchical_scatter(g.grid, spec.root, m, wan)
              .completion;
        }
        replayed.set(spec.root, std::move(o));
        return executed(names.sim_scatter, draw, [&] {
          return backend.scatter(replayed, spec.root, m, seed);
        });
      }
      case Verb::kAlltoall: {
        std::vector<std::vector<ClusterId>> dest(clusters);
        for (ClusterId root = 0; root < clusters; ++root) {
          const sched::Instance inst = derive(g.grid, root, m, draw);
          sched::SendOrder o =
              order(s, sched::SchedulerRuntimeInfo(inst, m), draw);
          dest[root] = receivers(o);
          replayed.set(root, std::move(o));
        }
        if (!sim) {
          const Scope span(tr, names.plogp_alltoall, draw);
          return plogp::predict_hierarchical_alltoall(g.grid, m, dest)
              .completion;
        }
        return executed(names.sim_alltoall, draw, [&] {
          return backend.alltoall(replayed, m, seed);
        });
      }
    }
    throw std::logic_error("unknown verb");
  }
};

}  // namespace

ReplayCounts replay(const Inputs& in,
                    const std::vector<io::BenchReport>& reference,
                    Tracer& tr) {
  Replayer r(in, tr);
  if (in.def->engine == Engine::kRace) {
    r.race(reference.at(0));
    return r.c;
  }
  std::size_t k = 0;
  std::uint64_t next_draw = 0;
  for (const auto& g : in.grids) {
    exp::InstanceCache cache(g->grid);
    for (const auto& spec : in.sweeps)
      r.sweep(*g, spec, cache, reference.at(k++), next_draw);
  }
  return r.c;
}

std::vector<std::pair<std::string, double>> order_ladder(std::uint64_t seed) {
  constexpr std::uint64_t kLadderDomain = 0x4c4144444552ULL;  // "LADDER"
  constexpr double kMinSeconds = 0.05;  // per (entry, count) cell
  constexpr double kMinSample = 1e-4;   // batch calls faster than this
  constexpr std::size_t kMinSamples = 3;
  const std::vector<std::string> entries = {
      "FlatTree", "FEF",          "ECEF",         "ECEF-LA",
      "ECEF-LAt", "ECEF-LAT",     "BottomUp",     "Mixed",
      "ECEF-AvgEdge", "ECEF-AvgMove", "auto"};
  const std::vector<std::size_t> counts = {10, 50, 100, 200};
  std::vector<sched::Instance> insts;
  for (const std::size_t n : counts) {
    Rng rng = Rng::stream(seed ^ kLadderDomain, n);
    insts.push_back(exp::sample_instance(exp::ParamRanges::paper(), n, rng, 0));
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& name : entries) {
    const sched::Scheduler entry(name);
    for (const sched::Instance& inst : insts) {
      const sched::SchedulerRuntimeInfo info(inst);
      const std::size_t n = inst.clusters();
      const auto timed = [&](std::size_t calls) {
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < calls; ++k)
          if (entry.order(info).size() + 1 != n)
            throw std::runtime_error("ladder order does not cover the grid");
        return seconds_since(t0) / static_cast<double>(calls);
      };
      const auto start = Clock::now();
      std::vector<double> per_call = {timed(1)};
      const std::size_t batch =
          per_call[0] >= kMinSample
              ? 1
              : static_cast<std::size_t>(
                    std::min(1e4, std::ceil(kMinSample / per_call[0])));
      while (per_call.size() < kMinSamples ||
             seconds_since(start) < kMinSeconds)
        per_call.push_back(timed(batch));
      std::sort(per_call.begin(), per_call.end());
      out.emplace_back(name + ".n" + std::to_string(n),
                       per_call[per_call.size() / 2]);
    }
  }
  return out;
}

}  // namespace perfbench
