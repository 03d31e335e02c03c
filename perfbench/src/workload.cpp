#include "workload.hpp"

#include "exp/param_ranges.hpp"
#include "support/rng.hpp"
#include "topology/generator.hpp"

namespace perfbench {

namespace {

std::vector<std::size_t> range(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t n = lo; n <= hi; ++n) v.push_back(n);
  return v;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // Fig. 1: per-draw fixed costs dominate at n <= 10.
      {"fig1_small", Engine::kRace, range(2, 10), 2000, 120, {}, {}},
      // Fig. 2 sizes: order() of the cubic/quartic heuristics dominates.
      {"fig2_large", Engine::kRace, {10, 25, 50, 100}, 10, 25, {}, {}},
      // Figs. 5/6: every verb, predicted and executed, on generated grids.
      {"executed_verbs", Engine::kSweep, {}, 0, 0, {8, 12, 16, 20, 24},
       {KiB(256), MiB(1), MiB(4)}},
  };
  return defs;
}

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const std::vector<std::string>& competitor_names() {
  static const std::vector<std::string> names = {
      "FlatTree", "FEF",      "ECEF",  "ECEF-LA", "ECEF-LAt",
      "ECEF-LAT", "BottomUp", "Mixed", "auto"};
  return names;
}

std::unique_ptr<Inputs> make_inputs(const WorkloadDef& def,
                                    std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->def = &def;
  // The options every engine resolves its competitors with.
  const sched::HeuristicOptions opts;
  in->comps = exp::resolve_competitors(competitor_names(), opts);
  for (std::size_t s = 0; s < in->comps.size(); ++s)
    if (in->comps[s].name() == "auto") in->auto_index = s;

  if (def.engine == Engine::kRace) {
    in->race.sched_names = competitor_names();
    in->race.cluster_counts = def.clusters;
    in->race.iterations = def.draws;
    in->race.seed = seed;
    in->race.backend = "plogp";
    // The selection set is the first draws of every point, drawn from the
    // race's own streams.
    for (const std::size_t n : def.clusters) {
      for (std::uint64_t it = 0; it < def.select_draws; ++it) {
        Rng rng = Rng::stream(exp::race_instance_seed(seed, n), it);
        in->select_set.push_back(exp::sample_instance(in->race.ranges, n, rng,
                                                      in->race.root));
        in->select_group.push_back(n);
      }
    }
    return in;
  }

  for (const std::uint32_t n : def.grid_clusters) {
    topology::GeneratorConfig cfg;
    cfg.clusters = n;
    cfg.sites = 4;
    // Equal cluster sizes keep a pass's simulated message count the same
    // for every seed; the seed still draws every link and intra-cluster
    // parameter.
    cfg.min_cluster_size = 16;
    cfg.max_cluster_size = 16;
    Rng rng = Rng::stream(seed, n);
    auto g = std::make_unique<GridInputs>(GridInputs{
        "random_grid_" + std::to_string(n), topology::random_grid(cfg, rng),
        nullptr, nullptr});
    collective::BackendOptions bopts;
    bopts.grid = &g->grid;
    g->plogp = collective::backend_registry().make("plogp", bopts);
    bopts.jitter = {exp::RaceSpec{}.jitter};
    g->sim = collective::backend_registry().make("sim", bopts);
    // The selection set: every instance the sweeps schedule, i.e. each
    // (root, size) the all-to-all derives.
    for (ClusterId root = 0; root < n; ++root) {
      for (const Bytes m : def.sizes) {
        in->select_set.push_back(sched::Instance::from_grid(g->grid, root, m));
        in->select_group.push_back(n);
      }
    }
    in->grids.push_back(std::move(g));
  }
  for (const collective::Verb verb : collective::kAllVerbs) {
    for (const char* backend : {"plogp", "sim"}) {
      exp::RaceSpec spec;
      spec.sched_names = competitor_names();
      spec.sizes = def.sizes;
      spec.backend = backend;
      spec.verb = verb;
      spec.seed = seed;
      in->sweeps.push_back(std::move(spec));
    }
  }
  return in;
}

EngineRun run_engine(const Inputs& in, ThreadPool& pool) {
  EngineRun run;
  if (in.def->engine == Engine::kRace) {
    run.reports.push_back(exp::run_race_grid(in.race, pool));
    run.schedules = in.def->clusters.size() * in.def->draws * in.comps.size();
  } else {
    for (const auto& g : in.grids) {
      exp::InstanceCache cache(g->grid);
      for (const auto& spec : in.sweeps) {
        run.reports.push_back(exp::run_race_sweep(cache, g->name, spec, pool));
        const auto& r = run.reports.back();
        run.schedules += r.series.size() * r.sizes.size();
      }
    }
  }
  for (const auto& r : run.reports) run.json += io::bench_to_json(r);
  return run;
}

}  // namespace perfbench
