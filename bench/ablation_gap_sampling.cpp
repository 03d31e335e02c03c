// Ablation (DESIGN.md §4.9): Table 2 gap sampling.  The paper's sampling
// sentence is ambiguous; this bench runs the ECEF-family hit-rate study
// under both readings.  Per-pair gaps (default) keep transfer
// heterogeneity, which dilutes the T-ordering signal at high cluster
// counts; a shared per-iteration gap removes it, making ECEF-LAT's
// serve-slowest-first ordering all-dominant.  The paper's "constant ~45%"
// for ECEF-LAT sits between the two regimes.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = BenchOptions::from_env(2000);
  benchx::print_banner("Ablation: gap sampling",
                       "ECEF-family hit counts, per-pair vs shared gap", opt);
  ThreadPool pool(opt.threads);
  const auto family = sched::ecef_family();

  exp::RaceGridSpec spec;
  spec.cluster_counts = {5, 15, 30, 50};
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  for (const bool shared : {false, true}) {
    std::cout << "# gap sampling = " << (shared ? "shared-per-iteration"
                                               : "per-pair")
              << '\n';
    std::vector<std::string> header{"clusters"};
    for (const auto& c : family) header.emplace_back(c.name());
    Table t(std::move(header));
    spec.ranges = shared ? exp::ParamRanges::shared_gap()
                         : exp::ParamRanges::paper();
    const io::BenchReport r = exp::run_race_grid(family, spec, pool);
    for (std::size_t p = 0; p < r.sizes.size(); ++p) {
      std::vector<double> row;
      for (std::size_t s = 0; s < family.size(); ++s)
        row.push_back(r.series[s].hits[p]);
      t.add_row(std::to_string(r.sizes[p]), row, 0);
    }
    benchx::emit(t, opt);
  }
  return 0;
}
