// Ablation (DESIGN.md §4.7): the mixed strategy the paper's Section 6
// recommends — ECEF-LA on small grids, ECEF-LAT on large ones.  For each
// cluster count we report both pure strategies and what the mixed strategy
// (threshold = 10) would deliver, in mean makespan and hit rate against
// the full ECEF family.

#include "common.hpp"
#include "sched/mixed.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = BenchOptions::from_env(1500);
  benchx::print_banner("Ablation: mixed strategy",
                       "ECEF-LA vs ECEF-LAT vs mixed(threshold=10)", opt);
  ThreadPool pool(opt.threads);

  const auto family = sched::ecef_family();  // ECEF, LA, LAt, LAT
  const sched::MixedStrategy mixed(10);

  exp::RaceGridSpec spec;
  spec.cluster_counts = {4, 8, 10, 12, 20, 35, 50};
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  const io::BenchReport r = exp::run_race_grid(family, spec, pool);

  Table t({"clusters", "ECEF-LA mean", "ECEF-LAT mean", "mixed mean",
           "ECEF-LA hits", "ECEF-LAT hits", "mixed hits", "mixed uses"});
  for (std::size_t p = 0; p < r.sizes.size(); ++p) {
    const std::size_t n = r.sizes[p];
    // Index into the family: 1 = ECEF-LA, 3 = ECEF-LAT.
    const std::size_t pick =
        mixed.choice(n) == "ECEF-LA" ? 1 : 3;
    const auto mean = [&](std::size_t s) {
      return Table::fmt(r.series[s].makespan_s[p], 3);
    };
    const auto hits = [&](std::size_t s) {
      return Table::fmt(r.series[s].hits[p], 0);
    };
    t.add_row({std::to_string(n), mean(1), mean(3), mean(pick), hits(1),
               hits(3), hits(pick), std::string(mixed.choice(n))});
  }
  benchx::emit(t, opt);
  return 0;
}
