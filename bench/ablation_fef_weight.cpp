// Ablation (DESIGN.md §4.2): FEF's edge weight.  Bhat defines the weight
// as "usually the latency" (the paper-faithful default); under Table 2
// ranges the gap dominates the transfer cost by two orders of magnitude,
// so latency-only FEF picks edges nearly at random with respect to the
// true cost.  Giving FEF the informed g+L weight recovers much of the gap
// to ECEF — evidence that FEF's weakness in Figs. 1-2 is the weight, not
// the greedy structure.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = BenchOptions::from_env(2000);
  benchx::print_banner("Ablation: FEF edge weight",
                       "mean completion time (s), 1 MB broadcast", opt);
  ThreadPool pool(opt.threads);

  sched::HeuristicOptions gl, lonly;
  gl.fef_weight = sched::FefWeight::kGapPlusLatency;
  lonly.fef_weight = sched::FefWeight::kLatencyOnly;
  const std::vector<sched::Scheduler> comps{
      sched::Scheduler("FEF", gl),
      sched::Scheduler("FEF", lonly),
      sched::Scheduler("ECEF")};

  exp::RaceGridSpec spec;
  spec.cluster_counts = {4, 8, 16, 32, 50};
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  const io::BenchReport r = exp::run_race_grid(comps, spec, pool);

  Table t({"clusters", "FEF(g+L ablation)", "FEF(L only, paper)", "ECEF"});
  for (std::size_t p = 0; p < r.sizes.size(); ++p)
    t.add_row(std::to_string(r.sizes[p]),
              {r.series[0].makespan_s[p], r.series[1].makespan_s[p],
               r.series[2].makespan_s[p]},
              3);
  benchx::emit(t, opt);
  return 0;
}
