// Ablation (DESIGN.md §4.1): BottomUp's inner cost with and without the
// sender ready time.  The paper's formula max_j min_i (g_ij + L_ij + T_j)
// omits RT_i; its prose says senders are "released earlier, ready to be
// selected again", which only matters if readiness is modelled.  FEF is
// included as the reference point the paper compares BottomUp against
// (Fig. 1's "BottomUp beats FEF" observation).

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = BenchOptions::from_env(2000);
  benchx::print_banner("Ablation: BottomUp ready-time",
                       "mean completion time (s), 1 MB broadcast", opt);
  ThreadPool pool(opt.threads);

  sched::HeuristicOptions ready, paper;
  ready.bottomup = sched::BottomUpPolicy::kReadyTimeAware;
  paper.bottomup = sched::BottomUpPolicy::kPaperFormula;
  const std::vector<sched::Scheduler> comps{
      sched::Scheduler("BottomUp", ready),
      sched::Scheduler("BottomUp", paper),
      sched::Scheduler("FEF"),
      sched::Scheduler("ECEF-LAT")};

  exp::RaceGridSpec spec;
  spec.cluster_counts = {4, 8, 16, 32, 50};
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  const io::BenchReport r = exp::run_race_grid(comps, spec, pool);

  Table t({"clusters", "BottomUp(RT-aware)", "BottomUp(paper-formula)", "FEF",
           "ECEF-LAT"});
  for (std::size_t p = 0; p < r.sizes.size(); ++p)
    t.add_row(std::to_string(r.sizes[p]),
              {r.series[0].makespan_s[p], r.series[1].makespan_s[p],
               r.series[2].makespan_s[p], r.series[3].makespan_s[p]},
              3);
  benchx::emit(t, opt);
  return 0;
}
