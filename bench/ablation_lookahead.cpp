// Ablation: the lookahead function zoo.  Section 4.4 recounts that Bhat
// proposed several lookahead alternatives beyond the minimum-edge form —
// the average cost from P_j to the rest of B, and the average A->B cost if
// P_j joined A.  This bench races all six ECEF lookahead flavours so the
// design space the paper built ECEF-LAt/-LAT within is visible.

#include "common.hpp"
#include "sched/evaluate.hpp"
#include "support/stats.hpp"

namespace {

using namespace gridcast;

/// Race arbitrary lookaheads (the Scheduler registry only exposes the
/// paper's four, so this bench drives ecef_order directly).
struct Row {
  sched::Lookahead la;
  const char* name;
};

}  // namespace

int main() {
  using namespace gridcast;
  const BenchOptions opt = BenchOptions::from_env(2000);
  benchx::print_banner("Ablation: lookahead functions",
                       "mean completion (s) of every ECEF lookahead", opt);
  ThreadPool pool(opt.threads);

  constexpr Row kRows[] = {
      {sched::Lookahead::kNone, "none(ECEF)"},
      {sched::Lookahead::kMinEdge, "min-edge(LA)"},
      {sched::Lookahead::kMinEdgePlusT, "min-edge+T(LAt)"},
      {sched::Lookahead::kMaxEdgePlusT, "max-edge+T(LAT)"},
      {sched::Lookahead::kAvgEdge, "avg-edge"},
      {sched::Lookahead::kAvgAfterMove, "avg-after-move"},
  };

  std::vector<std::string> header{"clusters"};
  for (const auto& row : kRows) header.emplace_back(row.name);
  Table t(std::move(header));

  for (const std::size_t n : {5UL, 10UL, 20UL, 35UL, 50UL}) {
    std::vector<RunningStats> stats(std::size(kRows));
    pool.parallel_for(opt.iterations, [&](std::size_t lo, std::size_t hi) {
      std::vector<RunningStats> local(std::size(kRows));
      for (std::size_t it = lo; it < hi; ++it) {
        Rng rng = Rng::stream(opt.seed, it);
        const auto inst =
            exp::sample_instance(exp::ParamRanges::paper(), n, rng);
        for (std::size_t s = 0; s < std::size(kRows); ++s) {
          const auto order = sched::ecef_order(inst, kRows[s].la);
          local[s].add(sched::evaluate_order(inst, order).makespan);
        }
      }
      static std::mutex mu;
      std::lock_guard lk(mu);
      for (std::size_t s = 0; s < std::size(kRows); ++s)
        stats[s].merge(local[s]);
    });
    std::vector<double> row;
    for (const auto& s : stats) row.push_back(s.mean());
    t.add_row(std::to_string(n), row, 3);
  }
  benchx::emit(t, opt);
  return 0;
}
