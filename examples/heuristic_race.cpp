// Monte-Carlo heuristic race on random Table 2 grids (the Figs. 1-4
// scenario): mean makespan and hit-rate per strategy for a few cluster
// counts.  Usage: heuristic_race [clusters...]   (default: 5 10 20 40)

#include <cstdlib>
#include <iostream>
#include <vector>

#include "exp/montecarlo.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gridcast;

  std::vector<std::size_t> counts;
  for (int i = 1; i < argc; ++i) {
    const long v = std::strtol(argv[i], nullptr, 10);
    if (v < 2) {
      std::cerr << "cluster counts must be >= 2\n";
      return 1;
    }
    counts.push_back(static_cast<std::size_t>(v));
  }
  if (counts.empty()) counts = {5, 10, 20, 40};

  const BenchOptions opt = BenchOptions::from_env(2000);
  ThreadPool pool(opt.threads);

  exp::RaceGridSpec spec;
  spec.cluster_counts = counts;
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  try {
    const io::BenchReport r =
        exp::run_race_grid(sched::paper_heuristics(), spec, pool);
    const auto iters = static_cast<double>(r.iterations);
    for (std::size_t p = 0; p < r.sizes.size(); ++p) {
      std::cout << "\n== " << r.sizes[p] << " clusters, " << r.iterations
                << " iterations ==\n";
      Table t({"heuristic", "mean (s)", "hit rate"});
      for (const auto& s : r.series) {
        // The trailing GlobalMin row has no hits: it attains itself.
        const double rate = s.hits.empty() ? 1.0 : s.hits[p] / iters;
        t.add_row(s.name, {s.makespan_s[p], rate}, 3);
      }
      t.print(std::cout);
    }
  } catch (const InvalidInput& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
  return 0;
}
