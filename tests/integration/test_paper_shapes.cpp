// Statistical reproduction of the paper's figure *shapes* at reduced
// iteration counts (the benches run the full-scale versions).  Each test
// pins one qualitative claim from the paper's evaluation.

#include <gtest/gtest.h>

#include "exp/montecarlo.hpp"

namespace gridcast {
namespace {

/// One parameter point of the Monte-Carlo race, seed 42.
io::BenchReport race(std::size_t clusters, std::uint64_t iters,
                     const std::vector<sched::Scheduler>& comps) {
  exp::RaceGridSpec spec;
  spec.cluster_counts = {clusters};
  spec.iterations = iters;
  spec.seed = 42;
  ThreadPool pool(0);
  return exp::run_race_grid(comps, spec, pool);
}

io::BenchReport race(std::size_t clusters, std::uint64_t iters = 600) {
  return race(clusters, iters, sched::paper_heuristics());
}

double mean(const io::BenchReport& r, std::size_t s) {
  return r.series[s].makespan_s[0];
}

double hit_rate(const io::BenchReport& r, std::size_t s) {
  return r.series[s].hits[0] / static_cast<double>(r.iterations);
}

// Index map for paper_heuristics(): 0 Flat, 1 FEF, 2 ECEF, 3 ECEF-LA,
// 4 ECEF-LAt, 5 ECEF-LAT, 6 BottomUp; the trailing series is GlobalMin.
constexpr std::size_t kFlat = 0, kFef = 1, kEcef = 2, kLa = 3, kLat = 4,
                      kLAT = 5, kBu = 6;

TEST(PaperShapes, Fig1FlatTreeIsWorstAndEcefFamilyBest) {
  const auto r = race(10);
  for (std::size_t s = 1; s < 7; ++s) EXPECT_GT(mean(r, kFlat), mean(r, s));
  double family_best = 1e18;
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    EXPECT_LT(mean(r, fam), mean(r, kFef));
    family_best = std::min(family_best, mean(r, fam));
  }
  // The best ECEF variant leads the field; BottomUp lands between the
  // family band and FEF (paper Fig. 1 has it strictly above the family -
  // under the eager completion model it overlaps the band's top edge).
  EXPECT_LT(family_best, mean(r, kBu));
}

TEST(PaperShapes, Fig1BottomUpBeatsFef) {
  const auto r = race(10);
  EXPECT_LT(mean(r, kBu), mean(r, kFef));
}

TEST(PaperShapes, Fig2FlatTreeGrowsLinearly) {
  const auto r10 = race(10);
  const auto r40 = race(40);
  const double growth = mean(r40, kFlat) / mean(r10, kFlat);
  // Roughly 4x the clusters -> roughly linear growth in root gaps.
  EXPECT_GT(growth, 2.5);
}

TEST(PaperShapes, Fig2EcefFamilyIsNearlyFlatInClusterCount) {
  const auto r10 = race(10);
  const auto r40 = race(40);
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    const double growth = mean(r40, fam) / mean(r10, fam);
    EXPECT_LT(growth, 1.35) << "family index " << fam;
  }
}

TEST(PaperShapes, Fig3EcefFamilyStaysInNarrowBand) {
  const auto r = race(30);
  double lo = 1e9, hi = 0.0;
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    lo = std::min(lo, mean(r, fam));
    hi = std::max(hi, mean(r, fam));
  }
  EXPECT_LT(hi / lo, 1.10);  // within ~10% of each other, as in Fig. 3
}

TEST(PaperShapes, Fig4TiesMakeHitsExceedIterations) {
  const auto r = race(5, 400, sched::ecef_family());
  double total = 0.0;
  for (std::size_t s = 0; s + 1 < r.series.size(); ++s)
    total += r.series[s].hits[0];
  // the paper's Fig. 4 sums above 10000
  EXPECT_GT(total, static_cast<double>(r.iterations));
}

TEST(PaperShapes, Fig4TAwareLookaheadLeadsOnSmallGrids) {
  // At small-to-mid cluster counts the grid-aware ECEF-LAT achieves the
  // highest hit rate of the family (the regime the paper recommends the
  // mixed strategy around).
  const auto r = race(8, 600, sched::ecef_family());
  // ecef_family: 0 ECEF, 1 LA, 2 LAt, 3 LAT.
  EXPECT_GT(r.series[3].hits[0], r.series[0].hits[0]);
  EXPECT_GT(r.series[3].hits[0], r.series[1].hits[0]);
}

TEST(PaperShapes, Fig4SpeedOrientedHitRatesDecayWithScale) {
  const auto rs = race(5, 500, sched::ecef_family());
  const auto rl = race(40, 500, sched::ecef_family());
  // ECEF and ECEF-LA match the family minimum far less often at 40
  // clusters than at 5 (the paper's decaying curves).
  EXPECT_LT(hit_rate(rl, 0), hit_rate(rs, 0));
  EXPECT_LT(hit_rate(rl, 1), hit_rate(rs, 1));
}

TEST(PaperShapes, GlobalMinimumTightensAgainstBestHeuristic) {
  // Sanity on the hit-rate metric itself: the global minimum can never
  // exceed the best single strategy, and some strategy attains it.
  const auto r = race(15, 300);
  double best = 1e18;
  for (std::size_t s = 0; s + 1 < r.series.size(); ++s)
    best = std::min(best, mean(r, s));
  EXPECT_LE(r.series.back().makespan_s[0], best);
}

}  // namespace
}  // namespace gridcast
