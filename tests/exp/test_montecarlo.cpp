#include "exp/montecarlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

// The engine's thread-count byte-identity, competitor-growth invariance
// and CLI surface are pinned in test_race_cli.cpp; these cases cover the
// hit-count semantics and the competitor-list overload.
namespace gridcast::exp {
namespace {

RaceGridSpec small_spec() {
  RaceGridSpec spec;
  spec.cluster_counts = {5};
  spec.iterations = 200;
  spec.seed = 42;
  return spec;
}

TEST(Race, SingleCompetitorAlwaysHits) {
  ThreadPool pool(0);
  const std::vector<sched::Scheduler> solo{sched::Scheduler("ECEF")};
  const io::BenchReport r = run_race_grid(solo, small_spec(), pool);
  ASSERT_EQ(r.series.size(), 2u);  // ECEF + GlobalMin
  EXPECT_EQ(r.series[0].hits[0], static_cast<double>(r.iterations));
  EXPECT_EQ(r.series[1].makespan_s[0], r.series[0].makespan_s[0]);
}

TEST(Race, SeedChangesResults) {
  ThreadPool pool(0);
  RaceGridSpec spec = small_spec();
  const io::BenchReport a =
      run_race_grid(sched::paper_heuristics(), spec, pool);
  spec.seed = 43;
  const io::BenchReport b =
      run_race_grid(sched::paper_heuristics(), spec, pool);
  EXPECT_NE(a.series.back().makespan_s[0], b.series.back().makespan_s[0]);
}

TEST(Race, PaperOrderingEmergesAtModerateScale) {
  // The Fig. 1 ordering at 10 clusters: the best ECEF-family mean leads,
  // then BottomUp, then FEF, with FlatTree worst.  (BottomUp against
  // plain ECEF is too close to pin: at 20 000 draws BottomUp is ahead by
  // about 0.2%.)
  ThreadPool pool(0);
  RaceGridSpec spec;
  spec.cluster_counts = {10};
  spec.iterations = 500;
  spec.seed = 42;
  const auto comps = sched::paper_heuristics();  // Flat,FEF,ECEF,LA,LAt,LAT,BU
  const io::BenchReport r = run_race_grid(comps, spec, pool);
  const auto mean = [&](std::size_t s) { return r.series[s].makespan_s[0]; };
  const double family_best =
      std::min({mean(2), mean(3), mean(4), mean(5)});
  EXPECT_LT(family_best, mean(6));
  EXPECT_LT(mean(6), mean(1));
  EXPECT_LT(mean(1), mean(0));
}

TEST(Race, TiesCreditEveryAchiever) {
  // The documented Fig. 4 semantics (montecarlo.hpp header): a "hit" goes
  // to *every* strategy whose completion matches the iteration's global
  // minimum, not only to one winner — which is why the paper's counts sum
  // to more than the iteration count.  Two copies of the same entry tie
  // exactly on every draw, so both must be credited every time; only the
  // competitor-list overload can race them (names must be distinct).
  ThreadPool pool(0);
  const std::vector<sched::Scheduler> twins{sched::Scheduler("ECEF"),
                                            sched::Scheduler("ECEF")};
  const io::BenchReport r = run_race_grid(twins, small_spec(), pool);
  const auto iters = static_cast<double>(r.iterations);
  EXPECT_EQ(r.series[0].hits[0], iters);
  EXPECT_EQ(r.series[1].hits[0], iters);
  EXPECT_EQ(r.series[0].hits[0] + r.series[1].hits[0], 2 * iters);
  EXPECT_EQ(r.series[0].makespan_s[0], r.series[1].makespan_s[0]);
}

TEST(Race, HitEpsilonBoundsTheTieBand) {
  // hit_epsilon is *relative*: with an absurdly wide band every strategy
  // "ties" the minimum on every iteration; with a zero band only exact
  // achievers count (and at least one always does).
  ThreadPool pool(0);
  RaceGridSpec spec = small_spec();
  spec.hit_epsilon = 1e6;
  const io::BenchReport wide =
      run_race_grid(sched::paper_heuristics(), spec, pool);
  for (std::size_t s = 0; s + 1 < wide.series.size(); ++s)
    EXPECT_EQ(wide.series[s].hits[0], static_cast<double>(wide.iterations));

  spec.hit_epsilon = 0.0;
  const io::BenchReport tight =
      run_race_grid(sched::paper_heuristics(), spec, pool);
  double total = 0.0;
  for (std::size_t s = 0; s + 1 < tight.series.size(); ++s)
    total += tight.series[s].hits[0];
  EXPECT_GE(total, static_cast<double>(tight.iterations));
}

TEST(Race, ShapeGatedEntryFailsLoudly) {
  // The Monte-Carlo race cannot skip a can_schedule-refusing entry per
  // iteration without skewing the hit-rate denominator, so a refusal is
  // a designed InvalidInput naming the entry — not a deep assert.
  ThreadPool pool(0);
  std::vector<sched::Scheduler> comps = sched::paper_heuristics();
  comps.emplace_back("LAN-Flat");  // Table 2 draws are WAN-regime: refuses
  try {
    (void)run_race_grid(comps, small_spec(), pool);
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("LAN-Flat"), std::string::npos);
  }
}

TEST(Race, CompetitorListMatchesTheNamedLineUp) {
  // The name-based entry point resolves and forwards: given the same
  // competitors, both overloads produce the same report, and the list
  // overload takes each competitor's own options over the spec's.
  ThreadPool pool(0);
  RaceGridSpec spec = small_spec();
  spec.sched_names = {"FlatTree", "ECEF-LAT", "BottomUp"};
  const io::BenchReport named = run_race_grid(spec, pool);
  spec.sched_names = {"ignored"};
  spec.completion = sched::CompletionModel::kAfterLastSend;
  const io::BenchReport listed = run_race_grid(
      {sched::Scheduler("FlatTree"), sched::Scheduler("ECEF-LAT"),
       sched::Scheduler("BottomUp")},
      spec, pool);
  EXPECT_EQ(io::bench_to_json(named), io::bench_to_json(listed));
  EXPECT_THROW((void)run_race_grid({}, small_spec(), pool), InvalidInput);
}

}  // namespace
}  // namespace gridcast::exp
