#include "io/bench_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace gridcast::io {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BenchSeries make_series(std::string name, std::vector<double> makespans) {
  BenchSeries s;
  s.name = std::move(name);
  s.makespan_s = std::move(makespans);
  return s;
}

BenchReport small_report() {
  BenchReport r;
  r.bench = "race";
  r.grid = "grid5000_testbed";
  r.mode = "predicted";
  r.root = 0;
  r.sizes = {262144, 524288};
  r.series.push_back(make_series("FlatTree", {0.875, 1.75}));
  r.series.push_back(make_series("ECEF-LAT", {0.25, 0.5}));
  return r;
}

TEST(JsonEscape, PassesPlainNamesThrough) {
  EXPECT_EQ(json_escape("ECEF-LAT"), "ECEF-LAT");
  EXPECT_EQ(json_escape("weight=gap+latency"), "weight=gap+latency");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(BenchJson, QuoteInSchedulerNameSurvivesRoundTrip) {
  // The original writer emitted names raw, so a registered name with a
  // quote or backslash corrupted BENCH_sweep.json.
  BenchReport r = small_report();
  r.series[0].name = "evil\"name\\with\ncontrols";
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.series[0].name, "evil\"name\\with\ncontrols");
}

TEST(BenchJson, RoundTripIsByteIdentical) {
  const BenchReport r = small_report();
  const std::string once = bench_to_json(r);
  const std::string twice = bench_to_json(bench_from_json(once));
  EXPECT_EQ(once, twice);
}

TEST(BenchJson, RoundTripPreservesValuesAndNaN) {
  BenchReport r = small_report();
  r.mode = "measured";
  r.seed = 1234567890123456789ULL;
  r.jitter = 0.05;
  r.series[0].makespan_s[1] = kNaN;  // uncomputed cell
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.mode, "measured");
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_DOUBLE_EQ(back.jitter, 0.05);
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_DOUBLE_EQ(back.series[0].makespan_s[0], 0.875);
  EXPECT_TRUE(std::isnan(back.series[0].makespan_s[1]));
}

TEST(BenchJson, SeventeenDigitDoublesRoundTripExactly) {
  BenchReport r = small_report();
  r.series[0].makespan_s = {0.1 + 0.2, 13.875781257818181};
  r.series[1].makespan_s = {1.0 / 3.0, 4e-320};
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.series[0].makespan_s[0], 0.1 + 0.2);
  EXPECT_EQ(back.series[0].makespan_s[1], 13.875781257818181);
  EXPECT_EQ(back.series[1].makespan_s[0], 1.0 / 3.0);
  EXPECT_EQ(back.series[1].makespan_s[1], 4e-320);
}

TEST(BenchJson, StrictParserRejectsMalformedInput) {
  EXPECT_THROW((void)bench_from_json("{"), InvalidInput);
  EXPECT_THROW((void)bench_from_json("[]{}"), InvalidInput);
  EXPECT_THROW((void)bench_from_json("{\"bench\": \"x\"}"), InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"sizes\": [1], \"series\": [], \"nope\": 1}"),
               InvalidInput);
  // Series cell count must match the size axis.
  EXPECT_THROW(
      (void)bench_from_json(
          "{\"sizes\": [1, 2], "
          "\"series\": [{\"name\": \"A\", \"makespan_s\": [0.5]}]}"),
      InvalidInput);
  // The writer's grammar applies to parsed reports too: hits belong to
  // Monte-Carlo races, and a race needs at least one iteration.
  EXPECT_THROW(
      (void)bench_from_json(
          "{\"sizes\": [1], \"series\": [{\"name\": \"A\", "
          "\"makespan_s\": [0.5], \"hits\": [1]}]}"),
      InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"montecarlo\", \"iterations\": 0, "
                   "\"clusters\": [3], \"series\": []}"),
               InvalidInput);
  // Mode-only keys: the writer records a seed for measured sweeps and
  // Monte-Carlo races only, and a jitter for measured reports only, so a
  // report carrying one elsewhere could not round-trip.
  const auto refused_for = [](const std::string& text, const char* key) {
    try {
      (void)bench_from_json(text);
      ADD_FAILURE() << "accepted '" << key << "' in " << text;
    } catch (const InvalidInput& e) {
      const std::string quoted = std::string("'") + key + "'";
      EXPECT_NE(std::string(e.what()).find(quoted), std::string::npos)
          << e.what();
    }
  };
  refused_for(
      "{\"mode\": \"predicted\", \"seed\": 5, \"sizes\": [1], "
      "\"series\": [{\"name\": \"A\", \"makespan_s\": [0.5]}]}",
      "seed");
  refused_for(
      "{\"bench\": \"montecarlo\", \"iterations\": 4, \"seed\": 5, "
      "\"jitter\": 0.5, \"clusters\": [3], \"series\": []}",
      "jitter");
}

// Process-level sharding is retired: a report carrying its keys (or the
// historical "threads" field) is refused as an unknown key, never half-read.
TEST(BenchJson, RetiredShardAndThreadKeysAreRefused) {
  const std::string head = "{\"sizes\": [1], ";
  const std::string series =
      "\"series\": [{\"name\": \"A\", \"makespan_s\": [0.5]}]}";
  ASSERT_NO_THROW((void)bench_from_json(head + series));
  for (const char* key : {"shards", "shard", "block_iters", "threads"}) {
    try {
      (void)bench_from_json(head + "\"" + key + "\": 2, " + series);
      ADD_FAILURE() << "accepted '" << key << "'";
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
  for (const char* key : {"block_sum_s", "block_hits"}) {
    try {
      (void)bench_from_json(
          "{\"bench\": \"montecarlo\", \"iterations\": 4, \"clusters\": "
          "[3], \"series\": [{\"name\": \"A\", \"makespan_s\": [0.5], \"" +
          std::string(key) + "\": [[1.0]]}]}");
      ADD_FAILURE() << "accepted '" << key << "'";
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchJson, VerbKeySerialisesOnlyWhenNotBcast) {
  BenchReport r = small_report();
  EXPECT_EQ(r.verb, "bcast");  // the default
  EXPECT_EQ(bench_to_json(r).find("\"verb\""), std::string::npos);

  r.verb = "scatter";
  const std::string text = bench_to_json(r);
  EXPECT_NE(text.find("\"verb\": \"scatter\""), std::string::npos);
  const BenchReport parsed = bench_from_json(text);
  EXPECT_EQ(parsed.verb, "scatter");
  EXPECT_EQ(bench_to_json(parsed), text);

  // The parser canonicalises through the shared vocabulary and rejects
  // verbs outside it.
  EXPECT_THROW((void)bench_from_json(
                   "{\"verb\": \"gather\", \"sizes\": [1], \"series\": "
                   "[{\"name\": \"A\", \"makespan_s\": [0.5]}]}"),
               InvalidInput);
}

TEST(BenchCompare, VerbMismatchIsASingleProblem) {
  const BenchReport base = small_report();
  BenchReport cur = small_report();
  cur.verb = "alltoall";
  cur.series[0].makespan_s[0] *= 3.0;  // masked: the verb gates first
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0],
            "verb mismatch: baseline 'bcast' vs current 'alltoall'");
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport r = small_report();
  EXPECT_TRUE(compare_bench(r, r).empty());
}

TEST(BenchCompare, MissingSeriesFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series.pop_back();
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("missing series 'ECEF-LAT'"), std::string::npos);
}

TEST(BenchCompare, ExtraSeriesFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series.push_back(make_series("Newcomer", {1.0, 2.0}));
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("extra series 'Newcomer'"), std::string::npos);
}

TEST(BenchCompare, MakespanDriftBeyondToleranceFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  BenchCompareOptions opts;
  opts.makespan_rtol = 1e-6;
  // Inside the tolerance band: passes.
  cur.series[0].makespan_s[0] = 0.875 * (1 + 5e-7);
  EXPECT_TRUE(compare_bench(base, cur, opts).empty());
  // Just beyond: fails.
  cur.series[0].makespan_s[0] = 0.875 * (1 + 3e-6);
  const auto problems = compare_bench(base, cur, opts);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("makespan drift"), std::string::npos);
}

TEST(BenchCompare, NanCurrentCellFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series[1].makespan_s[1] = kNaN;  // uncomputed cell
  EXPECT_EQ(compare_bench(base, cur).size(), 1u);
}

TEST(BenchCompare, NanBaselineCellIsSkipped) {
  BenchReport base = small_report();
  base.series[1].makespan_s[1] = kNaN;  // baseline never measured it
  BenchReport cur = small_report();
  cur.series[1].makespan_s[1] = 123.0;
  EXPECT_TRUE(compare_bench(base, cur).empty());
}

TEST(BenchCompare, MetadataMismatchFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.mode = "measured";
  EXPECT_FALSE(compare_bench(base, cur).empty());

  // Measured reports under different seeds/jitter are one metadata
  // problem, not a drift cascade.
  BenchReport mbase = base;
  mbase.mode = "measured";
  mbase.seed = 1;
  BenchReport mcur = mbase;
  mcur.seed = 2;
  for (auto& s : mcur.series)
    for (auto& v : s.makespan_s) v *= 2.0;  // would drift every cell
  const auto seed_problems = compare_bench(mbase, mcur);
  ASSERT_EQ(seed_problems.size(), 1u);
  EXPECT_NE(seed_problems[0].find("seed/jitter mismatch"), std::string::npos);

  cur = base;
  cur.sizes.push_back(786432);
  for (auto& s : cur.series) s.makespan_s.push_back(1.0);
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);  // ladder mismatch short-circuits
  EXPECT_NE(problems[0].find("size ladder mismatch"), std::string::npos);
}

TEST(BenchCompare, KindMismatchShortCircuits) {
  const BenchReport base = small_report();
  BenchReport cur = small_report();
  cur.bench = "montecarlo";
  cur.iterations = 10;
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("bench kind mismatch"), std::string::npos);
}

// Host-clock channels are not part of the grammar: the retired "micro"
// throughput kind and a series' wall time are refused, never half-read.
TEST(BenchJson, MicroReportKindIsRefused) {
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"micro\", \"sizes\": [1000], \"series\": "
                   "[{\"name\": \"engine_events\", \"throughput\": [1.0]}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"micro\", \"sizes\": [1000], \"series\": "
                   "[{\"name\": \"A\", \"makespan_s\": [0.5]}]}"),
               InvalidInput);
}

TEST(BenchJson, WallTimeSeriesKeyIsRefused) {
  EXPECT_THROW((void)bench_from_json(
                   "{\"sizes\": [1], \"series\": [{\"name\": \"A\", "
                   "\"wall_time_s\": 0.125, \"makespan_s\": [0.5]}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"sizes\": [1], \"series\": [{\"name\": \"A\", "
                   "\"makespan_s\": [0.5], "
                   "\"micro_scheduling_cost_s\": [1e-6]}]}"),
               InvalidInput);
}

TEST(BenchJson, RequestsAxisIsNotAKey) {
  // Only sweeps ("sizes") and Monte-Carlo races ("clusters") name an axis.
  EXPECT_THROW((void)bench_from_json(
                   "{\"requests\": [240], \"series\": "
                   "[{\"name\": \"hits\", \"makespan_s\": [195.0]}]}"),
               InvalidInput);
}

}  // namespace
}  // namespace gridcast::io
