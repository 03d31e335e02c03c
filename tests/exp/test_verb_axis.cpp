// The --verb axis end to end: report grammar (the "verb" key, strict
// parsing and comparison), per-verb thread-count determinism (byte-
// identical for 0/1/3/7 workers on both backends), default-verb byte
// compatibility with the pre-verb-axis grammar, golden-report fixtures,
// and the one-line negative-path diagnostics.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "collective/backend.hpp"
#include "exp/race_cli.hpp"
#include "io/bench_json.hpp"
#include "support/error.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {
namespace {

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    return run_race_cli(parse_race_cli(args), out, err);
  } catch (const InvalidInput& e) {
    err << "gridcast_race: " << e.what() << "\n";
    return 2;
  }
}

std::string run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main(args, out, err), 0) << err.str();
  return out.str();
}

// ------------------------------------------------------------ verb parsing

TEST(VerbAxis, ToVerbRoundTripsAndPinsTheUnknownDiagnostic) {
  using collective::Verb;
  EXPECT_EQ(collective::to_verb("bcast"), Verb::kBcast);
  EXPECT_EQ(collective::to_verb("SCATTER"), Verb::kScatter);
  EXPECT_EQ(collective::to_verb("AllToAll"), Verb::kAlltoall);
  for (const Verb v : collective::kAllVerbs)
    EXPECT_EQ(collective::to_verb(collective::verb_name(v)), v);
  try {
    (void)collective::to_verb("gather");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_STREQ(e.what(),
                 "unknown verb 'gather' (valid: bcast, scatter, alltoall)");
  }
}

TEST(VerbAxis, CliParsesVerbAndRefusesItInRaceMode) {
  EXPECT_EQ(parse_race_cli({"--verb=scatter"}).spec.verb,
            collective::Verb::kScatter);
  EXPECT_EQ(parse_race_cli({}).spec.verb, collective::Verb::kBcast);
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"--race", "--verb=scatter"}, out, err), 2);
  EXPECT_EQ(err.str(),
            "gridcast_race: --verb applies to sweep mode; the Monte-Carlo "
            "race broadcasts by definition\n");
}

TEST(VerbAxis, CompletionFlagIsRefusedForNonBcastVerbs) {
  // Scatter/alltoall schedules are derived and timed with the eager
  // model; silently accepting --completion would hand back byte-identical
  // output for a flag the user believes changed something.
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"--verb=alltoall", "--completion=after-last-send",
                      "--sched=FlatTree", "--sizes=256K"},
                     out, err),
            2);
  EXPECT_EQ(err.str(),
            "gridcast_race: --completion applies to broadcast sweeps; "
            "scatter/alltoall schedules are derived and timed with the "
            "eager model\n");
  // Broadcast sweeps keep the flag, whatever its value.
  EXPECT_EQ(parse_race_cli({"--completion=after-last-send"}).spec.completion,
            sched::CompletionModel::kAfterLastSend);
}

TEST(VerbAxis, UnsupportedVerbIsAOneLineDiagnostic) {
  // A backend that only broadcasts (the shape of a minimal MPI harness)
  // must fail a scatter sweep with the pinned one-liner, not a deep error.
  class BcastOnly final : public collective::Backend {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "bcastonly";
    }
    [[nodiscard]] std::string_view mode_label() const noexcept override {
      return "predicted";
    }
    [[nodiscard]] bool supports(collective::Verb v) const noexcept override {
      return v == collective::Verb::kBcast;
    }
    [[nodiscard]] bool instance_only() const noexcept override {
      return true;
    }
    [[nodiscard]] collective::CollectiveResult bcast(
        const sched::SchedulerEntry&, const sched::SchedulerRuntimeInfo&,
        std::uint64_t) const override {
      return {};
    }
  };
  static const bool registered = [] {
    collective::backend_registry().add(
        "bcastonly", "test stub: broadcast-only backend",
        [](const collective::BackendOptions&) -> collective::BackendPtr {
          return std::make_shared<const BcastOnly>();
        });
    return true;
  }();
  ASSERT_TRUE(registered);

  std::ostringstream out, err;
  const int code = cli_main({"--backend=bcastonly", "--sched=FlatTree",
                             "--sizes=256K", "--verb=scatter"},
                            out, err);
  EXPECT_EQ(code, 2);
  EXPECT_EQ(err.str(),
            "gridcast_race: backend 'bcastonly' does not support verb "
            "'scatter'\n");
}

// ------------------------------------------------------- report grammar

TEST(VerbAxis, DefaultVerbReportsAreByteIdenticalToTheOldGrammar) {
  const std::vector<std::string> base = {"--sched=FlatTree,ECEF-LAT",
                                         "--sizes=256K,1M", "--seed=5"};
  auto with_verb = base;
  with_verb.push_back("--verb=bcast");
  const std::string plain = run_cli(base);
  const std::string explicit_bcast = run_cli(with_verb);
  // --verb=bcast is the default spelled out: same bytes, no "verb" key.
  EXPECT_EQ(plain, explicit_bcast);
  EXPECT_EQ(plain.find("\"verb\""), std::string::npos);
}

TEST(VerbAxis, VerbKeyRoundTripsThroughTheStrictParser) {
  const std::string text = run_cli({"--sched=FlatTree", "--sizes=256K",
                                    "--verb=alltoall", "--backend=plogp"});
  EXPECT_NE(text.find("\"verb\": \"alltoall\""), std::string::npos);
  const io::BenchReport r = io::bench_from_json(text);
  EXPECT_EQ(r.verb, "alltoall");
  EXPECT_EQ(io::bench_to_json(r), text);

  // Unknown verb values are format errors.
  std::string mangled = text;
  mangled.replace(mangled.find("alltoall"), 8, "gatherxx");
  EXPECT_THROW((void)io::bench_from_json(mangled), InvalidInput);
}

TEST(VerbAxis, MonteCarloReportsRefuseTheVerbKey) {
  const std::string race = run_cli({"--race", "--clusters=3",
                                    "--iters=2", "--sched=FlatTree"});
  std::string with_verb = race;
  const auto pos = with_verb.find("  \"mode\"");
  ASSERT_NE(pos, std::string::npos);
  with_verb.insert(pos, "  \"verb\": \"scatter\",\n");
  try {
    (void)io::bench_from_json(with_verb);
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("sweep-only"), std::string::npos);
  }
}

TEST(VerbAxis, CompareRefusesMixedVerbs) {
  const auto report = [&](const char* verb) {
    return io::bench_from_json(run_cli(
        {"--sched=FlatTree", "--sizes=256K", std::string("--verb=") + verb}));
  };
  const io::BenchReport scatter = report("scatter");
  const io::BenchReport alltoall = report("alltoall");
  const auto problems = io::compare_bench(scatter, alltoall);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "verb mismatch: baseline 'scatter' vs current "
                         "'alltoall'");
}

// ----------------------------------------- per-verb thread-count identity

TEST(VerbAxis, ThreadCountIsByteIdenticalPerVerbOnBothBackends) {
  // Any worker count spreads the (size × series) cells differently; the
  // report bytes must not change — for every verb, under the analytic and
  // the executing backend.
  for (const std::string backend : {"plogp", "sim"}) {
    for (const std::string verb : {"bcast", "scatter", "alltoall"}) {
      const std::vector<std::string> common = {
          "--sched=FlatTree,ECEF-LAT,BottomUp", "--sizes=256K,1M,2M",
          "--backend=" + backend, "--verb=" + verb, "--seed=9"};
      auto args = common;
      args.push_back("--threads=0");
      const std::string inline_run = run_cli(args);
      for (const std::string threads : {"1", "3", "7"}) {
        args = common;
        args.push_back("--threads=" + threads);
        EXPECT_EQ(run_cli(args), inline_run)
            << backend << " " << verb << " x" << threads << " threads";
      }
    }
  }
}

// ------------------------------------------------------- golden fixtures

void check_golden(const std::string& file,
                  const std::vector<std::string>& args) {
  std::ifstream in(std::string(GRIDCAST_TEST_DATA_DIR) + "/" + file);
  ASSERT_TRUE(in) << "missing tests/data/" << file;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden_text = buf.str();

  // Writer stability: the strict parse re-serialises to the file's bytes.
  const io::BenchReport golden = io::bench_from_json(golden_text);
  EXPECT_EQ(io::bench_to_json(golden), golden_text) << file;

  // The live run still reproduces the fixture (deterministic backends; the
  // executing backend is deterministic under the pinned seed/jitter).
  const io::BenchReport live = io::bench_from_json(run_cli(args));
  EXPECT_EQ(live.verb, golden.verb);
  EXPECT_EQ(live.mode, golden.mode);
  EXPECT_EQ(live.sizes, golden.sizes);
  ASSERT_EQ(live.series.size(), golden.series.size()) << file;
  for (std::size_t s = 0; s < live.series.size(); ++s) {
    EXPECT_EQ(live.series[s].name, golden.series[s].name);
    ASSERT_EQ(live.series[s].makespan_s.size(),
              golden.series[s].makespan_s.size());
    for (std::size_t i = 0; i < live.series[s].makespan_s.size(); ++i)
      EXPECT_NEAR(live.series[s].makespan_s[i],
                  golden.series[s].makespan_s[i],
                  1e-9 * golden.series[s].makespan_s[i])
          << file << " series " << live.series[s].name << " cell " << i;
  }
}

TEST(VerbAxis, ScatterGoldenReportIsStable) {
  check_golden("scatter_golden.json",
               {"--sched=FlatTree,ECEF-LAT", "--sizes=256K,1M",
                "--backend=sim", "--verb=scatter", "--seed=5",
                "--jitter=0.1", "--root=1"});
}

TEST(VerbAxis, AlltoallGoldenReportIsStable) {
  check_golden("alltoall_golden.json",
               {"--sched=FlatTree,ECEF-LAT", "--sizes=256K,1M",
                "--backend=plogp", "--verb=alltoall"});
}

}  // namespace
}  // namespace gridcast::exp
