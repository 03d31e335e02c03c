#include "sched/auto_scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "exp/instance_cache.hpp"
#include "exp/param_ranges.hpp"
#include "exp/montecarlo.hpp"
#include "exp/sweep.hpp"
#include "io/bench_json.hpp"
#include "sched/builtin_schedulers.hpp"
#include "sched/evaluate.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::sched {
namespace {

/// The selection "auto" must reproduce, computed the slow explicit way:
/// evaluate every non-composite candidate individually and keep the
/// strict-less argmin, first registration wins ties.
struct Expected {
  std::string_view winner;
  Time makespan = 0.0;
  std::size_t accepting = 0;
};

Expected brute_force_argmin(const AutoScheduler& autos,
                            const SchedulerRuntimeInfo& info) {
  Expected e;
  const SchedulerEntry* best = nullptr;
  for (const auto name : autos.candidate_names()) {
    const SchedulerEntryPtr entry = registry().make(name);
    if (!entry->can_schedule(info)) continue;
    ++e.accepting;
    const Time mk =
        evaluate_order(info.instance(), entry->order(info), info.completion())
            .makespan;
    if (best == nullptr || mk < e.makespan) {
      best = entry.get();
      e.winner = name;
      e.makespan = mk;
    }
  }
  return e;
}

/// Same hand-built shapes as test_registry.cpp's gate suite: `wan` scales
/// transfers against uniform 10 ms internal broadcasts; `star` makes
/// non-root pairs cost double the hub edges.
Instance shaped_instance(std::size_t clusters, double wan,
                         bool star = false) {
  SquareMatrix<Time> g(clusters), L(clusters);
  std::vector<Time> T(clusters, ms(10));
  for (ClusterId i = 0; i < clusters; ++i) {
    for (ClusterId j = 0; j < clusters; ++j) {
      if (i == j) continue;
      const double detour = (star && i != 0 && j != 0) ? 2.0 : 1.0;
      g(i, j) = ms(5) * wan * detour;
      L(i, j) = ms(5) * wan * detour;
    }
  }
  return Instance(0, std::move(g), std::move(L), std::move(T));
}

// --------------------------------------------------- registration pins

TEST(AutoScheduler, RegisteredLastWithAliases) {
  const auto names = registry().names();
  ASSERT_FALSE(names.empty());
  // Last, so its candidate snapshot covers every builtin above it.
  EXPECT_EQ(names.back(), "auto");
  EXPECT_EQ(registry().make("auto")->name(), "auto");
  EXPECT_EQ(registry().make("best")->name(), "auto");
  EXPECT_EQ(registry().make("propose")->name(), "auto");
  EXPECT_TRUE(registry().make("auto")->is_composite());
}

TEST(AutoScheduler, CandidatesAreTheNonCompositeRegistryInOrder) {
  const AutoScheduler autos(registry());
  const auto candidates = autos.candidate_names();
  // Exactly the registry minus the composites ("Mixed" and itself), in
  // registration order — the tie-break contract depends on this order.
  std::vector<std::string_view> expected;
  for (const auto& name : registry().names()) {
    if (registry().make(name)->is_composite()) continue;
    expected.emplace_back(registry().make(name)->name());
  }
  EXPECT_EQ(candidates, expected);
  for (const auto name : candidates) {
    EXPECT_NE(name, "auto");
    EXPECT_NE(name, "Mixed");
  }
  // Pruning is on by default; the registry holds exactly two composites.
  EXPECT_TRUE(autos.options().prune);
  EXPECT_EQ(candidates.size(), registry().names().size() - 2);
}

// --------------------------------------------------- the argmin property

TEST(AutoScheduler, WinnerIsArgminOnTheFixtureGridLadder) {
  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  const AutoScheduler autos(registry());
  for (const Bytes m : exp::default_size_ladder()) {
    for (const auto completion :
         {CompletionModel::kEager, CompletionModel::kAfterLastSend}) {
      const SchedulerRuntimeInfo info(*cache.get(0, m), m, completion);
      const auto proposal = autos.propose(info);
      const Expected want = brute_force_argmin(autos, info);
      EXPECT_EQ(proposal.winner, want.winner) << "size " << m;
      EXPECT_DOUBLE_EQ(proposal.makespan, want.makespan) << "size " << m;
      // The proposal's order really is the winner's order, and its
      // makespan is that order's score — not a stale incumbent's.
      EXPECT_DOUBLE_EQ(
          evaluate_order(info.instance(), proposal.order, completion).makespan,
          proposal.makespan);
      // Accounting covers the whole candidate walk.
      EXPECT_EQ(proposal.evaluated + proposal.pruned + proposal.gated,
                autos.candidate_names().size());
      EXPECT_EQ(proposal.evaluated + proposal.pruned, want.accepting);
    }
  }
}

TEST(AutoScheduler, WinnerIsArgminOnRandomInstances) {
  const AutoScheduler autos(registry());
  for (std::uint64_t it = 0; it < 30; ++it) {
    Rng rng = Rng::stream(23, it);
    const std::size_t clusters = 2 + static_cast<std::size_t>(it % 12);
    const Instance inst =
        exp::sample_instance(exp::ParamRanges::paper(), clusters, rng);
    const SchedulerRuntimeInfo info(inst);
    const auto proposal = autos.propose(info);
    const Expected want = brute_force_argmin(autos, info);
    EXPECT_EQ(proposal.winner, want.winner) << "iteration " << it;
    EXPECT_DOUBLE_EQ(proposal.makespan, want.makespan) << "iteration " << it;
  }
}

// The headline acceptance claim: the paper's own deployment answer
// ("Mixed", a two-way size split) can never beat consulting the whole
// registry per instance.
TEST(AutoScheduler, MatchesOrBeatsMixedEverywhere) {
  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  const AutoScheduler autos(registry());
  const SchedulerEntryPtr mixed = registry().make("Mixed");
  for (const Bytes m : exp::default_size_ladder()) {
    const SchedulerRuntimeInfo info(*cache.get(0, m), m);
    const Time mixed_mk =
        evaluate_order(info.instance(), mixed->order(info), info.completion())
            .makespan;
    EXPECT_LE(autos.propose(info).makespan, mixed_mk) << "size " << m;
  }
  for (std::uint64_t it = 0; it < 30; ++it) {
    Rng rng = Rng::stream(29, it);
    const std::size_t clusters = 2 + static_cast<std::size_t>(it % 12);
    const Instance inst =
        exp::sample_instance(exp::ParamRanges::paper(), clusters, rng);
    const SchedulerRuntimeInfo info(inst);
    const Time mixed_mk =
        evaluate_order(inst, mixed->order(info), info.completion()).makespan;
    EXPECT_LE(autos.propose(info).makespan, mixed_mk) << "iteration " << it;
  }
}

// --------------------------------------------------- pruning purity

TEST(AutoScheduler, PruningNeverChangesTheSelection) {
  HeuristicOptions no_prune;
  no_prune.prune = false;
  const AutoScheduler pruned(registry());
  const AutoScheduler unpruned(registry(), no_prune);
  EXPECT_FALSE(unpruned.options().prune);
  EXPECT_EQ(unpruned.candidate_names().size(),
            pruned.candidate_names().size());
  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  for (const Bytes m : exp::default_size_ladder()) {
    const SchedulerRuntimeInfo info(*cache.get(0, m), m);
    const auto a = pruned.propose(info);
    const auto b = unpruned.propose(info);
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.order, b.order);
    // Off means off: every accepting candidate is evaluated.
    EXPECT_EQ(b.pruned, 0u);
    EXPECT_EQ(a.evaluated + a.pruned, b.evaluated);
  }
}

// Byte-identity over whole reports, through the real harnesses: pruning
// is invisible to everything downstream of selection.
TEST(AutoScheduler, PruneOnOffSweepReportsAreByteIdentical) {
  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  ThreadPool pool(0);
  exp::RaceSpec spec;
  spec.sched_names = registry().names();  // includes Mixed and auto
  const io::BenchReport on =
      exp::run_race_sweep(cache, "grid5000_testbed", spec, pool);
  spec.prune = false;
  const io::BenchReport off =
      exp::run_race_sweep(cache, "grid5000_testbed", spec, pool);
  EXPECT_EQ(io::bench_to_json(on), io::bench_to_json(off));
}

TEST(AutoScheduler, PruneOnOffMonteCarloReportsAreByteIdentical) {
  ThreadPool pool(0);
  exp::RaceGridSpec spec;
  for (const auto& c : paper_heuristics())
    spec.sched_names.emplace_back(c.name());
  spec.sched_names.emplace_back("auto");
  spec.cluster_counts = {2, 5, 8};
  spec.iterations = 48;
  spec.block_iters = 16;
  const io::BenchReport on = exp::run_race_grid(spec, pool);
  spec.prune = false;
  const io::BenchReport off = exp::run_race_grid(spec, pool);
  EXPECT_EQ(io::bench_to_json(on), io::bench_to_json(off));
}

// --------------------------------------------------- adversarial fixtures

TEST(AutoScheduler, AllGatedRegistryFailsWithOneLineDiagnostic) {
  // A registry holding only the two shape specialists, shown a WAN mesh
  // that is neither LAN-homogeneous nor hub-shaped: nothing accepts.
  // (A *uniform* WAN mesh is a degenerate star Star-WAN would take, so a
  // cheap non-root relay edge breaks the hub shape.)
  SchedulerRegistry reg;
  reg.add("LAN-Flat", [](const HeuristicOptions& o) {
    return std::make_shared<const LanFlatScheduler>(o);
  });
  reg.add("Star-WAN", [](const HeuristicOptions& o) {
    return std::make_shared<const StarWanScheduler>(o);
  });
  const AutoScheduler autos(reg);
  SquareMatrix<Time> g(5), L(5);
  std::vector<Time> T(5, ms(10));
  for (ClusterId i = 0; i < 5; ++i)
    for (ClusterId j = 0; j < 5; ++j) {
      if (i == j) continue;
      g(i, j) = ms(50);
      L(i, j) = ms(50);
    }
  g(1, 2) = ms(1);  // cluster 2's cheapest entry is via 1, not the root
  const Instance mesh(0, std::move(g), std::move(L), std::move(T));
  const SchedulerRuntimeInfo info(mesh);
  EXPECT_FALSE(autos.can_schedule(info));
  try {
    (void)autos.propose(info);
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("refused every candidate"), std::string::npos);
    EXPECT_NE(what.find("LAN-Flat"), std::string::npos);
    EXPECT_NE(what.find("Star-WAN"), std::string::npos);
    EXPECT_EQ(what.find('\n'), std::string::npos) << "diagnostic must be "
                                                     "one line";
  }
}

TEST(AutoScheduler, SingleSurvivorWinsTrivially) {
  SchedulerRegistry reg;
  reg.add("LAN-Flat", [](const HeuristicOptions& o) {
    return std::make_shared<const LanFlatScheduler>(o);
  });
  reg.add("Star-WAN", [](const HeuristicOptions& o) {
    return std::make_shared<const StarWanScheduler>(o);
  });
  const AutoScheduler autos(reg);
  // LAN regime: Star-WAN's gate refuses, LAN-Flat survives alone.
  const Instance lan = shaped_instance(5, 0.01);
  const SchedulerRuntimeInfo info(lan);
  ASSERT_TRUE(autos.can_schedule(info));
  const auto proposal = autos.propose(info);
  EXPECT_EQ(proposal.winner, "LAN-Flat");
  EXPECT_EQ(proposal.evaluated, 1u);
  EXPECT_EQ(proposal.gated, 1u);
  EXPECT_EQ(proposal.pruned, 0u);
}

// A local registry's auto sees the local candidates, not the global ones
// — the factory captures the registry it was registered into.
TEST(AutoScheduler, LocalRegistryGetsLocalCandidates) {
  SchedulerRegistry reg;
  register_builtin_schedulers(reg);
  reg.add("Extra", [](const HeuristicOptions& o) {
    return std::make_shared<const FlatTreeScheduler>(o);
  });
  // Snapshot taken at make() time, so "Extra" (registered after "auto")
  // is included — one more candidate than the global auto carries.
  const SchedulerEntryPtr entry = reg.make("auto");
  const auto* autos = dynamic_cast<const AutoScheduler*>(entry.get());
  ASSERT_NE(autos, nullptr);
  EXPECT_EQ(autos->candidate_names().size(),
            AutoScheduler(registry()).candidate_names().size() + 1);
}

// --------------------------------------------------- work counters

// Exact candidate accounting of `auto`'s registry walk, summed over the
// configurations the checked-in baselines race: the BENCH_baseline.json
// sweep (grid5000, root 0, default ladder, default options) and the
// BENCH_baseline_race.json draws (2-10 clusters, 1000 draws each, seed
// 42, the race's instance streams).  A walk that scores, prunes or gates
// a different number of candidates fails here on every machine.
TEST(AutoScheduler, WalkCountersArePinnedOnTheBaselineConfigurations) {
  const AutoScheduler autos(registry());
  struct Totals {
    std::size_t evaluated = 0;
    std::size_t pruned = 0;
    std::size_t gated = 0;
    void add(const AutoScheduler::Proposal& p) {
      evaluated += p.evaluated;
      pruned += p.pruned;
      gated += p.gated;
    }
  };

  Totals sweep;
  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  for (const Bytes m : exp::default_size_ladder())
    sweep.add(autos.propose(SchedulerRuntimeInfo(*cache.get(0, m), m)));
  EXPECT_EQ(sweep.evaluated, 144u);
  EXPECT_EQ(sweep.pruned, 0u);
  EXPECT_EQ(sweep.gated, 32u);

  Totals race;
  Instance drawn;
  for (const std::size_t n : exp::fig1_cluster_ladder()) {
    for (std::uint64_t it = 0; it < 1000; ++it) {
      Rng rng = Rng::stream(exp::race_instance_seed(42, n), it);
      exp::sample_instance_into(exp::ParamRanges::paper(), n, rng, 0, drawn);
      race.add(autos.propose(SchedulerRuntimeInfo(drawn)));
    }
  }
  EXPECT_EQ(race.evaluated, 67620u);
  EXPECT_EQ(race.pruned, 21089u);
  EXPECT_EQ(race.gated, 10291u);
}

}  // namespace
}  // namespace gridcast::sched
