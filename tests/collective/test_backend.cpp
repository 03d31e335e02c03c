#include "collective/backend.hpp"

#include <gtest/gtest.h>

#include "collective/backends.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::collective {
namespace {

// ---------------------------------------------------------- registry

TEST(BackendRegistry, BuiltinsResolveByNameAndAlias) {
  auto& reg = backend_registry();
  ASSERT_TRUE(reg.contains("sim"));
  ASSERT_TRUE(reg.contains("plogp"));
  // The legacy mode spellings are aliases, resolved case-insensitively.
  EXPECT_TRUE(reg.contains("measured"));
  EXPECT_TRUE(reg.contains("predicted"));
  EXPECT_TRUE(reg.contains("MEASURED"));
  EXPECT_TRUE(reg.contains("Sim"));
  EXPECT_FALSE(reg.contains("mpi"));

  const auto grid = topology::grid5000_testbed();
  BackendOptions opts;
  opts.grid = &grid;
  EXPECT_EQ(reg.make("measured", opts)->name(), "sim");
  EXPECT_EQ(reg.make("predicted")->name(), "plogp");
  EXPECT_EQ(reg.make("Model")->name(), "plogp");

  // resolve() canonicalises without constructing, sharing make()'s
  // unknown-name error.
  EXPECT_EQ(reg.resolve("simulator"), "sim");
  EXPECT_EQ(reg.resolve("PLOGP"), "plogp");
  EXPECT_THROW((void)reg.resolve("mpi"), InvalidInput);
}

TEST(BackendRegistry, NamesPreserveRegistrationOrderAndListAliases) {
  auto& reg = backend_registry();
  const auto names = reg.names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], "sim");
  EXPECT_EQ(names[1], "plogp");
  const auto aliases = reg.aliases_of("sim");
  ASSERT_EQ(aliases.size(), 2u);
  EXPECT_EQ(aliases[0], "measured");
  EXPECT_FALSE(reg.description_of("plogp").empty());
  EXPECT_TRUE(reg.aliases_of("nope").empty());
}

TEST(BackendRegistry, UnknownNameThrowsListingAvailable) {
  try {
    (void)backend_registry().make("mpi");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mpi"), std::string::npos);
    EXPECT_NE(what.find("sim"), std::string::npos);
    EXPECT_NE(what.find("plogp"), std::string::npos);
  }
}

TEST(BackendRegistry, DuplicateRegistrationRejected) {
  BackendRegistry reg;
  const auto factory = [](const BackendOptions&) -> BackendPtr {
    return std::make_shared<const PlogpBackend>();
  };
  reg.add("mine", "a test backend", factory, {"alias-a"});
  EXPECT_THROW(reg.add("mine", "again", factory), InvalidInput);
  EXPECT_THROW(reg.add("alias-a", "shadows an alias", factory), InvalidInput);
  EXPECT_THROW(reg.add("fresh", "dup alias", factory, {"alias-a"}),
               InvalidInput);
  EXPECT_THROW(reg.add("fresh", "alias hits name", factory, {"mine"}),
               InvalidInput);
  EXPECT_THROW(reg.add("fresh", "intra-call dup", factory, {"x", "X"}),
               InvalidInput);
  // Canonical names are lowercase by construction (lookups fold).
  EXPECT_THROW(reg.add("Upper", "case", factory), InvalidInput);
  // A failed registration leaves no partial state.
  EXPECT_FALSE(reg.contains("fresh"));
  reg.add("fresh", "ok now", factory, {"x"});
  EXPECT_EQ(reg.make("X")->name(), "plogp");
}

TEST(BackendRegistry, SimFactoryRequiresGrid) {
  EXPECT_THROW((void)backend_registry().make("sim"), InvalidInput);
  EXPECT_THROW((void)backend_registry().make("sim", BackendOptions{}),
               InvalidInput);
}

// ------------------------------------------------------- capabilities

TEST(BackendCapabilities, PlogpSupportsAllVerbs) {
  const PlogpBackend plogp;
  EXPECT_EQ(plogp.mode_label(), "predicted");
  EXPECT_TRUE(plogp.supports(Verb::kBcast));
  EXPECT_TRUE(plogp.supports(Verb::kScatter));
  EXPECT_TRUE(plogp.supports(Verb::kAlltoall));
  EXPECT_TRUE(plogp.instance_only());
  EXPECT_TRUE(plogp.baseline_series().empty());

  // Scatter/alltoall predictions read the grid's gap functions; a
  // grid-less instance refuses them with a one-line pointer at the fix.
  const auto sched = sched::registry().make("FlatTree");
  try {
    (void)plogp.scatter(*sched, 0, KiB(64), 0);
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("BackendOptions::grid"),
              std::string::npos);
  }
  EXPECT_THROW((void)plogp.alltoall(*sched, KiB(64), 0), InvalidInput);
  EXPECT_THROW((void)plogp.baseline_bcast(0, KiB(64)), InvalidInput);

  // With a grid the predictions run — the registry passes it through.
  const auto grid = topology::grid5000_testbed();
  BackendOptions opts;
  opts.grid = &grid;
  const auto via_registry = backend_registry().make("plogp", opts);
  const CollectiveResult s = via_registry->scatter(*sched, 0, KiB(64), 0);
  EXPECT_FALSE(s.per_rank);
  EXPECT_EQ(s.delivered.size(), grid.cluster_count());
  EXPECT_GT(s.completion, 0.0);
  EXPECT_EQ(s.wan_messages, grid.cluster_count() - 1);
  const CollectiveResult a = via_registry->alltoall(*sched, KiB(16), 0);
  EXPECT_GT(a.completion, 0.0);
  EXPECT_EQ(a.wan_messages,
            grid.cluster_count() * (grid.cluster_count() - 1));
}

TEST(BackendCapabilities, SimSupportsAllVerbs) {
  const auto grid = topology::grid5000_testbed();
  const SimBackend sim(grid);
  EXPECT_EQ(sim.mode_label(), "measured");
  EXPECT_TRUE(sim.supports(Verb::kBcast));
  EXPECT_TRUE(sim.supports(Verb::kScatter));
  EXPECT_TRUE(sim.supports(Verb::kAlltoall));
  EXPECT_FALSE(sim.instance_only());
  EXPECT_EQ(sim.baseline_series(), "DefaultLAM");
}

// ------------------------------------------------------------- verbs

TEST(BackendVerbs, SimExecutesAllCollectives) {
  const auto grid = topology::grid5000_testbed();
  const SimBackend sim(grid);
  const auto sched = sched::registry().make("ECEF-LAT");

  const auto inst = sched::Instance::from_grid(grid, 0, MiB(1));
  const sched::SchedulerRuntimeInfo info(inst, MiB(1));
  const CollectiveResult b = sim.bcast(*sched, info, 1);
  EXPECT_TRUE(b.per_rank);
  EXPECT_EQ(b.delivered.size(), grid.total_nodes());
  EXPECT_GT(b.completion, 0.0);
  EXPECT_GT(b.messages, 0u);
  EXPECT_GE(b.messages, b.wan_messages);
  EXPECT_EQ(b.wan_messages, grid.cluster_count() - 1);  // one relay each

  const CollectiveResult base = sim.baseline_bcast(0, MiB(1), 1);
  EXPECT_EQ(base.delivered.size(), grid.total_nodes());
  EXPECT_GT(base.completion, 0.0);

  const CollectiveResult s = sim.scatter(*sched, 0, KiB(64), 1);
  EXPECT_GT(s.completion, 0.0);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_GE(s.bytes, s.wan_bytes);

  const CollectiveResult a = sim.alltoall(*sched, KiB(16), 1);
  EXPECT_GT(a.completion, 0.0);
  EXPECT_GT(a.wan_messages, 0u);
}

TEST(BackendVerbs, SimBaselineIsIndexedByGlobalRank) {
  // The grid-unaware tree is rooted at the root cluster's coordinator; its
  // start time (the engine's clock, 0) must sit at that rank's slot, and
  // every other rank must receive strictly later.
  const auto grid = topology::grid5000_testbed();
  const SimBackend sim(grid);
  const CollectiveResult r = sim.baseline_bcast(2, MiB(1), 1);
  ASSERT_EQ(r.delivered.size(), grid.total_nodes());
  const NodeId root = grid.global_rank(2, 0);
  EXPECT_EQ(r.delivered[root], 0.0);
  for (NodeId rank = 0; rank < grid.total_nodes(); ++rank) {
    if (rank != root) {
      EXPECT_GT(r.delivered[rank], 0.0) << "rank " << rank;
    }
  }
}

TEST(BackendVerbs, PlogpBcastMatchesEvaluator) {
  const auto grid = topology::grid5000_testbed();
  const PlogpBackend plogp;
  const auto inst = sched::Instance::from_grid(grid, 0, MiB(2));
  for (const auto& s : sched::paper_heuristics()) {
    const sched::SchedulerRuntimeInfo info(inst, MiB(2),
                                           s.options().completion);
    const CollectiveResult r = plogp.bcast(s.entry(), info, 0);
    const sched::Schedule want =
        sched::evaluate_order(inst, s.order(info), info.completion());
    EXPECT_DOUBLE_EQ(r.completion, want.makespan) << s.name();
    EXPECT_FALSE(r.per_rank);
    ASSERT_EQ(r.delivered.size(), inst.clusters());
    for (ClusterId c = 0; c < inst.clusters(); ++c)
      EXPECT_DOUBLE_EQ(r.delivered[c], want.cluster_finish[c]);
    EXPECT_EQ(r.messages, inst.clusters() - 1);
  }
}

TEST(BackendVerbs, SeedControlsSimNoiseOnly) {
  const auto grid = topology::grid5000_testbed();
  const auto sched = sched::registry().make("ECEF-LAT");
  const auto inst = sched::Instance::from_grid(grid, 0, MiB(1));
  const sched::SchedulerRuntimeInfo info(inst, MiB(1));

  const SimBackend quiet(grid);
  EXPECT_DOUBLE_EQ(quiet.bcast(*sched, info, 1).completion,
                   quiet.bcast(*sched, info, 2).completion);

  const SimBackend noisy(grid, {0.05});
  EXPECT_DOUBLE_EQ(noisy.bcast(*sched, info, 7).completion,
                   noisy.bcast(*sched, info, 7).completion);
  EXPECT_NE(noisy.bcast(*sched, info, 7).completion,
            noisy.bcast(*sched, info, 8).completion);
}

}  // namespace
}  // namespace gridcast::collective
