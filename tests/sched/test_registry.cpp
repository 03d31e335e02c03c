#include "sched/registry.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "exp/param_ranges.hpp"
#include "sched/builtin_schedulers.hpp"
#include "sched/evaluate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gridcast::sched {
namespace {

constexpr std::string_view kPaperNames[] = {
    "FlatTree", "FEF",      "ECEF",    "ECEF-LA",
    "ECEF-LAt", "ECEF-LAT", "BottomUp"};

TEST(Registry, RoundTripsAllSevenPaperHeuristics) {
  for (const auto name : kPaperNames) {
    ASSERT_TRUE(registry().contains(name)) << name;
    const SchedulerEntryPtr entry = registry().make(name);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->name(), name);
  }
}

TEST(Registry, AliasesResolveCaseInsensitively) {
  EXPECT_EQ(registry().make("ecef-lat")->name(), "ECEF-LAT");
  EXPECT_EQ(registry().make("ECEF-LAT")->name(), "ECEF-LAT");
  EXPECT_EQ(registry().make("ECEF-LAt")->name(), "ECEF-LAt");
  EXPECT_EQ(registry().make("ecef-la-min")->name(), "ECEF-LAt");
  EXPECT_EQ(registry().make("Flat-Tree")->name(), "FlatTree");
  EXPECT_EQ(registry().make("bottom-up")->name(), "BottomUp");
}

TEST(Registry, UnknownNameThrowsListingAvailable) {
  try {
    (void)registry().make("NoSuchHeuristic");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NoSuchHeuristic"), std::string::npos);
    EXPECT_NE(what.find("ECEF-LAT"), std::string::npos);  // lists choices
  }
}

TEST(Registry, DuplicateRegistrationRejected) {
  SchedulerRegistry reg;
  register_builtin_schedulers(reg);
  const auto factory = [](const HeuristicOptions& o) {
    return std::make_shared<const FlatTreeScheduler>(o);
  };
  EXPECT_THROW(reg.add("FlatTree", factory), InvalidInput);
  // A canonical name may not shadow an existing alias (exact canonical
  // match wins in lookups, so this would hijack make("mixed")).
  EXPECT_THROW(reg.add("mixed", factory), InvalidInput);
  // Alias collisions are rejected against aliases and canonical names.
  EXPECT_THROW(reg.add("Fresh", factory, {"ecef-lat"}), InvalidInput);
  EXPECT_THROW(reg.add("Fresh", factory, {"FEF"}), InvalidInput);
  EXPECT_THROW(reg.add("Fresh", factory, {"bottomup"}), InvalidInput);
  // A genuinely new name is accepted.
  reg.add("Fresh", factory, {"fresh-alias"});
  EXPECT_EQ(reg.make("fresh-alias")->name(), "FlatTree");
}

TEST(Registry, DuplicateAliasWithinOneCallRejected) {
  // Regression: intra-call duplicates were only checked against already-
  // registered maps, so the second occurrence was silently dropped by
  // aliases_.emplace.
  SchedulerRegistry reg;
  const auto factory = [](const HeuristicOptions& o) {
    return std::make_shared<const FlatTreeScheduler>(o);
  };
  EXPECT_THROW(reg.add("A", factory, {"dup", "dup"}), InvalidInput);
  // Case-insensitive folding makes these the same alias too.
  EXPECT_THROW(reg.add("B", factory, {"Alias", "alias"}), InvalidInput);
  // The failed registration must not leave partial state behind.
  EXPECT_FALSE(reg.contains("A"));
  EXPECT_FALSE(reg.contains("dup"));
  reg.add("C", factory, {"dup"});
  EXPECT_EQ(reg.make("dup")->name(), "FlatTree");
}

TEST(Registry, NamesPreserveRegistrationOrder) {
  const auto names = registry().names();
  ASSERT_GE(names.size(), 7u);
  // The paper's figure order leads the built-in registration.
  EXPECT_EQ(names[0], "FlatTree");
  EXPECT_EQ(names[1], "FEF");
  EXPECT_EQ(names[2], "ECEF");
  EXPECT_EQ(names[6], "ECEF-AvgEdge");
}

TEST(Registry, OptionsReachTheEntry) {
  HeuristicOptions opts;
  opts.fef_weight = FefWeight::kGapPlusLatency;
  const auto entry = registry().make("FEF", opts);
  EXPECT_EQ(entry->options().fef_weight, FefWeight::kGapPlusLatency);
}

TEST(Registry, PaperHelpersAreRegistryBacked) {
  const auto paper = paper_heuristics();
  ASSERT_EQ(paper.size(), 7u);
  for (std::size_t i = 0; i < paper.size(); ++i)
    EXPECT_EQ(paper[i].name(), kPaperNames[i]);
  const auto family = ecef_family();
  ASSERT_EQ(family.size(), 4u);
  EXPECT_EQ(family[0].name(), "ECEF");
  EXPECT_EQ(family[3].name(), "ECEF-LAT");
}

// Property: every registered entry that accepts an instance emits a
// causal SendOrder that evaluate_order accepts, on random Table 2
// instances of varied size.  Grid-shape-specialised entries may refuse
// via can_schedule — that is their contract — but the paper's seven must
// accept everything.
TEST(Registry, EveryEntryEmitsCausalOrdersOnRandomInstances) {
  const auto entries = registry().make_all();
  for (std::uint64_t it = 0; it < 40; ++it) {
    Rng rng = Rng::stream(11, it);
    const std::size_t clusters = 2 + static_cast<std::size_t>(it % 12);
    const Instance inst =
        exp::sample_instance(exp::ParamRanges::paper(), clusters, rng);
    const SchedulerRuntimeInfo info(inst);
    for (const auto& entry : entries) {
      if (!entry->can_schedule(info)) continue;  // gated: skipped, not raced
      const SendOrder order = entry->order(info);
      ASSERT_EQ(order.size(), clusters - 1) << entry->name();
      const Schedule s = evaluate_order(inst, order);  // throws if acausal
      EXPECT_EQ(describe_invalid(s, inst.clusters()), "") << entry->name();
    }
  }
  for (const auto name : kPaperNames) {
    Rng rng = Rng::stream(12, 0);
    const Instance inst =
        exp::sample_instance(exp::ParamRanges::paper(), 6, rng);
    EXPECT_TRUE(registry().make(name)->can_schedule(SchedulerRuntimeInfo(inst)))
        << name;
  }
}

// ----------------------------------------- grid-shape-specialised gates

/// A hand-built instance: `wan` scales the inter-cluster transfer costs
/// relative to the internal broadcast times (all 10 ms).  `wan` well under
/// one is the LAN regime; far above one, a WAN.
Instance shaped_instance(std::size_t clusters, double wan,
                         bool star = false) {
  SquareMatrix<Time> g(clusters), L(clusters);
  std::vector<Time> T(clusters, ms(10));
  for (ClusterId i = 0; i < clusters; ++i) {
    for (ClusterId j = 0; j < clusters; ++j) {
      if (i == j) continue;
      // In the star shape, non-root pairs cost double the hub edges.
      const double detour = (star && i != 0 && j != 0) ? 2.0 : 1.0;
      g(i, j) = ms(5) * wan * detour;
      L(i, j) = ms(5) * wan * detour;
    }
  }
  return Instance(0, std::move(g), std::move(L), std::move(T));
}

TEST(GatedEntries, LanFlatUsesLowerBoundAgainstMaxInternal) {
  const auto entry = registry().make("LAN-Flat");
  // LAN regime: transfers are 1% of the internal time; lower_bound stays
  // within the slack of max_T and the gate opens.
  const Instance lan = shaped_instance(5, 0.01);
  EXPECT_TRUE(entry->can_schedule(SchedulerRuntimeInfo(lan)));
  // WAN regime: the cheapest incoming edge alone dwarfs max_T.
  const Instance wan = shaped_instance(5, 10.0);
  EXPECT_FALSE(entry->can_schedule(SchedulerRuntimeInfo(wan)));
  // When it does schedule, the order is the flat tree.
  const SendOrder order = entry->order(SchedulerRuntimeInfo(lan));
  ASSERT_EQ(order.size(), 4u);
  for (const auto& [s, r] : order) EXPECT_EQ(s, 0u);
}

TEST(GatedEntries, StarWanRequiresHubShapeAndWanRegime) {
  const auto entry = registry().make("Star-WAN");
  // Hub-shaped WAN: accepted; spokes ordered worst direct path first
  // (uniform here, so ascending id tie-break) and all sent by the root.
  const Instance star = shaped_instance(5, 10.0, /*star=*/true);
  EXPECT_TRUE(entry->can_schedule(SchedulerRuntimeInfo(star)));
  const SendOrder order = entry->order(SchedulerRuntimeInfo(star));
  ASSERT_EQ(order.size(), 4u);
  for (const auto& [s, r] : order) EXPECT_EQ(s, 0u);
  const Schedule sched = evaluate_order(star, order);
  EXPECT_EQ(describe_invalid(sched, star.clusters()), "");
  // Uniform full mesh: no hub to exploit (ties are a degenerate star, but
  // the non-root detour in the star shape is what the gate keys on).
  const Instance lan_star = shaped_instance(5, 0.01, /*star=*/true);
  EXPECT_FALSE(entry->can_schedule(SchedulerRuntimeInfo(lan_star)))
      << "LAN regime must be refused even when hub-shaped";
  // WAN mesh where a non-root relay beats the direct edge: not a star.
  Instance mesh = shaped_instance(5, 10.0);
  {
    SquareMatrix<Time> g(5), L(5);
    std::vector<Time> T(5, ms(10));
    for (ClusterId i = 0; i < 5; ++i)
      for (ClusterId j = 0; j < 5; ++j) {
        if (i == j) continue;
        g(i, j) = ms(50);
        L(i, j) = ms(50);
      }
    g(1, 2) = ms(1);  // cluster 2's cheapest entry is via 1, not the root
    mesh = Instance(0, std::move(g), std::move(L), std::move(T));
  }
  EXPECT_FALSE(entry->can_schedule(SchedulerRuntimeInfo(mesh)));
}

TEST(RuntimeInfo, CachesInstanceAggregates) {
  Rng rng = Rng::stream(5, 3);
  const Instance inst =
      exp::sample_instance(exp::ParamRanges::paper(), 8, rng);
  const SchedulerRuntimeInfo info(inst, MiB(1),
                                  CompletionModel::kAfterLastSend);
  EXPECT_EQ(info.clusters(), 8u);
  EXPECT_EQ(info.message_size(), MiB(1));
  EXPECT_EQ(info.completion(), CompletionModel::kAfterLastSend);
  EXPECT_DOUBLE_EQ(info.max_internal(), inst.max_T());
  EXPECT_DOUBLE_EQ(info.lower_bound(), inst.lower_bound());
}

}  // namespace
}  // namespace gridcast::sched
