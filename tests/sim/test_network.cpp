#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "collective/alltoall.hpp"
#include "collective/scatter.hpp"
#include "support/error.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::sim {
namespace {

/// Two clusters of two nodes; zero-overhead parameters make every timing
/// a closed form: intra gap 0.01+m/1e8, inter gap 0.001+m/1e7.
topology::Grid test_grid() {
  plogp::Params intra;
  intra.L = 0.001;
  intra.g = plogp::GapFunction::affine(0.01, 1e8);
  intra.os = plogp::GapFunction::constant(0.0);
  intra.orecv = plogp::GapFunction::constant(0.0);

  plogp::Params inter;
  inter.L = 0.1;
  inter.g = plogp::GapFunction::affine(0.001, 1e7);
  inter.os = plogp::GapFunction::constant(0.0);
  inter.orecv = plogp::GapFunction::constant(0.0);

  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 2, intra);
  cs.emplace_back("b", 2, intra);
  topology::Grid g(std::move(cs));
  g.set_link_symmetric(0, 1, inter);
  return g;
}

TEST(Network, IntraClusterSendTiming) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const Bytes m = 1000000;
  const SendTiming t = net.send(0, 1, m);
  EXPECT_DOUBLE_EQ(t.start, 0.0);
  EXPECT_DOUBLE_EQ(t.injected, 0.01 + 0.01);  // gap = 0.01 + m/1e8
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + 0.001);
}

TEST(Network, InterClusterSendUsesLinkParams) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const Bytes m = 1000000;
  const SendTiming t = net.send(0, 2, m);  // rank 2 = cluster b coordinator
  EXPECT_DOUBLE_EQ(t.injected, 0.001 + 0.1);  // gap = 0.001 + m/1e7
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + 0.1);
}

TEST(Network, NicSerializesSendsFromOneRank) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const SendTiming a = net.send(0, 1, 0);
  const SendTiming b = net.send(0, 2, 0);
  EXPECT_DOUBLE_EQ(b.start, a.injected);
  EXPECT_DOUBLE_EQ(net.nic_free(0), b.injected);
}

TEST(Network, DistinctSendersDoNotSerialize) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const SendTiming a = net.send(0, 2, 0);
  const SendTiming b = net.send(1, 3, 0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
}

TEST(Network, DeliveryCallbackFiresAtDeliveredTime) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  Time fired = -1.0;
  const SendTiming t = net.send(0, 1, 500, [&](Time when) { fired = when; });
  net.engine().run();
  EXPECT_DOUBLE_EQ(fired, t.delivered);
}

TEST(Network, CountsMessagesAndBytes) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  (void)net.send(0, 1, 100);
  (void)net.send(0, 2, 200);
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes_sent(), 300u);
}

TEST(Network, SeparatesInterClusterTraffic) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  (void)net.send(0, 1, 100);  // intra (cluster a)
  (void)net.send(0, 2, 200);  // inter (a -> b)
  (void)net.send(2, 3, 400);  // intra (cluster b)
  (void)net.send(3, 1, 800);  // inter (b -> a)
  EXPECT_EQ(net.messages(), 4u);
  EXPECT_EQ(net.inter_cluster_messages(), 2u);
  EXPECT_EQ(net.bytes_sent(), 1500u);
  EXPECT_EQ(net.inter_cluster_bytes(), 1000u);
}

TEST(Network, SelfSendRejected) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  EXPECT_THROW((void)net.send(1, 1, 10), LogicError);
}

TEST(Network, RankOutOfRangeRejected) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  EXPECT_THROW((void)net.send(0, 4, 10), LogicError);
  EXPECT_THROW((void)net.nic_free(4), LogicError);
}

TEST(Network, JitterPerturbsButStaysBounded) {
  const topology::Grid grid = test_grid();
  Network clean(grid, {}, 1);
  const Time base = clean.send(0, 2, 1000000).delivered;

  Network noisy(grid, {0.05}, 2);
  const Time jittered = noisy.send(0, 2, 1000000).delivered;
  EXPECT_NE(jittered, base);
  EXPECT_GT(jittered, base * 0.8);
  EXPECT_LT(jittered, base * 1.2);
}

TEST(Network, JitterDeterministicPerSeed) {
  const topology::Grid grid = test_grid();
  Network a(grid, {0.1}, 42), b(grid, {0.1}, 42);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.send(0, 2, 1000).delivered,
                     b.send(0, 2, 1000).delivered);
}

TEST(Network, ReceiveOverheadIncludedInDelivery) {
  plogp::Params p = plogp::Params::latency_bandwidth(ms(1), 1e7);
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 2, p);
  topology::Grid grid(std::move(cs));
  Network net(grid, {}, 1);
  const Bytes m = MiB(1);
  const SendTiming t = net.send(0, 1, m);
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + p.L + p.orecv(m));
}

TEST(Network, ExcessiveJitterConfigThrows) {
  const topology::Grid grid = test_grid();
  EXPECT_THROW(Network(grid, {0.9}, 1), LogicError);
}

// ---- Send-memo equivalence: the direct-mapped (pair, size) cache must be
// invisible in the timings — every cached g(m)/orecv(m) is the exact
// double the gap functions produce, pinned here by running the same send
// sequence with the memo enabled and disabled and requiring bit equality.

TEST(Network, MemoMatchesUncachedTimingsBitForBit) {
  const topology::Grid grid = test_grid();
  Network cached(grid, {}, 1);
  Network direct(grid, {}, 1);
  direct.disable_send_memo_for_test();

  // Sizes chosen to hammer one memo slot per pair (repeats), to spread
  // across slots, and to include 0 and large values; pairs cover intra,
  // inter, and both directions.
  const Bytes sizes[] = {0, 1, 64, 1000, 1000, 4096, 1000000, 64, 0};
  const std::pair<NodeId, NodeId> pairs[] = {
      {0, 1}, {0, 2}, {2, 3}, {3, 1}, {1, 0}, {2, 0}};
  for (const Bytes m : sizes) {
    for (const auto& [from, to] : pairs) {
      const SendTiming a = cached.send(from, to, m);
      const SendTiming b = direct.send(from, to, m);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.injected, b.injected);
      EXPECT_EQ(a.delivered, b.delivered);
    }
  }
  EXPECT_DOUBLE_EQ(cached.engine().run(), direct.engine().run());
}

TEST(Network, MemoMatchesUncachedUnderJitter) {
  // Jitter draws two rng values per send (gap, then latency); the memo
  // must not change the draw order, or every later timing shifts.
  const topology::Grid grid = test_grid();
  Network cached(grid, {0.05}, 42);
  Network direct(grid, {0.05}, 42);
  direct.disable_send_memo_for_test();
  for (int i = 0; i < 64; ++i) {
    const Bytes m = static_cast<Bytes>((i % 5) * 1000);
    const auto from = static_cast<NodeId>(i % 4);
    const auto to = static_cast<NodeId>((i + 1) % 4);
    const SendTiming a = cached.send(from, to, m);
    const SendTiming b = direct.send(from, to, m);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
  }
}

TEST(Network, MemoCollisionsOverwriteWithoutCorruption) {
  // Far more distinct (pair, size) keys than the 128 memo slots: every
  // slot collides repeatedly, and each probe must still produce the
  // uncached timing (collisions overwrite, never alias).
  const topology::Grid grid = test_grid();
  Network cached(grid, {}, 1);
  Network direct(grid, {}, 1);
  direct.disable_send_memo_for_test();
  for (int i = 0; i < 2000; ++i) {
    const Bytes m = static_cast<Bytes>(i) * 17 + 1;
    const auto from = static_cast<NodeId>(i % 4);
    const auto to = static_cast<NodeId>((i + 2) % 4);
    if (from == to) continue;
    const SendTiming a = cached.send(from, to, m);
    const SendTiming b = direct.send(from, to, m);
    ASSERT_EQ(a.delivered, b.delivered) << "send " << i << " size " << m;
  }
}

// Exact work counts of the simulator on the Grid'5000 testbed (seed 1, no
// jitter): messages issued and events processed for round-robin 4 KiB
// sends, the hierarchical scatter and the naive all-to-all, at workload
// scale 1000 and 100000.  Any change to how many sends or events the
// simulator does for these workloads shows here on every machine; the
// wall-clock rate is perfbench's `sim.messages_per_s`.
TEST(Network, WorkCountersArePinnedOnTheTestbed) {
  const topology::Grid grid = topology::grid5000_testbed();
  struct Counts {
    std::uint64_t messages;
    std::uint64_t processed;
  };
  const auto counts = [](Network& net) {
    return Counts{net.messages(), net.engine().processed()};
  };
  const auto round_robin = [&](std::size_t scale) {
    Network net(grid, {}, 1);
    const std::uint32_t ranks = net.ranks();
    for (std::size_t i = 0; i < scale; ++i) {
      const auto from = static_cast<NodeId>(i % ranks);
      const auto to = static_cast<NodeId>((i + 1 + i / ranks) % ranks);
      if (from == to) continue;
      (void)net.send(from, to, KiB(4));
    }
    net.engine().run();
    return counts(net);
  };
  const auto scatter = [&](Bytes block) {
    Network net(grid, {}, 1);
    (void)collective::run_hierarchical_scatter(net, 0, block);
    return counts(net);
  };
  const auto alltoall = [&](Bytes block) {
    Network net(grid, {}, 1);
    (void)collective::run_naive_alltoall(net, block);
    return counts(net);
  };

  // Handler-less sends are timed at issue and schedule no event.
  const Counts rr_small = round_robin(1000);
  EXPECT_EQ(rr_small.messages, 1000u);
  EXPECT_EQ(rr_small.processed, 0u);
  const Counts rr_large = round_robin(100000);
  EXPECT_EQ(rr_large.messages, 98944u);
  EXPECT_EQ(rr_large.processed, 0u);
  const Counts sc_small = scatter(1000);
  EXPECT_EQ(sc_small.messages, 87u);
  EXPECT_EQ(sc_small.processed, 87u);
  const Counts sc_large = scatter(100000);
  EXPECT_EQ(sc_large.messages, 87u);
  EXPECT_EQ(sc_large.processed, 87u);
  const Counts a2a_small = alltoall(1000);
  EXPECT_EQ(a2a_small.messages, 7656u);
  EXPECT_EQ(a2a_small.processed, 7656u);
  const Counts a2a_large = alltoall(100000);
  EXPECT_EQ(a2a_large.messages, 7656u);
  EXPECT_EQ(a2a_large.processed, 7656u);
}

}  // namespace
}  // namespace gridcast::sim
