#include "sched/builtin_schedulers.hpp"

#include <algorithm>

#include "sched/auto_scheduler.hpp"
#include "sched/mixed.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

SendOrder FlatTreeScheduler::order(const SchedulerRuntimeInfo& info) const {
  return flat_tree_order(info.instance());
}

SendOrder FefScheduler::order(const SchedulerRuntimeInfo& info) const {
  return fef_order(info.instance(), opts_.fef_weight);
}

std::string_view EcefScheduler::name() const noexcept {
  switch (la_) {
    case Lookahead::kNone: return "ECEF";
    case Lookahead::kMinEdge: return "ECEF-LA";
    case Lookahead::kMinEdgePlusT: return "ECEF-LAt";
    case Lookahead::kMaxEdgePlusT: return "ECEF-LAT";
    case Lookahead::kAvgEdge: return "ECEF-AvgEdge";
    case Lookahead::kAvgAfterMove: return "ECEF-AvgMove";
  }
  return "ECEF-?";
}

SendOrder EcefScheduler::order(const SchedulerRuntimeInfo& info) const {
  return ecef_order(info.instance(), la_);
}

SendOrder BottomUpScheduler::order(const SchedulerRuntimeInfo& info) const {
  return bottomup_order(info.instance(), opts_.bottomup);
}

SendOrder LanFlatScheduler::order(const SchedulerRuntimeInfo& info) const {
  return flat_tree_order(info.instance());
}

bool LanFlatScheduler::can_schedule(const SchedulerRuntimeInfo& info) const {
  // The cached lower bound already contains each cluster's cheapest
  // incoming transfer; when it stays within `lan_slack_` of the internal
  // broadcasts alone, the grid is LAN-homogeneous enough for flat order.
  return info.clusters() >= 2 &&
         info.lower_bound() <= lan_slack_ * info.max_internal();
}

SendOrder StarWanScheduler::order(const SchedulerRuntimeInfo& info) const {
  const Instance& inst = info.instance();
  const ClusterId root = inst.root();
  std::vector<ClusterId> spokes;
  spokes.reserve(info.clusters() - 1);
  for (ClusterId j = 0; j < info.clusters(); ++j)
    if (j != root) spokes.push_back(j);
  // Worst direct path first: the spoke whose delivery-plus-internal time
  // is largest cannot afford to wait behind the root's earlier injections.
  std::sort(spokes.begin(), spokes.end(), [&](ClusterId a, ClusterId b) {
    const Time ca = inst.transfer(root, a) + inst.T(a);
    const Time cb = inst.transfer(root, b) + inst.T(b);
    if (ca != cb) return ca > cb;
    return a < b;  // deterministic tie-break
  });
  SendOrder order;
  order.reserve(spokes.size());
  for (const ClusterId j : spokes) order.push_back({root, j});
  return order;
}

bool StarWanScheduler::can_schedule(const SchedulerRuntimeInfo& info) const {
  if (info.clusters() < 2) return false;
  // A LAN-regime grid has no star to exploit; leave it to LAN-Flat (the
  // cached lower bound is the cheap screen before the O(n²) shape scan).
  if (info.lower_bound() <=
      LanFlatScheduler::kDefaultLanSlack * info.max_internal())
    return false;
  // Hub shape: the direct root edge is every spoke's cheapest entry.
  const Instance& inst = info.instance();
  const ClusterId root = inst.root();
  for (ClusterId j = 0; j < info.clusters(); ++j) {
    if (j == root) continue;
    const Time direct = inst.transfer(root, j);
    for (ClusterId i = 0; i < info.clusters(); ++i)
      if (i != j && inst.transfer(i, j) < direct) return false;
  }
  return true;
}

void register_builtin_schedulers(SchedulerRegistry& reg) {
  reg.add(
      "FlatTree",
      [](const HeuristicOptions& o) {
        return std::make_shared<const FlatTreeScheduler>(o);
      },
      {"flattree", "flat-tree", "flat"});
  reg.add(
      "FEF",
      [](const HeuristicOptions& o) {
        return std::make_shared<const FefScheduler>(o);
      },
      {"fef"});
  const auto ecef = [&reg](Lookahead la, std::vector<std::string> aliases) {
    // Canonical name comes from the entry itself so the two can't drift.
    const std::string name{EcefScheduler(la).name()};
    reg.add(
        name,
        [la](const HeuristicOptions& o) {
          return std::make_shared<const EcefScheduler>(la, o);
        },
        std::move(aliases));
  };
  ecef(Lookahead::kNone, {"ecef"});
  ecef(Lookahead::kMinEdge, {"ecef-la"});
  // Folding "ECEF-LAt" and "ECEF-LAT" to lowercase collides, so the
  // aliases are explicit: the bare "ecef-lat" goes to the balance-oriented
  // LAT variant, and each variant gets an unambiguous -min/-max form.
  ecef(Lookahead::kMinEdgePlusT, {"ecef-la-min"});
  ecef(Lookahead::kMaxEdgePlusT, {"ecef-lat", "ecef-la-max"});
  ecef(Lookahead::kAvgEdge, {"ecef-avgedge", "ecef-avg"});
  ecef(Lookahead::kAvgAfterMove, {"ecef-avgmove"});
  reg.add(
      "BottomUp",
      [](const HeuristicOptions& o) {
        return std::make_shared<const BottomUpScheduler>(o);
      },
      {"bottomup", "bottom-up"});
  // The paper's Section 6 deployment recommendation, itself selectable by
  // name.  Its factory resolves the delegates through the registry at
  // make() time (safe: factories run outside the registry lock).
  reg.add(
      "Mixed",
      [](const HeuristicOptions& o) {
        return std::make_shared<const MixedStrategy>(10, o);
      },
      {"mixed"});
  // Grid-shape specialists, gated by can_schedule: race harnesses skip
  // them on grids outside their shape instead of racing them, so they are
  // safe to include in `--sched=all`.
  reg.add(
      "LAN-Flat",
      [](const HeuristicOptions& o) {
        return std::make_shared<const LanFlatScheduler>(o);
      },
      {"lan-flat", "lanflat"});
  reg.add(
      "Star-WAN",
      [](const HeuristicOptions& o) {
        return std::make_shared<const StarWanScheduler>(o);
      },
      {"star-wan", "starwan"});
  // The registry-wide per-instance selector, registered last so its
  // candidate snapshot (taken at make() time, outside the registry lock)
  // covers every builtin above.  The factory captures *this* registry —
  // not the global one — so local test registries get local candidates.
  reg.add(
      "auto",
      [r = &reg](const HeuristicOptions& o) {
        return std::make_shared<const AutoScheduler>(*r, o);
      },
      {"best", "propose"});
}

}  // namespace gridcast::sched
