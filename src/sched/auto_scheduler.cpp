#include "sched/auto_scheduler.hpp"

#include <utility>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

AutoScheduler::AutoScheduler(const SchedulerRegistry& reg,
                             HeuristicOptions opts,
                             std::string_view self_name)
    : SchedulerEntry(opts) {
  for (const std::string& name : reg.names()) {
    // Never construct the entry we are registered as: its factory would
    // build another AutoScheduler and recurse forever.  Every other
    // composite is cheap to construct and identifies itself.
    if (name == self_name) continue;
    SchedulerEntryPtr entry = reg.make(name, opts);
    if (entry->is_composite()) continue;
    candidates_.push_back(std::move(entry));
  }
}

bool AutoScheduler::can_schedule(const SchedulerRuntimeInfo& info) const {
  for (const auto& cand : candidates_)
    if (cand->can_schedule(info)) return true;
  return false;
}

SendOrder AutoScheduler::order(const SchedulerRuntimeInfo& info) const {
  return propose(info).order;
}

AutoScheduler::Proposal AutoScheduler::propose(
    const SchedulerRuntimeInfo& info) const {
  Proposal p;
  const SchedulerEntry* best = nullptr;
  SendOrder best_order;
  Time best_makespan = 0.0;
  for (const auto& cand : candidates_) {
    if (!cand->can_schedule(info)) {
      ++p.gated;
      continue;
    }
    if (opts_.prune && best != nullptr &&
        cand->lower_bound(info) >= best_makespan) {
      // A sound bound at or above the incumbent cannot yield a *strictly*
      // smaller makespan, and only strict-less dethrones the incumbent —
      // so this skip can never change the winner.
      ++p.pruned;
      continue;
    }
    SendOrder order = cand->order(info);
    const Time makespan =
        evaluate_order(info.instance(), order, info.completion()).makespan;
    ++p.evaluated;
    GRIDCAST_DCHECK(
        cand->lower_bound(info) <= makespan,
        "scheduler lower_bound() exceeds its evaluated makespan — the "
        "bound is unsound and pruning on it would be unsafe");
    if (best == nullptr || makespan < best_makespan) {
      best = cand.get();
      best_order = std::move(order);
      best_makespan = makespan;
    }
  }
  if (best == nullptr)
    throw InvalidInput(
        "auto: can_schedule refused every candidate for this instance "
        "(candidates: " +
        [this] {
          std::string names;
          for (const auto& c : candidates_) {
            if (!names.empty()) names += ", ";
            names += c->name();
          }
          return names;
        }() +
        ")");
  p.winner = best->name();
  p.order = std::move(best_order);
  p.makespan = best_makespan;
  return p;
}

std::vector<std::string_view> AutoScheduler::candidate_names() const {
  std::vector<std::string_view> out;
  out.reserve(candidates_.size());
  for (const auto& c : candidates_) out.push_back(c->name());
  return out;
}

}  // namespace gridcast::sched
