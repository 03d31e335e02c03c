#include "sched/mixed.hpp"

namespace gridcast::sched {

MixedStrategy::MixedStrategy(std::size_t threshold, HeuristicOptions opts,
                             std::string_view small_name,
                             std::string_view large_name)
    : SchedulerEntry(opts),
      threshold_(threshold),
      small_(registry().make(small_name, opts)),
      large_(registry().make(large_name, opts)) {}

SendOrder MixedStrategy::order(const SchedulerRuntimeInfo& info) const {
  return delegate(info.clusters()).order(info);
}

const SchedulerEntry& MixedStrategy::delegate(
    std::size_t clusters) const noexcept {
  return clusters <= threshold_ ? *small_ : *large_;
}

}  // namespace gridcast::sched
