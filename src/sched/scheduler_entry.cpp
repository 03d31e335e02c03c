#include "sched/scheduler_entry.hpp"

namespace gridcast::sched {

SchedulerRuntimeInfo::SchedulerRuntimeInfo(const Instance& inst,
                                           Bytes message_size,
                                           CompletionModel completion)
    : inst_(&inst),
      clusters_(inst.clusters()),
      message_size_(message_size),
      completion_(completion),
      max_internal_(inst.max_T()),
      lower_bound_(inst.lower_bound()) {}

bool SchedulerEntry::can_schedule(const SchedulerRuntimeInfo& info) const {
  return info.clusters() >= 2;
}

SendOrder SchedulerEntry::order(const Instance& inst) const {
  return order(SchedulerRuntimeInfo(inst, 0, opts_.completion));
}

Schedule SchedulerEntry::run(const Instance& inst) const {
  const SchedulerRuntimeInfo info(inst, 0, opts_.completion);
  return evaluate_order(inst, order(info), info.completion());
}

Time SchedulerEntry::makespan(const Instance& inst) const {
  return run(inst).makespan;
}

}  // namespace gridcast::sched
