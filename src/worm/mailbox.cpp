#include "worm/mailbox.hpp"

#include <algorithm>

namespace worm::core {

void ScpuMailbox::add_duty(std::string name, Duty duty, bool urgent) {
  duties_.push_back({std::move(name), std::move(duty), urgent});
}

bool ScpuMailbox::pump() {
  bool any = false;
  for (const DutySlot& slot : duties_) {
    if (slot.duty()) {
      any = true;
      ++m_.duty_runs;
    }
  }
  return any;
}

bool ScpuMailbox::service_urgent() {
  bool any = false;
  for (const DutySlot& slot : duties_) {
    if (!slot.urgent) continue;
    if (slot.duty()) {
      any = true;
      ++m_.duty_runs;
      ++m_.urgent_services;
    }
  }
  return any;
}

void ScpuMailbox::note_queue_depth(std::size_t depth) {
  m_.queue_hwm = std::max<std::uint64_t>(m_.queue_hwm, depth);
}

}  // namespace worm::core
