#include "sim/simulator.hpp"

namespace hostnet::sim {

bool Simulator::step() {
  const Tick at = queue_.next_tick();
  if (at == CalendarQueue::kNoEvent) return false;
  Event fn = queue_.pop_at(at);
  now_ = at;
  ++executed_;
  fn();
  return true;
}

void Simulator::run_until(Tick until) {
  for (;;) {
    // Bounding next_tick keeps the queue's L0 window at or behind `until`,
    // so anything scheduled after this run (at >= now() = until) can never
    // land behind the window. See CalendarQueue::next_tick.
    const Tick at = queue_.next_tick(until);
    if (at == CalendarQueue::kNoEvent || at > until) break;
    Event fn = queue_.pop_at(at);
    now_ = at;
    ++executed_;
    fn();
  }
  if (now_ < until) now_ = until;
}

}  // namespace hostnet::sim
