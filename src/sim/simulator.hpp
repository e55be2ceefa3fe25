// Discrete-event simulation kernel.
//
// A single Simulator owns the clock and the pending-event queue. Events are
// bucketed by tick with FIFO same-tick buckets (see calendar_queue.hpp), so
// simulations are deterministic by construction: two events scheduled for
// the same tick fire in the order they were scheduled. The schedule/fire
// path performs no heap allocation for closures up to Event::kInlineBytes.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()). The
  /// event is moved straight into the queue's slab: a closure passed here
  /// converts to a temporary Event, whose bytes are copied exactly once.
  void schedule_at(Tick at, Event&& fn) {
    assert(at >= now_ && "cannot schedule into the past");
    HOSTNET_INVARIANT(at >= now_,
                      "simulator time monotonicity: event scheduled at tick %lld "
                      "but the clock is already at %lld",
                      static_cast<long long>(at), static_cast<long long>(now_));
    queue_.push(at, std::move(fn));
  }

  /// Schedule `fn` to run `delay` ticks from now.
  void schedule(Tick delay, Event&& fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Run events until the queue is empty or the clock passes `until`.
  /// The clock is left at `until`, even if the queue dried up earlier.
  void run_until(Tick until);

  /// Run the single next event; returns false when no events remain.
  bool step();

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending() const { return queue_.size(); }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct Snapshot {
    Tick now = 0;
    std::uint64_t executed = 0;
    CalendarQueue::Snapshot queue;
  };

  void save_state(Snapshot& out) const {
    out.now = now_;
    out.executed = executed_;
    queue_.save_state(out.queue);
  }
  void load_state(const Snapshot& s) {
    now_ = s.now;
    executed_ = s.executed;
    queue_.load_state(s.queue);
  }
  static bool audit_identical(const Snapshot& a, const Snapshot& b) {
    return a.now == b.now && a.executed == b.executed &&
           CalendarQueue::audit_identical(a.queue, b.queue);
  }

 private:
  Tick now_ = 0;
  std::uint64_t executed_ = 0;
  CalendarQueue queue_;
};

HOSTNET_SNAPSHOT_COVERS(Simulator);

}  // namespace hostnet::sim
