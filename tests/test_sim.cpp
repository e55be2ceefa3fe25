// Unit tests for the event-driven simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace hostnet::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, SameTickFifoOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run_until(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RelativeScheduleUsesNow) {
  Simulator s;
  Tick fired_at = -1;
  s.schedule_at(100, [&] { s.schedule(50, [&] { fired_at = s.now(); }); });
  s.run_until(1000);
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(20, [&] { ++fired; });
  s.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 15);
  s.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule(1, chain);
  };
  s.schedule_at(0, chain);
  s.run_until(1000);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.events_executed(), 100u);
}

TEST(Simulator, BoundaryEventIncluded) {
  Simulator s;
  bool fired = false;
  s.schedule_at(10, [&] { fired = true; });
  s.run_until(10);
  EXPECT_TRUE(fired);
}

// -- calendar-queue specific coverage ---------------------------------------

// Tick geometry of the queue, so the tests below keep exercising the L1
// and far paths whatever the level sizes are.
constexpr Tick kWindow = Tick(CalendarQueue::kNumSlots);  ///< one L0 window
constexpr Tick kHorizon = CalendarQueue::kHorizon;        ///< L1 reach

TEST(Simulator, SameTickFifoAcrossSchedulePaths) {
  // Event 1 is scheduled for tick T while T is beyond the first L0 window
  // (L1 bucket path); event 2 is scheduled for the same T at runtime, after
  // the window has advanced (direct L0 append). Schedule order must hold.
  Simulator s;
  std::vector<int> order;
  const Tick T = 2 * kWindow + kWindow / 2;    // third L0 window
  const Tick trigger = 2 * kWindow + kWindow / 4;  // same window, before T
  s.schedule_at(T, [&] { order.push_back(1); });
  s.schedule_at(trigger, [&, T] { s.schedule_at(T, [&] { order.push_back(2); }); });
  s.run_until(4 * kWindow);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, SameTickFifoAcrossBucketArrayWrap) {
  // Tick T sits beyond the whole calendar horizon at schedule time, so the
  // first two events take the far-heap path; the third is scheduled for
  // the same T at runtime after the bucket array has wrapped around and the
  // far entries have migrated down. FIFO must follow schedule order:
  // 0 (setup), 2 (setup), then 1 (scheduled last, at runtime).
  Simulator s;
  std::vector<int> order;
  const Tick T = kHorizon + 3 * kWindow + kWindow / 2;
  s.schedule_at(T, [&] { order.push_back(0); });
  s.schedule_at(T - 3, [&] { s.schedule(3, [&] { order.push_back(1); }); });
  s.schedule_at(T, [&] { order.push_back(2); });
  s.run_until(T);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(Simulator, SameTickFifoAcrossAllThreeLevels) {
  // One tick reached by a far-heap push, an L1 push and an L0 push, in
  // that schedule order (each issued when T is that far ahead).
  Simulator s;
  std::vector<int> order;
  const Tick T = 2 * kHorizon + kWindow / 2;
  s.schedule_at(T, [&] { order.push_back(0); });  // far heap
  s.schedule_at(T - kHorizon / 2, [&, T] { s.schedule_at(T, [&] { order.push_back(1); }); });
  s.schedule_at(T - 1, [&, T] { s.schedule_at(T, [&] { order.push_back(2); }); });
  s.run_until(T);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunUntilNeverCommitsAWindowPastItsBound) {
  // Pins the next_tick(bound) horizon rule. run_until(t) stops while the
  // next event is several L0 windows (or the whole horizon) past t; an
  // event then scheduled into that gap must fire at its own tick, ahead of
  // the far event. A queue that had jumped its window to the far event
  // would file the gap event into a slot of the wrong window, and it would
  // fire late.
  for (const Tick far : {5 * kWindow + 7, 2 * kHorizon + 7}) {
    Simulator s;
    std::vector<std::pair<int, Tick>> fired;
    s.schedule_at(far, [&] { fired.emplace_back(2, s.now()); });
    const Tick t = kWindow / 2;
    s.run_until(t);
    ASSERT_TRUE(fired.empty());
    ASSERT_EQ(s.now(), t);
    const Tick gap = 2 * kWindow + 3;
    ASSERT_LT(gap, far - kWindow);
    s.schedule_at(gap, [&] { fired.emplace_back(1, s.now()); });
    s.run_until(far);
    EXPECT_EQ(fired, (std::vector<std::pair<int, Tick>>{{1, gap}, {2, far}}));
  }
}

TEST(Simulator, StressOrderingMatchesStableSortByTick) {
  // 20k events over a range spanning many L0 windows, the L1 ring, and the
  // far heap, with forced same-tick collisions. The firing order must
  // equal a stable sort of the schedule order by tick.
  Simulator s;
  Rng rng(42);
  struct Rec {
    Tick at;
    int seq;
  };
  std::vector<Rec> scheduled;
  std::vector<int> fired;
  const int n = 20000;
  Tick max_at = 0;
  for (int i = 0; i < n; ++i) {
    Tick at = static_cast<Tick>(rng.below(static_cast<std::uint64_t>(kHorizon)));
    if (rng.chance(0.05)) at += kHorizon;  // far-heap territory
    at &= ~Tick(63);                       // force same-tick collisions
    max_at = std::max(max_at, at);
    scheduled.push_back({at, i});
    s.schedule_at(at, [&fired, i] { fired.push_back(i); });
  }
  s.run_until(max_at + 1);
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Rec& a, const Rec& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (int i = 0; i < n; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], scheduled[static_cast<size_t>(i)].seq);
  EXPECT_EQ(s.events_executed(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CrowdedWindowChainsMatchTickSeqOrder) {
  // The shape of BM_EventKernel/256: 256 chains re-scheduling themselves
  // 1-16 ticks ahead, so every L0 window is crowded and many events share
  // a tick. The firing order must equal a (tick, schedule-seq) priority
  // queue's -- the same-tick FIFO rule, checked against its definition.
  constexpr int kChains = 256;
  constexpr Tick kStop = 6 * kWindow;  // chains stop re-scheduling here
  struct Fire {
    int chain;
    Tick at;
    bool operator==(const Fire&) const = default;
  };
  const auto delay = [](int c) { return Tick(c & 15) + 1; };

  Simulator s;
  std::vector<Fire> fired;
  struct Chain {
    Simulator* s;
    std::vector<Fire>* fired;
    int c;
    Tick delay;
    void operator()() const {
      fired->push_back({c, s->now()});
      if (s->now() < kStop) s->schedule(delay, Chain{*this});
    }
  };
  for (int c = 0; c < kChains; ++c) s.schedule_at(Tick(c & 15), Chain{&s, &fired, c, delay(c)});
  s.run_until(kHorizon);

  struct Ref {
    Tick at;
    std::uint64_t seq;
    int chain;
    bool operator>(const Ref& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  std::uint64_t seq = 0;
  for (int c = 0; c < kChains; ++c) ref.push({Tick(c & 15), seq++, c});
  std::vector<Fire> expected;
  while (!ref.empty()) {
    const Ref r = ref.top();
    ref.pop();
    expected.push_back({r.chain, r.at});
    if (r.at < kStop) ref.push({r.at + delay(r.chain), seq++, r.chain});
  }
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_TRUE(fired == expected);
  EXPECT_GE(fired.back().at, kStop);  // the run crossed several windows
}

TEST(Simulator, SnapshotRoundTripWithEventsAtAllLevels) {
  // save -> load -> resave with pending events in L0, L1 and the far heap:
  // the resave must be audit-identical, the items must be in firing order,
  // and the restored run must fire exactly as an unsnapshotted twin does.
  struct Log {
    std::vector<std::pair<std::int64_t, Tick>> fired;
  };
  struct Fire {
    Simulator* s;
    Log* log;
    std::int64_t id;  ///< 64-bit: no padding, so the audit compares closure bytes
    Tick again;       ///< re-schedule this far ahead (0: none)
    void operator()() const {
      log->fired.emplace_back(id, s->now());
      if (again > 0) s->schedule(again, Fire{s, log, id + 1000, 0});
    }
  };
  const Tick mid = kHorizon / 2 + kWindow / 3;
  const auto populate = [&](Simulator& s, Log& log) {
    Rng rng(7);
    const auto below = [&rng](Tick n) {
      return static_cast<Tick>(rng.below(static_cast<std::uint64_t>(n)));
    };
    std::int64_t id = 0;
    for (int i = 0; i < 400; ++i) {
      Tick at = i % 5 == 0 ? mid + below(kWindow) : below(3 * kHorizon);
      at &= ~Tick(7);  // same-tick collisions
      if (i % 7 == 1) at = 2 * kHorizon + kWindow * (i % 3);  // same-tick far FIFOs
      const Tick again = i % 3 == 0 ? below(2 * kHorizon) : 0;
      s.schedule_at(at, Fire{&s, &log, id++, again});
    }
    s.schedule_at(mid - mid % kWindow, Fire{&s, &log, id++, 0});  // pins the window at mid's
  };

  Simulator twin;
  Log twin_log;
  populate(twin, twin_log);
  twin.run_until(4 * kHorizon);

  Simulator s;
  Log log;
  populate(s, log);
  s.run_until(mid);
  Simulator::Snapshot snap;
  s.save_state(snap);
  int levels[3] = {0, 0, 0};
  for (std::size_t i = 0; i < snap.queue.items.size(); ++i) {
    const Tick ahead = snap.queue.items[i].at - snap.queue.win_start;
    ++levels[ahead < kWindow ? 0 : ahead < kHorizon ? 1 : 2];
    if (i > 0) {
      EXPECT_LE(snap.queue.items[i - 1].at, snap.queue.items[i].at);
    }
  }
  EXPECT_GT(levels[0], 0);
  EXPECT_GT(levels[1], 0);
  EXPECT_GT(levels[2], 0);

  s.load_state(snap);
  Simulator::Snapshot resaved;
  s.save_state(resaved);
  EXPECT_TRUE(Simulator::audit_identical(snap, resaved));
  EXPECT_EQ(s.pending(), snap.queue.items.size());
  s.run_until(4 * kHorizon);
  EXPECT_EQ(log.fired, twin_log.fired);
}

TEST(Simulator, LongChainAcrossManyWindowWraps) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50000) s.schedule(3, chain);  // crosses 150000 / kWindow windows
  };
  s.schedule_at(0, chain);
  s.run_until(ms(1));
  EXPECT_EQ(depth, 50000);
}

TEST(Simulator, LargeCaptureEventsFallBackToHeapAndRun) {
  Simulator s;
  std::array<std::uint64_t, 16> payload{};  // 128 B: over the inline capacity
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  s.schedule_at(5, [payload, &sum] {
    for (auto v : payload) sum += v;
  });
  s.run_until(10);
  EXPECT_EQ(sum, 120u);
}

TEST(Event, InlineSmallCaptures) {
  int x = 0;
  Event a([&x] { ++x; });
  EXPECT_TRUE(a.inlined());
  Event b = std::move(a);
  b();
  EXPECT_EQ(x, 1);
}

TEST(Event, HeapFallbackForLargeCaptures) {
  std::array<std::uint64_t, 32> big{};
  big[31] = 7;
  Event e([big] { (void)big[0]; });
  EXPECT_FALSE(e.inlined());
  e();
}

TEST(Event, ReleasesCapturedResources) {
  auto sp = std::make_shared<int>(7);
  {
    // Owning captures are not trivially copyable, so they take the heap
    // path -- and their resources must still be released exactly once.
    Event e([sp] { (void)*sp; });
    EXPECT_FALSE(e.inlined());
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);

  // Moved-from events must not double-release on destruction.
  {
    Event e([sp] { (void)*sp; });
    Event f = std::move(e);
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);
}

}  // namespace
}  // namespace hostnet::sim
