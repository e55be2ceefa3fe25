// Calendar/bucket event queue for the simulation kernel.
//
// Events are bucketed by Tick, and every bucket is a FIFO, so two events
// scheduled for the same tick fire in schedule order *by construction* --
// no comparator decides same-tick order, and determinism cannot be broken
// by a queue rebalance.
//
// Storage: each pending event lives in exactly one node of a free-listed
// slab (`Event` + tick + next index). Every level below holds intrusive
// FIFO lists of node indices, so moving an event between levels re-links
// an index and never copies the event: its bytes are written once on push
// and read once on pop.
//
// Layout (sized from the schedule-ahead distribution in DESIGN.md 4a):
//   L0  -- 1024 one-tick slots covering the current 1024-tick (~1 ns,
//          picosecond clock) window. A two-level occupancy bitmap finds
//          the next occupied slot in two word scans.
//   L1  -- 4096 buckets of 1024 ticks each (~4.2 us horizon). When the
//          clock enters a bucket's window, its list is re-linked into the
//          L0 slots in insertion order, which preserves per-tick FIFO.
//   Far -- ticks beyond the horizon wait in a (tick, seq) min-heap (rare:
//          device latencies, protocol timers, control loops). On every
//          window advance, entries that enter the horizon move down.
//
// Same-tick FIFO across the three levels rests on one invariant: every far
// entry is at or beyond win_start + kHorizon. A push lands in the far heap
// only while its tick is beyond the horizon, and the advance that brings
// the tick inside migrates all of that tick's far entries (in seq order)
// before any later push can target it in L1 or L0. The same holds one
// level down: an L1 bucket is re-linked into L0 before the clock or any
// push can reach its window. So one tick's FIFO is always appended in
// schedule order, whatever path each event took.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/snapshot.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class CalendarQueue {
 public:
  static constexpr int kSlotBits = 10;
  static constexpr std::size_t kNumSlots = std::size_t{1} << kSlotBits;  ///< L0 window
  static constexpr Tick kSlotMask = Tick(kNumSlots) - 1;
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kNumBuckets = std::size_t{1} << kBucketBits;
  /// Ticks at or beyond win_start + kHorizon go to the far heap.
  static constexpr Tick kHorizon = Tick(1) << (kSlotBits + kBucketBits);
  static constexpr Tick kNoEvent = -1;
  /// Default next_tick() bound: never refuse a window advance.
  static constexpr Tick kNoBound = ~(Tick(1) << 63);

  /// Append `ev` to tick `at`'s FIFO. `at` must be >= the last popped tick.
  void push(Tick at, Event&& ev);

  /// Tick of the earliest pending event, or kNoEvent when empty or when
  /// every pending event is provably later than `bound`. Advances the L0
  /// window (an order-preserving re-link) when the current window is
  /// drained -- but never past `bound`: committing the window beyond the
  /// caller's horizon would mis-file later pushes that target ticks between
  /// the caller's clock and the jumped-to window (they would land in a slot
  /// of the wrong window and fire late). A caller that stops at `bound`
  /// (Simulator::run_until) must pass it; unbounded callers (step) use the
  /// default.
  Tick next_tick(Tick bound = kNoBound);

  /// Pop the front event of tick `at`, which must be the value just
  /// returned by next_tick().
  Event pop_at(Tick at);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // The snapshot captures the queue's *logical* content -- every pending
  // (tick, event) pair in firing order -- not its physical layout.
  // load_state() re-pushes the items in that order onto the saved window:
  // events of one tick arrive in their FIFO order, and the level each one
  // lands in follows from its tick alone, so the restored queue fires
  // exactly as the saved one would, and re-saving it reproduces the items.
  struct Snapshot {
    struct Item {
      Tick at = 0;
      Event ev;
    };
    Tick win_start = 0;
    Tick cursor = 0;
    std::vector<Item> items;  ///< every pending event, in firing order
  };

  /// Copy the full pending-event state into `out` (the vector is reused, so
  /// a recycled Snapshot allocates nothing once warmed). Every pending
  /// event must be clonable() -- asserted, since a non-clonable event would
  /// be silently lost on restore.
  void save_state(Snapshot& out) const;

  /// Restore the state captured by save_state(). Clears in place (the slab
  /// and the far heap keep their capacity) and re-pushes the items.
  void load_state(const Snapshot& s);

  /// Checkpoint-audit equality of two snapshots: identical tick sequences
  /// and Event::audit_identical() closures. Powers the HOSTNET_CHECKED
  /// restore-then-resave audit in HostSystem::restore().
  static bool audit_identical(const Snapshot& a, const Snapshot& b);

 private:
  using NodeIndex = std::uint32_t;
  static constexpr NodeIndex kNil = ~NodeIndex{0};

  struct Node {
    Event ev;
    Tick at = 0;
    NodeIndex next = kNil;  ///< next node of the same list (or of the free list)
  };
  /// Intrusive FIFO of nodes; `tail` is meaningful only while head != kNil.
  struct List {
    NodeIndex head = kNil;
    NodeIndex tail = kNil;
  };
  struct FarEntry {
    Tick at;
    std::uint64_t seq;  ///< push order among far entries: same-tick FIFO
    NodeIndex node;
  };
  /// Heap comparator: std::push_heap keeps the *greatest* on top, so
  /// "greater" puts the earliest (tick, seq) there.
  static bool far_later(const FarEntry& a, const FarEntry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// Occupancy bitmap over N lists with a one-word summary of the non-zero
  /// words, so the next set bit is found in two word scans.
  template <std::size_t N>
  class Bits {
    static_assert(N % 64 == 0 && N / 64 <= 64, "summary word covers at most 64 words");

   public:
    static constexpr std::size_t kNone = N;
    bool test(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }
    void set(std::size_t i) {
      words_[i / 64] |= std::uint64_t{1} << (i % 64);
      summary_ |= std::uint64_t{1} << (i / 64);
    }
    void reset(std::size_t i) {
      if ((words_[i / 64] &= ~(std::uint64_t{1} << (i % 64))) == 0)
        summary_ &= ~(std::uint64_t{1} << (i / 64));
    }
    /// First set bit at index >= from (no wraparound), or kNone.
    std::size_t find_ge(std::size_t from) const {
      if (from >= N) return kNone;
      std::size_t w = from / 64;
      const std::uint64_t m = words_[w] & (~std::uint64_t{0} << (from % 64));
      if (m != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t s = w + 1 < 64 ? summary_ & (~std::uint64_t{0} << (w + 1)) : 0;
      if (s == 0) return kNone;
      w = static_cast<std::size_t>(std::countr_zero(s));
      return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }

   private:
    std::array<std::uint64_t, N / 64> words_{};
    std::uint64_t summary_ = 0;
  };

  static std::size_t slot_index(Tick at) { return static_cast<std::size_t>(at & kSlotMask); }
  static std::size_t bucket_index(Tick at) {
    return static_cast<std::size_t>(at >> kSlotBits) & (kNumBuckets - 1);
  }

  /// Append node `n` (whose next is kNil) to list `l`; true if `l` was empty.
  bool append(List& l, NodeIndex n) {
    const bool was_empty = l.head == kNil;
    if (was_empty)
      l.head = n;
    else
      nodes_[l.tail].next = n;
    l.tail = n;
    return was_empty;
  }

  /// File node `n` (tick `at` >= win_start_) into the level its tick
  /// belongs to.
  void file(Tick at, NodeIndex n) {
    if (at < win_start_ + Tick(kNumSlots)) {
      // Hot path: within the current window -- append to the one-tick slot.
      const std::size_t slot = slot_index(at);
      if (append(slots_[slot], n)) slot_bits_.set(slot);
    } else if (at < win_start_ + kHorizon) {
      const std::size_t b = bucket_index(at);
      if (append(buckets_[b], n)) bucket_bits_.set(b);
    } else {
      push_far(at, n);
    }
  }

  /// Beyond the horizon: push onto the far heap (the cold path, out of line).
  void push_far(Tick at, NodeIndex n);

  /// next_tick() once the current window holds nothing at or after the
  /// cursor: advance to the earliest populated window, bounded by `bound`.
  Tick next_tick_advancing(Tick bound);

  /// First occupied L1 bucket after the current window's bucket (ring
  /// order), as an absolute window-base tick; kNoEvent if L1 is empty.
  Tick next_bucket_base() const;

  /// Move the window to the one containing `target`: re-link that window's
  /// L1 bucket into L0 (insertion order), then migrate the far entries that
  /// the new horizon reaches.
  void advance_to(Tick target);

  Tick win_start_ = 0;  ///< aligned to kNumSlots
  Tick cursor_ = 0;     ///< lower bound for the earliest pending tick
  // hostnet-audit: skip(size_, derived event count; load_state recounts it while re-pushing the items)
  std::size_t size_ = 0;
  std::vector<Node> nodes_;  ///< the slab: every pending event, once
  // hostnet-audit: skip(free_, derived free list over the slab; load_state empties the slab, so it starts empty)
  NodeIndex free_ = kNil;
  std::array<List, kNumSlots> slots_;
  std::array<List, kNumBuckets> buckets_;
  // hostnet-audit: skip(slot_bits_, derived occupancy of slots_; load_state clears it and the re-pushes set it)
  Bits<kNumSlots> slot_bits_;
  // hostnet-audit: skip(bucket_bits_, derived occupancy of buckets_; load_state clears it and the re-pushes set it)
  Bits<kNumBuckets> bucket_bits_;
  std::vector<FarEntry> far_;  ///< beyond-horizon nodes, a far_later() heap
  // hostnet-audit: skip(far_seq_, derived push counter; only the relative order of far entries matters, and the re-push keeps it)
  std::uint64_t far_seq_ = 0;
  // hostnet-audit: skip(far_order_, save_state scratch for sorting the far heap; empty between calls, kept only for its capacity)
  mutable std::vector<FarEntry> far_order_;
};

// The per-event operations are inline: the kernel's run loop and every
// component's schedule call compile down to a few list and bitmap updates.

inline void CalendarQueue::push(Tick at, Event&& ev) {
  assert(at >= win_start_ && "cannot schedule before the current window");
  // cursor_ is the last popped tick: a push behind it could never fire and
  // would silently break same-tick FIFO determinism.
  HOSTNET_INVARIANT(at >= cursor_ && at >= win_start_,
                    "calendar-queue monotonicity: push at tick %lld behind "
                    "cursor %lld (window start %lld)",
                    static_cast<long long>(at), static_cast<long long>(cursor_),
                    static_cast<long long>(win_start_));
  ++size_;
  NodeIndex n = free_;
  if (n != kNil) {
    Node& node = nodes_[n];
    free_ = node.next;
    node.ev = std::move(ev);
    node.at = at;
    node.next = kNil;
  } else {
    n = static_cast<NodeIndex>(nodes_.size());
    assert(n != kNil && "calendar-queue slab index space exhausted");
    nodes_.push_back(Node{std::move(ev), at, kNil});
  }
  file(at, n);
}

inline Tick CalendarQueue::next_tick(Tick bound) {
  if (size_ == 0) return kNoEvent;
  // Slots hold exactly one tick's events and every L0 tick is >= cursor_,
  // so the first occupied slot at or after the cursor is the answer.
  const std::size_t s = slot_bits_.find_ge(slot_index(cursor_));
  if (s != decltype(slot_bits_)::kNone) return win_start_ + Tick(s);
  return next_tick_advancing(bound);
}

inline Event CalendarQueue::pop_at(Tick at) {
  assert(at >= win_start_ && at < win_start_ + Tick(kNumSlots));
  const std::size_t slot = slot_index(at);
  List& l = slots_[slot];
  assert(l.head != kNil);
  const NodeIndex n = l.head;
  Node& node = nodes_[n];
  l.head = node.next;
  if (l.head == kNil) slot_bits_.reset(slot);
  Event ev = std::move(node.ev);
  node.next = free_;
  free_ = n;
  --size_;
  cursor_ = at;
  return ev;
}

HOSTNET_SNAPSHOT_COVERS(CalendarQueue);

}  // namespace hostnet::sim
