#include "sim/calendar_queue.hpp"

#include <algorithm>

namespace hostnet::sim {

void CalendarQueue::push_far(Tick at, NodeIndex n) {
  far_.push_back(FarEntry{at, far_seq_++, n});
  std::push_heap(far_.begin(), far_.end(), far_later);
}

Tick CalendarQueue::next_bucket_base() const {
  const std::size_t cb = bucket_index(win_start_);
  // The current window's bucket is always empty (re-linked on advance, and
  // in-window pushes go to L0), so a two-segment scan over the ring cannot
  // return a stale hit at cb.
  std::size_t b = bucket_bits_.find_ge(cb + 1);
  if (b == decltype(bucket_bits_)::kNone) b = bucket_bits_.find_ge(0);
  if (b == decltype(bucket_bits_)::kNone) return kNoEvent;
  const std::size_t dist = (b - cb) & (kNumBuckets - 1);
  return win_start_ + Tick(dist) * Tick(kNumSlots);
}

void CalendarQueue::advance_to(Tick target) {
  win_start_ = target & ~kSlotMask;
  cursor_ = win_start_;
  const std::size_t cb = bucket_index(win_start_);
  if (bucket_bits_.test(cb)) {
    bucket_bits_.reset(cb);
    NodeIndex n = buckets_[cb].head;
    buckets_[cb].head = kNil;
    while (n != kNil) {
      Node& node = nodes_[n];
      const NodeIndex next = node.next;
      assert(node.at >= win_start_ && node.at < win_start_ + Tick(kNumSlots));
      node.next = kNil;
      const std::size_t slot = slot_index(node.at);
      if (append(slots_[slot], n)) slot_bits_.set(slot);
      n = next;
    }
  }
  // Far entries the new horizon reaches move down, earliest (tick, seq)
  // first. None of their ticks can already sit in L1 or L0 (they were
  // beyond the horizon until now), and the L1 buckets they land in lie
  // between the old and the new window, which the advance left empty.
  const Tick horizon_end = win_start_ + kHorizon;
  while (!far_.empty() && far_.front().at < horizon_end) {
    const FarEntry e = far_.front();
    std::pop_heap(far_.begin(), far_.end(), far_later);
    far_.pop_back();
    file(e.at, e.node);
  }
}

Tick CalendarQueue::next_tick_advancing(Tick bound) {
  for (;;) {
    // Window drained: jump to the earliest populated window. Every L1 tick
    // is below the horizon and every far tick at or beyond it, so the far
    // heap only matters once L1 is empty.
    Tick target = next_bucket_base();
    if (target == kNoEvent) {
      assert(!far_.empty() && "size_ > 0 but no events found");
      target = far_.front().at & ~kSlotMask;
    }
    // Every pending event is at >= target. If that is past the caller's
    // horizon, report "nothing to run" WITHOUT advancing: the caller's clock
    // stops at `bound`, and a committed jump would strand later pushes in
    // [clock, target) behind the window (they'd be filed into the wrong
    // window's slot and fire late).
    if (target > bound) return kNoEvent;
    advance_to(target);
    const std::size_t s = slot_bits_.find_ge(0);
    if (s != decltype(slot_bits_)::kNone) return win_start_ + Tick(s);
  }
}

void CalendarQueue::save_state(Snapshot& out) const {
  out.win_start = win_start_;
  out.cursor = cursor_;
  out.items.clear();
  const auto emit = [&](NodeIndex n) {
    const Node& node = nodes_[n];
    assert(node.ev.clonable() && "pending event not checkpointable");
    out.items.push_back(Snapshot::Item{node.at, node.ev.clone()});
  };
  // L0: win_start_ is kNumSlots-aligned, so slot index order is tick order.
  assert((win_start_ & kSlotMask) == 0);
  for (const List& l : slots_)
    for (NodeIndex n = l.head; n != kNil; n = nodes_[n].next) emit(n);
  // L1: ring order from the bucket after the current window's is window
  // order. A bucket's list is in push order; an insertion sort by tick
  // (stable, allocation-free, and buckets are short) turns it into firing
  // order.
  const std::size_t cb = bucket_index(win_start_);
  for (std::size_t d = 1; d < kNumBuckets; ++d) {
    const List& l = buckets_[(cb + d) & (kNumBuckets - 1)];
    if (l.head == kNil) continue;
    const std::size_t first = out.items.size();
    for (NodeIndex n = l.head; n != kNil; n = nodes_[n].next) emit(n);
    for (std::size_t i = first + 1; i < out.items.size(); ++i) {
      if (out.items[i].at >= out.items[i - 1].at) continue;
      Snapshot::Item moving = std::move(out.items[i]);
      std::size_t j = i;
      for (; j > first && out.items[j - 1].at > moving.at; --j)
        out.items[j] = std::move(out.items[j - 1]);
      out.items[j] = std::move(moving);
    }
  }
  // Far: (tick, seq) order. Seqs are unique, so the sort is a total order;
  // the scratch copy keeps its capacity, so a warm save allocates nothing.
  far_order_.assign(far_.begin(), far_.end());
  std::sort(far_order_.begin(), far_order_.end(),
            [](const FarEntry& a, const FarEntry& b) { return far_later(b, a); });
  for (const FarEntry& e : far_order_) emit(e.node);
  far_order_.clear();
}

void CalendarQueue::load_state(const Snapshot& s) {
  // Empty every level in place: the occupancy bits name the lists to reset,
  // and the slab and the far heap keep their capacity, so a warm restore
  // allocates nothing.
  for (std::size_t i = slot_bits_.find_ge(0); i != decltype(slot_bits_)::kNone;
       i = slot_bits_.find_ge(i + 1))
    slots_[i] = List{};
  for (std::size_t b = bucket_bits_.find_ge(0); b != decltype(bucket_bits_)::kNone;
       b = bucket_bits_.find_ge(b + 1))
    buckets_[b] = List{};
  slot_bits_ = {};
  bucket_bits_ = {};
  nodes_.clear();
  free_ = kNil;
  far_.clear();
  far_seq_ = 0;
  size_ = 0;
  win_start_ = s.win_start;
  cursor_ = s.cursor;
  for (const Snapshot::Item& it : s.items) push(it.at, it.ev.clone());
}

bool CalendarQueue::audit_identical(const Snapshot& a, const Snapshot& b) {
  if (a.win_start != b.win_start || a.cursor != b.cursor || a.items.size() != b.items.size())
    return false;
  for (std::size_t i = 0; i < a.items.size(); ++i)
    if (a.items[i].at != b.items[i].at || !a.items[i].ev.audit_identical(b.items[i].ev))
      return false;
  return true;
}

}  // namespace hostnet::sim
