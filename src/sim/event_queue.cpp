#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tcn::sim {

namespace {

/// Descending (at, seq) order: sorting a bucket with this puts the earliest
/// entry at the back, so draining is pop_back.
bool entry_after(const EventEntry& a, const EventEntry& b) noexcept {
  return entry_before(b, a);
}

}  // namespace

// ---------------------------------------------------------------- bin heap --

void BinaryHeapQueue::sift_up(std::size_t i) {
  const EventEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void BinaryHeapQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const EventEntry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_before(heap_[child + 1], heap_[child])) ++child;
    if (!entry_before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

// ---------------------------------------------------------------- calendar --

CalendarQueue::CalendarQueue()
    : heads_(kMinBuckets, kNil), bucket_mask_(kMinBuckets - 1) {}

void CalendarQueue::place(const EventEntry& e) {
  const std::uint64_t vb = vbucket(e.at);
  if (vb >= horizon_vb()) {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), entry_after);
    return;
  }
  if (dial_sorted_ && vb == dial_vb_) {
    // The dial already drained and sorted this bucket (descending); keep
    // the invariant so in-progress draining stays a pop_back. Same-time
    // self-reschedules land at the back (seq is larger), so the common case
    // is O(1).
    dial_.insert(std::upper_bound(dial_.begin(), dial_.end(), e, entry_after),
                 e);
  } else {
    std::uint32_t n = free_nodes_;
    if (n != kNil) {
      free_nodes_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    std::uint32_t& head = heads_[vb & bucket_mask_];
    nodes_[n] = Node{e, head};
    head = n;
  }
  ++bucketed_;
}

void CalendarQueue::migrate_overflow() {
  const std::uint64_t horizon = horizon_vb();
  while (!overflow_.empty() && vbucket(overflow_.front().at) < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_after);
    const EventEntry e = overflow_.back();
    overflow_.pop_back();
    place(e);
  }
}

void CalendarQueue::push(const EventEntry& e) {
  if (size_ == 0) {
    // Empty queue: re-base the dial on the new entry, O(1).
    dial_vb_ = vbucket(e.at);
    dial_sorted_ = false;
  } else if (vbucket(e.at) < dial_vb_) {
    // Behind a settled dial. Only possible after run(until) returned with
    // later events still pending and the caller then scheduled an earlier
    // one; rebuild with the dial rewound so the one-day invariant holds.
    ++size_;
    place(e);  // may briefly violate the horizon; rebuild fixes everything
    rebuild(heads_.size(), shift_);
    return;
  }
  ++size_;
  place(e);
  if (bucketed_ > 2 * heads_.size() && heads_.size() < kMaxBuckets) {
    resize_to_fit();
  }
}

void CalendarQueue::settle_dial(std::uint32_t& head) {
  // Unlink the whole list onto the free list while copying it out; the
  // list is unsorted, and (at, seq) keys are unique, so the order the
  // entries arrive in cannot change the sorted result.
  for (std::uint32_t n = head; n != kNil;) {
    Node& node = nodes_[n];
    dial_.push_back(node.e);
    const std::uint32_t next = node.next;
    node.next = free_nodes_;
    free_nodes_ = n;
    n = next;
  }
  head = kNil;
  std::sort(dial_.begin(), dial_.end(), entry_after);
  dial_sorted_ = true;
}

const EventEntry* CalendarQueue::peek() {
  if (size_ == 0) return nullptr;
  for (;;) {
    if (bucketed_ == 0) {
      // Everything lives in the overflow rung: jump the dial to its top
      // instead of sweeping empty days. (Top vb >= old horizon > dial, so
      // the dial never moves backward here.)
      dial_vb_ = vbucket(overflow_.front().at);
      dial_sorted_ = false;
      migrate_overflow();
      continue;
    }
    if (!dial_sorted_) {
      std::uint32_t& head = heads_[dial_vb_ & bucket_mask_];
      if (head != kNil) settle_dial(head);
    }
    if (!dial_.empty()) return &dial_.back();
    ++dial_vb_;
    dial_sorted_ = false;
    migrate_overflow();  // horizon advanced one bucket
  }
}

EventEntry CalendarQueue::pop() {
  const EventEntry* top = peek();
  assert(top != nullptr);
  const EventEntry e = *top;
  dial_.pop_back();
  --bucketed_;
  --size_;
  return e;
}

template <typename F>
void CalendarQueue::for_each_bucketed(F&& f) const {
  for (const EventEntry& e : dial_) f(e);
  for (std::uint32_t head : heads_) {
    for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) f(nodes_[n].e);
  }
}

void CalendarQueue::rebuild(std::size_t new_buckets, int new_shift) {
  std::vector<EventEntry> all;
  all.reserve(size_);
  for_each_bucketed([&all](const EventEntry& e) { all.push_back(e); });
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  dial_.clear();
  assert(all.size() == size_);

  // Every node is about to be re-placed: empty the pool (capacity kept)
  // instead of threading each node onto the free list.
  nodes_.clear();
  free_nodes_ = kNil;
  heads_.assign(new_buckets, kNil);
  bucket_mask_ = new_buckets - 1;
  shift_ = new_shift;
  bucketed_ = 0;
  dial_sorted_ = false;
  Time min_at = kTimeMax;
  for (const EventEntry& e : all) min_at = std::min(min_at, e.at);
  dial_vb_ = all.empty() ? 0 : vbucket(min_at);
  for (const EventEntry& e : all) place(e);
  ++resizes_;
}

void CalendarQueue::resize_to_fit() {
  // Bucket count ~ near-future population (so occupancy stays O(1) per
  // bucket); width ~ the mean inter-event gap of the BUCKETED entries only
  // -- far-future outliers (RTOs, diurnal ramps) live in the overflow rung
  // and must not stretch the ring's width. The ring only ever grows (the
  // same plateau-at-peak discipline as the slot pool and the old heap
  // vector), so repeated drain/refill cycles resize once and then run
  // allocation-free. Everything here is a function of queue content only:
  // deterministic.
  const std::size_t want = std::clamp(2 * bucketed_, kMinBuckets, kMaxBuckets);
  const std::size_t new_buckets = std::max(std::bit_ceil(want), heads_.size());

  Time min_at = kTimeMax;
  Time max_at = 0;
  std::size_t n = 0;
  for_each_bucketed([&](const EventEntry& e) {
    min_at = std::min(min_at, e.at);
    max_at = std::max(max_at, e.at);
    ++n;
  });

  int new_shift = shift_;
  if (n > 1 && max_at > min_at) {
    const std::uint64_t gap =
        static_cast<std::uint64_t>(max_at - min_at) / (n - 1);
    new_shift = std::clamp(static_cast<int>(std::bit_width(gap)), 0, 40);
  }
  rebuild(new_buckets, new_shift);
}

}  // namespace tcn::sim
