// Pending-event containers for the discrete-event core.
//
// Two implementations of one (non-virtual) contract -- push / peek / pop of
// 24-byte POD entries in strict (time, seq) order:
//
//   BinaryHeapQueue  the PR-3 binary min-heap. O(log n) push/pop, fully
//                    general. Retained as the reference implementation for
//                    the randomized equivalence test and as the in-binary
//                    baseline bench/micro_core measures the calendar queue
//                    against.
//
//   CalendarQueue    a calendar queue (Brown 1988) with a sorted overflow
//                    rung for far-future timers. The event population of a
//                    NIC-rate simulator is heavily skewed toward the near
//                    future (serialization completions, propagation
//                    arrivals, pacing ticks) with a thin far tail (RTOs,
//                    diurnal traffic ramps): the calendar exploits that with
//                    O(1) amortized push (bucket index = time >> shift) and
//                    pops that drain one small sorted bucket at a time.
//
// Pop order is the SAME total order for both -- (at, seq), seq being the
// monotone insertion sequence -- so swapping the simulator's queue cannot
// change any run's event order: every golden trace, journal and jobs=1-vs-N
// sweep aggregate stays byte-identical. The equivalence test drives both
// with identical schedule/cancel streams and asserts identical pop
// sequences.
//
// Neither container knows about cancellation: the Simulator tombstones a
// cancelled event's slot generation and discards dead entries when popped,
// so cancel stays O(1) and the queues stay pure POD containers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace tcn::sim {

/// POD pending-event record. The callback lives in the owning Simulator's
/// slot pool; (slot, gen) is the tombstone ticket, (at, seq) the pop order.
/// Keeping the entry trivially copyable is what makes queue restructuring
/// (heap sifts, calendar rebuilds) cheap.
struct EventEntry {
  Time at;
  std::uint64_t seq;   ///< insertion sequence: FIFO tiebreak at equal times
  std::uint32_t slot;  ///< callback slot index in the Simulator's pool
  std::uint32_t gen;   ///< slot generation the entry was issued against
};
static_assert(sizeof(EventEntry) == 24);
static_assert(std::is_trivially_copyable_v<EventEntry>);

/// True when a fires strictly before b. Total order: ties in `at` resolve
/// by insertion sequence, so same-timestamp events fire in scheduling order.
[[nodiscard]] inline bool entry_before(const EventEntry& a,
                                       const EventEntry& b) noexcept {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

/// Reference implementation: hand-rolled binary min-heap over entry_before.
class BinaryHeapQueue {
 public:
  void push(const EventEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// Earliest entry, or nullptr when empty. (Non-const to mirror
  /// CalendarQueue::peek, which settles internal state.)
  [[nodiscard]] const EventEntry* peek() noexcept {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Remove and return the earliest entry. Precondition: !empty().
  EventEntry pop() {
    const EventEntry top = heap_.front();
    if (heap_.size() > 1) {
      heap_.front() = heap_.back();
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return top;
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t resizes() const noexcept { return 0; }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<EventEntry> heap_;
};

/// Calendar queue: a ring of `num_buckets` (power of two) time buckets of
/// width 2^shift nanoseconds, plus a min-heap overflow rung for entries
/// beyond the ring's one-"day" horizon.
///
/// Storage: a bucket is one dense 32-bit head index into a shared node pool
/// (an unsorted singly-linked list); freed nodes go onto the pool's free
/// list. When the dial reaches a bucket its list is drained into one sorted
/// dial vector, which the following pops drain from the back. So an empty
/// bucket costs 4 bytes and no heap, and node storage follows the number of
/// pending events rather than the number of buckets.
///
/// Invariants:
///   - every bucketed entry has virtual bucket (at >> shift) in
///     [dial, dial + num_buckets) -- so each physical bucket holds entries
///     of exactly one virtual bucket and the first non-empty bucket at or
///     after the dial contains the global minimum;
///   - every overflow entry has virtual bucket >= dial + num_buckets;
///   - once the dial has reached its bucket (dial_sorted_), the entries of
///     the dial's virtual bucket live in dial_, sorted descending so pop is
///     a pop_back, and its list is empty; every other bucket is a list.
///
/// The dial advances while peeking; pushing an entry behind a settled dial
/// (possible only after run(until) returned with events still pending)
/// rewinds via a full rebuild -- rare and O(n). Bucket count and width
/// adapt by rebuild when bucketed occupancy exceeds 2*num_buckets; the ring
/// only grows, and the node pool and dial vector plateau at the peak
/// population like every other hot-path pool, so steady state performs no
/// allocations. resizes() counts rebuilds for observability. All sizing
/// decisions depend only on queue content, never on the host, so runs stay
/// deterministic -- and pop order is exact (at, seq) regardless of sizing,
/// so even a bad width heuristic can only cost speed, not correctness.
class CalendarQueue {
 public:
  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  CalendarQueue();

  void push(const EventEntry& e);

  /// Earliest entry, or nullptr when empty. Settles the dial (skips empty
  /// buckets, migrates newly eligible overflow entries, sorts the current
  /// bucket) so a following pop() is O(1).
  [[nodiscard]] const EventEntry* peek();

  /// Remove and return the earliest entry. Precondition: !empty().
  EventEntry pop();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Introspection (obs + tests).
  [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return heads_.size();
  }
  [[nodiscard]] int shift() const noexcept { return shift_; }
  [[nodiscard]] std::size_t overflow_size() const noexcept {
    return overflow_.size();
  }
  /// Bucket nodes ever created: the pool's high-water mark.
  [[nodiscard]] std::size_t node_pool_size() const noexcept {
    return nodes_.size();
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One bucketed entry and the next node of its bucket's list.
  struct Node {
    EventEntry e;
    std::uint32_t next;
  };

  [[nodiscard]] std::uint64_t vbucket(Time at) const noexcept {
    return static_cast<std::uint64_t>(at) >> shift_;
  }
  /// First virtual bucket beyond the ring: entries at or past it overflow.
  [[nodiscard]] std::uint64_t horizon_vb() const noexcept {
    return dial_vb_ + heads_.size();
  }

  /// Place `e` into its bucket or the overflow rung (no sizing checks).
  void place(const EventEntry& e);
  /// Move overflow entries that fell inside the horizon into their buckets.
  void migrate_overflow();
  /// Move the dial bucket's list into dial_ and sort it descending.
  void settle_dial(std::uint32_t& head);
  /// Call f(entry) for every bucketed entry (dial vector and lists).
  template <typename F>
  void for_each_bucketed(F&& f) const;
  /// Re-bucket everything with `new_buckets` buckets of width 2^new_shift,
  /// dial at the earliest entry. Counts as one resize.
  void rebuild(std::size_t new_buckets, int new_shift);
  /// Pick width/bucket-count for the current population and rebuild.
  void resize_to_fit();

  std::vector<std::uint32_t> heads_;  // per bucket: first node, or kNil
  std::vector<Node> nodes_;           // node pool, indexed by heads_/next
  std::uint32_t free_nodes_ = kNil;   // free-list head into nodes_
  std::vector<EventEntry> dial_;      // dial bucket, sorted descending
  std::size_t bucket_mask_ = 0;       // heads_.size() - 1 (power of two)
  int shift_ = 10;                    // bucket width = 2^shift_ ns
  std::uint64_t dial_vb_ = 0;         // virtual bucket under the dial
  bool dial_sorted_ = false;          // dial bucket drained into dial_?
  std::size_t bucketed_ = 0;          // entries in lists + dial_
  std::vector<EventEntry> overflow_;  // min-heap (entry_before) of far entries
  std::size_t size_ = 0;              // bucketed_ + overflow_.size()
  std::uint64_t resizes_ = 0;
};

}  // namespace tcn::sim
