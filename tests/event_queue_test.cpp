// Equivalence and unit tests for the pending-event containers.
//
// The load-bearing property: BinaryHeapQueue and CalendarQueue implement the
// SAME total order (at, seq), so the simulator's event order -- and with it
// every golden trace, journal, and jobs=1-vs-N sweep -- cannot depend on
// which container is plugged in. The randomized driver feeds both identical
// schedule/cancel streams (same-timestamp bursts, far-future RTO-like
// timers, interleaved pops) and asserts bit-identical pop sequences.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

namespace tcn::sim {
namespace {

std::vector<EventEntry> drain(BinaryHeapQueue& q) {
  std::vector<EventEntry> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

std::vector<EventEntry> drain(CalendarQueue& q) {
  std::vector<EventEntry> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

bool same_entry(const EventEntry& a, const EventEntry& b) {
  return a.at == b.at && a.seq == b.seq && a.slot == b.slot && a.gen == b.gen;
}

TEST(EventQueue, BothOrderSameTimestampBurstsBySeq) {
  BinaryHeapQueue heap;
  CalendarQueue cal;
  // Three bursts at identical timestamps, scheduled out of time order.
  std::uint64_t seq = 1;
  for (const Time at : {50, 10, 50, 10, 30, 30, 50, 10}) {
    const EventEntry e{at, seq, static_cast<std::uint32_t>(seq), 0};
    ++seq;
    heap.push(e);
    cal.push(e);
  }
  const auto h = drain(heap);
  const auto c = drain(cal);
  ASSERT_EQ(h.size(), c.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(same_entry(h[i], c[i])) << "index " << i;
  }
  // FIFO within a timestamp: seq strictly increases inside each time group.
  for (std::size_t i = 1; i < h.size(); ++i) {
    ASSERT_LE(h[i - 1].at, h[i].at);
    if (h[i - 1].at == h[i].at) ASSERT_LT(h[i - 1].seq, h[i].seq);
  }
}

// The randomized stream mimics what a simulator produces: mostly
// near-future events at a moving clock, same-timestamp bursts (a switch
// fanning out at one instant), rare far-future timers (RTO, diurnal ramps),
// interleaved pops that advance the clock, and cancellations modelled
// exactly as the Simulator does -- a dead (slot, gen) set whose entries
// both containers must surface in the same places (the simulator discards
// them on pop, so "identical pop order" must hold tombstones included).
TEST(EventQueue, RandomizedEquivalenceWithHeap) {
  std::mt19937_64 rng(0xC0FFEE);
  BinaryHeapQueue heap;
  CalendarQueue cal;

  Time clock = 0;
  std::uint64_t seq = 1;
  std::uint32_t next_slot = 0;
  std::unordered_set<std::uint64_t> dead;  // (slot<<1)|gen of cancelled
  std::vector<EventEntry> pending;         // sampling base for cancels
  std::vector<EventEntry> heap_pops;
  std::vector<EventEntry> cal_pops;

  const auto push_both = [&](Time at) {
    const EventEntry e{at, seq++, next_slot++, 0};
    heap.push(e);
    cal.push(e);
    pending.push_back(e);
  };

  for (int step = 0; step < 200'000; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // near-future push (serialization/propagation scale)
        push_both(clock + static_cast<Time>(rng() % 10'000));
        break;
      }
      case 3: {  // same-timestamp burst (fan-out at one instant)
        const Time at = clock + static_cast<Time>(rng() % 1'000);
        const std::size_t burst = 2 + rng() % 6;
        for (std::size_t i = 0; i < burst; ++i) push_both(at);
        break;
      }
      case 4: {  // far-future timer (RTO / diurnal, way past the horizon)
        push_both(clock + 10'000'000 + static_cast<Time>(rng() % kSecond));
        break;
      }
      case 5: {  // cancel a random not-yet-popped event (simulator-style)
        if (!pending.empty()) {
          const EventEntry& victim = pending[rng() % pending.size()];
          dead.insert((std::uint64_t{victim.slot} << 1) | victim.gen);
        }
        break;
      }
      default: {  // pop a few and advance the clock
        for (int i = 0; i < 3 && !heap.empty(); ++i) {
          ASSERT_FALSE(cal.empty());
          const EventEntry h = heap.pop();
          const EventEntry c = cal.pop();
          ASSERT_TRUE(same_entry(h, c))
              << "step " << step << ": heap (" << h.at << "," << h.seq
              << ") vs calendar (" << c.at << "," << c.seq << ")";
          // Tombstones surface in both queues at the same position but, as
          // in the simulator, do not advance the clock.
          if (!dead.contains((std::uint64_t{h.slot} << 1) | h.gen)) {
            clock = h.at;
          }
        }
        break;
      }
    }
    ASSERT_EQ(heap.size(), cal.size());
  }

  // Drain both completely: the tails must match too.
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    const EventEntry h = heap.pop();
    const EventEntry c = cal.pop();
    ASSERT_TRUE(same_entry(h, c));
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, ResizesWhenPopulationOutgrowsRing) {
  CalendarQueue q;
  EXPECT_EQ(q.num_buckets(), CalendarQueue::kMinBuckets);
  // Dense near-future population far beyond 2x the initial 64 buckets.
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    q.push(EventEntry{static_cast<Time>(i * 100), i + 1, 0, 0});
  }
  EXPECT_GT(q.resizes(), 0u);
  EXPECT_GT(q.num_buckets(), CalendarQueue::kMinBuckets);
  // Still pops in exact order.
  Time prev = -1;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.at, prev);
    prev = e.at;
  }
}

TEST(CalendarQueue, RingOnlyGrowsAcrossDrainRefillCycles) {
  CalendarQueue q;
  std::uint64_t seq = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (std::uint64_t i = 0; i < 1'000; ++i) {
      q.push(EventEntry{static_cast<Time>(i * 64), seq++, 0, 0});
    }
    while (!q.empty()) q.pop();
  }
  // All growth happened in the first cycle; later cycles reuse the plateau.
  const std::uint64_t after_first = q.resizes();
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    q.push(EventEntry{static_cast<Time>(i * 64), seq++, 0, 0});
  }
  EXPECT_EQ(q.resizes(), after_first);
}

TEST(CalendarQueue, FarFutureEntriesParkInOverflowThenMigrate) {
  CalendarQueue q;
  // One near event and a batch a full day past the default horizon.
  q.push(EventEntry{10, 1, 0, 0});
  for (std::uint64_t i = 0; i < 16; ++i) {
    q.push(EventEntry{static_cast<Time>(kSecond + i), 2 + i, 0, 0});
  }
  EXPECT_GT(q.overflow_size(), 0u);
  EXPECT_EQ(q.pop().at, 10);
  // Popping across the gap jumps the dial and migrates the far batch.
  Time prev = -1;
  std::size_t n = 0;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.at, prev);
    prev = e.at;
    ++n;
  }
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(q.overflow_size(), 0u);
}

TEST(CalendarQueue, PushBehindSettledDialRewinds) {
  CalendarQueue q;
  q.push(EventEntry{1'000'000, 1, 0, 0});
  ASSERT_EQ(q.peek()->at, 1'000'000);  // dial settled far ahead
  // Earlier event arrives (run(until) returned, caller scheduled before the
  // survivor): the queue must rewind, not misfile it.
  q.push(EventEntry{5, 2, 0, 0});
  EXPECT_EQ(q.pop().at, 5);
  EXPECT_EQ(q.pop().at, 1'000'000);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EmptyQueueRebasesDialCheaply) {
  CalendarQueue q;
  q.push(EventEntry{kSecond, 1, 0, 0});
  EXPECT_EQ(q.pop().at, kSecond);
  const std::uint64_t resizes = q.resizes();
  // Re-basing on an empty queue is O(1), never a rebuild -- even jumping
  // backward in time.
  q.push(EventEntry{7, 2, 0, 0});
  EXPECT_EQ(q.resizes(), resizes);
  EXPECT_EQ(q.pop().at, 7);
}

TEST(CalendarQueue, NodeStorageFollowsPendingEntriesNotBuckets) {
  // Hold 300 pending entries over a ~30 us spread while churning (pop the
  // earliest, push one a random gap ahead). A bucket is a 4-byte head into
  // one node pool, so the pool never holds more nodes than entries were
  // bucketed at once, however many buckets the ring grows to.
  CalendarQueue q;
  std::mt19937_64 rng(7);
  std::uint64_t seq = 1;
  const auto gap = [&rng] { return static_cast<Time>(rng() % 30'000); };
  for (int i = 0; i < 300; ++i) q.push(EventEntry{gap(), seq++, 0, 0});
  EXPECT_GT(q.resizes(), 0u);
  EXPECT_GE(q.num_buckets(), 512u);
  Time prev = 0;
  for (int i = 0; i < 20'000; ++i) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.at, prev);
    prev = e.at;
    q.push(EventEntry{e.at + gap(), seq++, 0, 0});
    ASSERT_LE(q.node_pool_size(), 300u);
  }
  EXPECT_EQ(q.size(), 300u);
}

}  // namespace
}  // namespace tcn::sim
