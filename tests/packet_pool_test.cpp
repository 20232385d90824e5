// PacketPool and hot-path allocation tests.
//
// This binary overrides global operator new/delete with counting wrappers
// so the central claim of the zero-allocation refactor -- steady-state
// event scheduling and packet churn perform no heap allocations at all --
// is asserted directly, not inferred from throughput. The override is
// per-binary, which is why these tests live in their own test target.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "sched/pifo.hpp"
#include "sched/sp_pifo.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

}  // namespace

// Counting global allocator. Counts every operator new and every delete of a
// non-null pointer in the process -- gtest bookkeeping included -- so
// assertions sample the counters tightly around the code under test and
// nothing else.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// GCC's -Wmismatched-new-delete heuristic misfires on replacement
// deallocation functions that visibly call free() on memory from the
// replacement operator new above (which itself uses malloc, so the pair
// does match); silence it for exactly these four definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#pragma GCC diagnostic pop

namespace tcn {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t frees() { return g_frees.load(std::memory_order_relaxed); }

/// Link peer that drops whatever arrives (pooled packets recycle).
class SinkNode final : public net::Node {
 public:
  void receive(net::PacketPtr, std::size_t) override { ++received; }
  [[nodiscard]] std::string_view name() const override { return "sink"; }
  std::uint64_t received = 0;
};

/// An 8-queue SP-PIFO port (queue index as rank) on a 10G link with 5 us of
/// propagation and a 30 KB shared buffer, draining into `sink`.
std::unique_ptr<net::Port> make_sp_pifo_port(sim::Simulator& s,
                                             net::Node& sink) {
  net::PortConfig cfg;
  cfg.rate_bps = 10'000'000'000;
  cfg.prop_delay = 5 * sim::kMicrosecond;
  cfg.num_queues = 8;
  cfg.buffer_bytes = 30'000;
  auto port = std::make_unique<net::Port>(
      s, "p0", cfg,
      std::make_unique<sched::SpPifoScheduler>(
          8, sched::PifoScheduler::priority_program()),
      std::make_unique<net::NullMarker>());
  port->connect(&sink, 0);
  return port;
}

// ------------------------------------------------------------ pool basics ----

TEST(PacketPool, RecycleReusesAndFullyReinitializes) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);

  net::PacketPtr p = net::make_packet();
  net::Packet* raw = p.get();
  const std::uint64_t first_uid = p->uid;
  // Dirty every interesting field.
  p->type = net::PacketType::kAck;
  p->size = 1500;
  p->payload = 1460;
  p->seq = 77;
  p->ack = 99;
  p->ece = true;
  p->ecn = net::Ecn::kCe;
  p->dscp = 5;
  p->sack_count = 2;
  p->enqueue_ts = 123;
  p.reset();  // recycles

  EXPECT_EQ(pool.fresh_allocs(), 1u);
  EXPECT_EQ(pool.recycles(), 1u);
  EXPECT_EQ(pool.free_size(), 1u);

  net::PacketPtr q = net::make_packet();
  // Same storage, reset state, fresh uid.
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(q->uid, first_uid + 1);
  EXPECT_EQ(q->type, net::PacketType::kData);
  EXPECT_EQ(q->size, 0u);
  EXPECT_EQ(q->payload, 0u);
  EXPECT_EQ(q->seq, 0u);
  EXPECT_EQ(q->ack, 0u);
  EXPECT_FALSE(q->ece);
  EXPECT_EQ(q->ecn, net::Ecn::kNotEct);
  EXPECT_EQ(q->dscp, 0u);
  EXPECT_EQ(q->sack_count, 0u);
  EXPECT_EQ(q->enqueue_ts, 0);
  EXPECT_FALSE(q->pool_free);
}

TEST(PacketPool, LifoReuseKeepsCacheWarmOrder) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  net::PacketPtr a = net::make_packet();
  net::PacketPtr b = net::make_packet();
  net::Packet* rb = b.get();
  a.reset();
  b.reset();
  // LIFO: the most recently recycled packet comes back first.
  net::PacketPtr c = net::make_packet();
  EXPECT_EQ(c.get(), rb);
}

TEST(PacketPool, LiveCountTracksOutstandingHandles) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  EXPECT_EQ(pool.live(), 0u);
  auto a = net::make_packet();
  auto b = net::make_packet();
  EXPECT_EQ(pool.live(), 2u);
  a.reset();
  EXPECT_EQ(pool.live(), 1u);
  b.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, NoScopeFallsBackToHeap) {
  // Outside any scope make_packet() still works (tests, ad-hoc tools); the
  // packet carries no pool, so the deleter plain-deletes it -- also when a
  // queue destroyed while holding it is what releases it.
  EXPECT_EQ(net::PacketPool::current(), nullptr);
  net::PacketPtr p = net::make_packet();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pool, nullptr);
  std::uint64_t before = frees();
  p.reset();
  EXPECT_EQ(frees() - before, 1u);

  std::optional<net::PacketQueue> q(std::in_place);
  q->push(net::make_packet());
  before = frees();
  q.reset();
  EXPECT_EQ(frees() - before, 1u);
}

TEST(PacketPool, ScopesNestAndRestore) {
  net::PacketPool outer;
  net::PacketPool::Scope outer_scope(outer);
  EXPECT_EQ(net::PacketPool::current(), &outer);
  {
    net::PacketPool inner;
    net::PacketPool::Scope inner_scope(inner);
    EXPECT_EQ(net::PacketPool::current(), &inner);
    auto p = net::make_packet();
    p.reset();
    EXPECT_EQ(inner.fresh_allocs(), 1u);
    EXPECT_EQ(outer.fresh_allocs(), 0u);
  }
  EXPECT_EQ(net::PacketPool::current(), &outer);
}

// ------------------------------------------------------- misuse handling ----

TEST(PacketPool, DoubleRecycleIsDetectedAndDropped) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  auto p = net::make_packet();
  net::Packet* raw = p.get();
  p.reset();  // legitimate recycle
  ASSERT_EQ(pool.free_size(), 1u);

  // Direct misuse of the pool API: recycling a packet already on the free
  // list. Must not double-insert (which would later hand the same storage
  // to two owners) and must stay memory-safe -- slab storage is pool-owned,
  // so this is a counted logical error, not heap corruption.
  pool.recycle(raw);
  EXPECT_EQ(pool.double_recycles(), 1u);
  EXPECT_EQ(pool.free_size(), 1u);
  EXPECT_EQ(pool.recycles(), 1u);

  // The pool still functions normally afterwards.
  auto q = net::make_packet();
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.double_recycles(), 1u);
}

// ------------------------------------------------------- scope isolation ----

TEST(PacketPool, ConcurrentRunsNeverSharePackets) {
  // Two "sweep jobs" on separate threads, each with its own pool scope (the
  // runner's per-job setup). The storage each job sees must be disjoint and
  // each pool's counters must only reflect its own job.
  constexpr int kPackets = 500;
  std::set<const net::Packet*> seen_a, seen_b;
  // Pools outlive both jobs so the pointer sets are compared while both
  // slabs are still live -- otherwise the allocator could legitimately
  // hand thread B the addresses thread A's destroyed pool freed.
  net::PacketPool pool_a, pool_b;

  auto job = [](net::PacketPool& pool, std::set<const net::Packet*>& seen) {
    net::PacketUidScope uids;
    net::PacketPool::Scope scope(pool);
    for (int i = 0; i < kPackets; ++i) {
      auto p = net::make_packet();
      seen.insert(p.get());
      if (i % 3 == 0) p.reset();  // mix held and recycled packets
    }
  };

  std::thread ta([&] { job(pool_a, seen_a); });
  std::thread tb([&] { job(pool_b, seen_b); });
  ta.join();
  tb.join();

  EXPECT_GT(pool_a.fresh_allocs(), 0u);
  EXPECT_GT(pool_b.fresh_allocs(), 0u);
  // Each pool only ever served its own job's thread...
  EXPECT_EQ(pool_a.fresh_allocs() + pool_a.reuses(),
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(pool_b.fresh_allocs() + pool_b.reuses(),
            static_cast<std::uint64_t>(kPackets));
  // ...and the storage the two jobs saw is disjoint.
  for (const net::Packet* p : seen_a) {
    EXPECT_EQ(seen_b.count(p), 0u) << "pools shared packet storage";
  }
}

// -------------------------------------------------- zero-allocation proof ----

TEST(HotPath, SteadyStateEventAndPacketChurnIsAllocationFree) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  sim::Simulator s;
  SinkNode sink;
  const std::unique_ptr<net::Port> port = make_sp_pifo_port(s, sink);

  // A self-clocked event chain, one tick per microsecond. Each tick
  //   - carries a packet inside a far-future event capture (200 us ahead,
  //     so ~200 packet-carrying events sit spread over calendar buckets);
  //   - submits a 1500 B packet to port queue tick % 8, at 12 Gb/s into a
  //     10 Gb/s port, so all eight queues and SP-PIFO's per-queue rings
  //     hold packets and the 30 KB buffer tail-drops the excess;
  //   - and the port's serialization and propagation events carry the
  //     departing packets to the sink.
  // Every packet recycles when its event, queue slot or the sink drops it.
  struct Churn {
    sim::Simulator* s;
    net::Port* port;
    int* remaining;
    std::uint64_t tick = 0;
    void operator()() {
      if (--*remaining <= 0) return;
      // The next tick goes first: the first far-future push into an empty
      // queue would re-base the calendar's dial past the port's events.
      s->schedule_in(sim::kMicrosecond, Churn{s, port, remaining, tick + 1});
      auto far = net::make_packet();
      far->size = 1500;
      s->schedule_in(200 * sim::kMicrosecond,
                     [pkt = std::move(far)]() mutable {});
      auto p = net::make_packet();
      p->size = 1500;
      port->enqueue(std::move(p), tick % 8);
    }
  };

  int remaining = 2'000;
  s.schedule_at(0, Churn{&s, port.get(), &remaining});
  s.run();  // warmup: slab, slot pool, calendar nodes, rings, free lists
  ASSERT_EQ(remaining, 0);
  ASSERT_GT(port->counters().drops, 0u);  // the buffer did fill
  ASSERT_GT(sink.received, 1'000u);
  const std::uint64_t fresh_after_warmup = pool.fresh_allocs();
  const std::uint64_t reuses_after_warmup = pool.reuses();
  const std::uint64_t resizes_after_warmup = s.calendar_resizes();

  remaining = 10'000;
  s.schedule_in(100, Churn{&s, port.get(), &remaining});
  const std::uint64_t allocs_before = allocs();
  s.run();
  const std::uint64_t allocs_after = allocs();
  ASSERT_EQ(remaining, 0);

  // The claim of the refactor, asserted literally: ten thousand ticks of
  // scheduling, queueing, transmitting and recycling, zero heap
  // allocations.
  EXPECT_EQ(allocs_after - allocs_before, 0u);
  // And the pool-side view agrees: no slab growth after warmup, all reuse
  // (two packets per tick, 9'999 ticks).
  EXPECT_EQ(pool.fresh_allocs(), fresh_after_warmup);
  EXPECT_EQ(pool.reuses() - reuses_after_warmup, 19'998u);
  EXPECT_EQ(s.calendar_resizes(), resizes_after_warmup);
  EXPECT_EQ(pool.live(), 0u);
}

// ------------------------------------------------------------- ownership ----

TEST(Ownership, DestroyedPortAndSimulatorRecycleEveryHeldPacket) {
  // Tear a run down mid-flight: packets queued in all eight port queues,
  // one serializing inside the port's tx-done event, a few propagating
  // inside link-arrival events, and more inside plain pending events.
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  SinkNode sink;
  {
    sim::Simulator s;
    const std::unique_ptr<net::Port> port = make_sp_pifo_port(s, sink);
    for (std::uint64_t i = 0; i < 16; ++i) {
      auto p = net::make_packet();
      p->size = 1500;
      port->enqueue(std::move(p), i % 8);
      auto held = net::make_packet();
      s.schedule_at(1 * sim::kMillisecond + static_cast<sim::Time>(i),
                    [pkt = std::move(held)]() mutable {});
    }
    s.run(6 * sim::kMicrosecond);  // five departures, some on the wire
    ASSERT_GT(port->queue_packets(7), 0u);
    ASSERT_GT(pool.live(), 16u);
  }
  EXPECT_EQ(sink.received, 0u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.double_recycles(), 0u);
  EXPECT_EQ(pool.recycles(), pool.fresh_allocs());
}

TEST(Ownership, MovedPacketQueueKeepsFifoOrderAndBytes) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  net::PacketQueue a;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    auto p = net::make_packet();
    p->size = 100 * i;
    p->seq = i;
    a.push(std::move(p));
  }
  net::PacketQueue b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.bytes(), 1'500u);

  net::PacketQueue c;
  c.push(net::make_packet());  // released by the move-assignment below
  c = std::move(b);
  EXPECT_EQ(pool.live(), 5u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.bytes(), 1'500u);
  // The moved-from queues keep working.
  b.push(net::make_packet());
  EXPECT_EQ(b.size(), 1u);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    ASSERT_EQ(c.front()->seq, i);
    const net::PacketPtr p = c.pop();
    EXPECT_EQ(p->seq, i);
    EXPECT_EQ(p->next, nullptr);
    EXPECT_EQ(c.bytes(), 100u * (15 - i * (i + 1) / 2));
  }
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.front(), nullptr);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.double_recycles(), 0u);
}

// --------------------------------------------------------- InlineCallback ----

TEST(InlineCallback, CarriesMoveOnlyCaptures) {
  // The capability std::function never had: a unique_ptr rides directly in
  // the event capture, and an event that never fires releases it cleanly.
  sim::Simulator s;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  s.schedule_at(5, [p = std::move(payload), &result] { result = *p + 1; });
  s.run();
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, UnfiredEventReleasesCapture) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  {
    sim::Simulator s;
    auto p = net::make_packet();
    s.schedule_at(10, [pkt = std::move(p)]() mutable {});
    // Simulator destroyed without running: the pending event's packet must
    // recycle, not leak.
  }
  EXPECT_EQ(pool.recycles(), 1u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  sim::InlineCallback a;
  EXPECT_FALSE(static_cast<bool>(a));
  int hits = 0;
  a = sim::InlineCallback([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(a));
  sim::InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, BoxedFallbackHandlesOversizedCaptures) {
  // A capture bigger than the 64B inline budget is a compile error on the
  // direct path; boxed() is the sanctioned heap escape hatch for tests and
  // runner-scale closures.
  struct Big {
    char blob[256];
  };
  Big big{};
  big.blob[255] = 7;
  int result = 0;
  sim::Simulator s;
  s.schedule_at(1, sim::boxed([big, &result] { result = big.blob[255]; }));
  s.run();
  EXPECT_EQ(result, 7);
}

TEST(InlineCallback, CompileTimeBudget) {
  // The inline budget itself is part of the contract: a {this, index,
  // PacketPtr} forwarding capture must fit with room to spare. PacketPtr
  // is one pointer (its deleter is stateless), so the capture is 24 bytes.
  struct HotCapture {
    void* self;
    std::size_t q;
    net::PacketPtr pkt;
  };
  static_assert(sizeof(net::PacketPtr) == sizeof(void*));
  static_assert(sizeof(HotCapture) == 3 * sizeof(void*));
  static_assert(sizeof(HotCapture) <= sim::InlineCallback::kInlineBytes);
  static_assert(sizeof(sim::InlineCallback) <=
                sim::InlineCallback::kInlineBytes + 2 * sizeof(void*));
}

}  // namespace
}  // namespace tcn
