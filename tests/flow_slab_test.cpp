// FlowSlab memory-model tests.
//
// Like packet_pool_test, this binary overrides global operator new/delete
// with counting wrappers -- here counting frees too -- so the open-loop
// memory claim is asserted directly: steady-state flow churn through the
// slab keeps the number of *live* heap allocations flat. Per-flow gross
// allocations still happen (TcpSender/TcpSink own deques, maps and
// callbacks), but every one is returned at recycle, so lifetime flow count
// never shows up in the heap footprint -- only peak concurrency does.
// The override is per-binary, which is why these tests live in their own
// test target.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// See packet_pool_test.cpp: GCC's -Wmismatched-new-delete heuristic
// misfires on replacement deallocation functions; the malloc/free pair here
// does match the replacement operator new above.
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

/// Heap allocations currently live (allocated and not yet freed).
std::int64_t live_allocs() {
  return static_cast<std::int64_t>(g_allocs.load(std::memory_order_relaxed)) -
         static_cast<std::int64_t>(g_frees.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------ slab basics ----

/// Two unconnected hosts: enough to open connections (nothing is sent).
struct Hosts {
  sim::Simulator s;
  net::PortConfig nic;
  net::Host src{s, "h0", 1, nic};
  net::Host dst{s, "h1", 2, nic};
  transport::FlowSpec spec;
  std::uint64_t flow_id = 0;

  std::uint32_t open(transport::FlowSlab& slab) {
    return slab.open(src, dst, spec, ++flow_id);
  }
};

TEST(FlowSlab, OpenRecycleReuseCounters) {
  Hosts h;
  transport::FlowSlab slab;
  const auto a = h.open(slab);
  const auto b = h.open(slab);
  EXPECT_NE(a, b);
  EXPECT_EQ(slab.fresh_allocs(), 2u);
  EXPECT_EQ(slab.live(), 2u);
  EXPECT_EQ(slab.slots(), 2u);

  slab.recycle(a);
  EXPECT_EQ(slab.recycles(), 1u);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.free_size(), 1u);

  // The recycled slot comes back (LIFO) before any fresh growth.
  const auto c = h.open(slab);
  EXPECT_EQ(c, a);
  EXPECT_EQ(slab.reuses(), 1u);
  EXPECT_EQ(slab.fresh_allocs(), 2u);
  EXPECT_EQ(slab.slots(), 2u);
}

TEST(FlowSlab, LifoReuseOrder) {
  Hosts h;
  transport::FlowSlab slab;
  const auto a = h.open(slab);
  const auto b = h.open(slab);
  slab.recycle(a);
  slab.recycle(b);
  // Most recently recycled first: cache-warm reuse order.
  EXPECT_EQ(h.open(slab), b);
  EXPECT_EQ(h.open(slab), a);
}

TEST(FlowSlab, OpenBuildsEndpointsAndRecycleClearsThem) {
  Hosts h;
  transport::FlowSlab slab;
  const auto idx = slab.open(h.src, h.dst, h.spec, 42);
  const auto& slot = slab.at(idx);
  ASSERT_TRUE(slot.sender.has_value());
  ASSERT_TRUE(slot.sink.has_value());
  EXPECT_EQ(slot.sender->flow_id(), 42u);
  EXPECT_EQ(slot.src_addr, h.src.address());
  EXPECT_EQ(slot.dst_addr, h.dst.address());
  EXPECT_NE(slot.sport, 0u);
  EXPECT_NE(slot.dport, 0u);

  slab.recycle(idx);
  const auto& clean = slab.at(idx);
  EXPECT_FALSE(clean.sender.has_value());
  EXPECT_FALSE(clean.sink.has_value());
  EXPECT_EQ(clean.src_addr, 0u);
  EXPECT_EQ(clean.dst_addr, 0u);
  EXPECT_EQ(clean.sport, 0u);
  EXPECT_EQ(clean.dport, 0u);
  EXPECT_TRUE(clean.slab_free);
}

TEST(FlowSlab, DoubleRecycleIsDetectedAndDropped) {
  Hosts h;
  transport::FlowSlab slab;
  const auto a = h.open(slab);
  slab.recycle(a);
  ASSERT_EQ(slab.free_size(), 1u);
  // Misuse: recycling a slot already on the free list must not
  // double-insert (which would hand the same slot to two flows later).
  slab.recycle(a);
  EXPECT_EQ(slab.double_recycles(), 1u);
  EXPECT_EQ(slab.recycles(), 1u);
  EXPECT_EQ(slab.free_size(), 1u);
  EXPECT_EQ(h.open(slab), a);  // still functional
}

TEST(FlowSlab, PortsRecycleThroughPerHostFreeLists) {
  Hosts h;
  net::Host other(h.s, "h2", 3, h.nic);  // outlives the slab's endpoints
  transport::FlowSlab slab;
  const auto idx = h.open(slab);
  const std::uint16_t sport = slab.at(idx).sport;
  const std::uint16_t dport = slab.at(idx).dport;
  slab.recycle(idx);

  // The same port numbers come back instead of bumping the hosts'
  // counters, so a host's port footprint is bounded by peak concurrency --
  // not by the lifetime flow count (Host::allocate_port runs out at 64k).
  const auto again = h.open(slab);
  EXPECT_EQ(slab.at(again).sport, sport);
  EXPECT_EQ(slab.at(again).dport, dport);
  // A different host draws from its own pool; the busy receiver port is
  // not handed out twice.
  const auto third = slab.open(other, h.dst, h.spec, 99);
  EXPECT_NE(slab.at(third).sport, 0u);
  EXPECT_NE(slab.at(third).dport, dport);
}

// ------------------------------------------------- bounded-heap-growth proof ----

TEST(FlowSlab, SteadyStateChurnKeepsLiveHeapFlat) {
  // The open-loop acceptance claim, asserted on the allocator itself: churn
  // whole flows (TcpSink + TcpSender opened into slab slots, then
  // recycled) and after warmup the number of live heap allocations is
  // *identical* at every batch boundary. Gross allocation traffic per flow
  // is nonzero by design -- the TCP objects own real state -- but all of it
  // returns at recycle, so lifetime flow count never accumulates in the
  // heap. This is the counting-allocator equivalent of "10M flows in
  // bounded memory".
  Hosts h;
  h.spec.data_dscp = transport::constant_dscp(0);
  transport::FlowSlab slab;

  constexpr int kInFlight = 16;
  constexpr int kBatches = 8;
  std::vector<std::uint32_t> held;
  held.reserve(kInFlight);

  auto churn_batch = [&] {
    for (int j = 0; j < kInFlight; ++j) held.push_back(h.open(slab));
    for (const auto idx : held) slab.recycle(idx);
    held.clear();
  };

  // Warmup: slab growth, port free-list growth, hash-map rehash, vector
  // capacity -- all one-time costs.
  churn_batch();
  churn_batch();

  const std::int64_t baseline = live_allocs();
  for (int b = 0; b < kBatches; ++b) {
    churn_batch();
    EXPECT_EQ(live_allocs(), baseline) << "batch " << b;
  }

  // Slab-side view agrees: the working set stayed at peak concurrency while
  // lifetime flows kept climbing.
  EXPECT_EQ(slab.slots(), static_cast<std::size_t>(kInFlight));
  EXPECT_EQ(slab.fresh_allocs(), static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(slab.reuses() + slab.fresh_allocs(),
            static_cast<std::uint64_t>(kInFlight * (kBatches + 2)));
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace tcn
