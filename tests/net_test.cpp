// Unit tests for the network substrate: packet model, queues, ports (timing,
// shared buffer, marking hooks), switch routing/ECMP, host demux, token
// bucket.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "sched/dwrr.hpp"
#include "net/marker.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "net/token_bucket.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tcn::net {
namespace {

using test::CaptureNode;
using test::make_test_packet;

TEST(Packet, UidsAreUnique) {
  auto a = make_packet();
  auto b = make_packet();
  EXPECT_NE(a->uid, b->uid);
}

TEST(Packet, EcnPredicates) {
  auto p = make_packet();
  p->ecn = Ecn::kNotEct;
  EXPECT_FALSE(p->ect());
  EXPECT_FALSE(p->ce());
  p->ecn = Ecn::kEct0;
  EXPECT_TRUE(p->ect());
  p->ecn = Ecn::kEct1;
  EXPECT_TRUE(p->ect());
  p->ecn = Ecn::kCe;
  EXPECT_TRUE(p->ce());
  EXPECT_FALSE(p->ect());
}

TEST(PacketQueue, FifoOrderAndByteAccounting) {
  PacketQueue q;
  EXPECT_TRUE(q.empty());
  q.push(make_test_packet(100, 0, 1));
  q.push(make_test_packet(200, 0, 2));
  EXPECT_EQ(q.bytes(), 300u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front()->flow, 1u);
  auto p = q.pop();
  EXPECT_EQ(p->flow, 1u);
  EXPECT_EQ(q.bytes(), 200u);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

class PortTest : public ::testing::Test {
 protected:
  std::unique_ptr<Port> make_port(PortConfig cfg,
                                  std::unique_ptr<Marker> marker = nullptr) {
    if (!marker) marker = std::make_unique<NullMarker>();
    auto port = std::make_unique<Port>(sim_, "p", cfg,
                                       std::make_unique<FifoScheduler>(),
                                       std::move(marker));
    port->connect(&peer_, 7);
    return port;
  }

  sim::Simulator sim_;
  CaptureNode peer_;
};

TEST_F(PortTest, SerializationTiming) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.prop_delay = 5 * sim::kMicrosecond;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1500), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 1u);
  // 12us serialization + 5us propagation.
  EXPECT_EQ(sim_.now(), 17 * sim::kMicrosecond);
  EXPECT_EQ(peer_.ingresses[0], 7u);
}

TEST_F(PortTest, BackToBackPacketsSerialize) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1500, 0, 1), 0);
  port->enqueue(make_test_packet(1500, 0, 2), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 2u);
  EXPECT_EQ(sim_.now(), 24 * sim::kMicrosecond);
  EXPECT_EQ(peer_.packets[0]->flow, 1u);
  EXPECT_EQ(peer_.packets[1]->flow, 2u);
}

TEST_F(PortTest, RateLimitFractionSlowsDrain) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.rate_limit_fraction = 0.5;
  auto port = make_port(cfg);
  EXPECT_EQ(port->effective_rate_bps(), 500'000'000u);
  port->enqueue(make_test_packet(1500), 0);
  sim_.run();
  EXPECT_EQ(sim_.now(), 24 * sim::kMicrosecond);
}

TEST_F(PortTest, SharedBufferTailDrop) {
  PortConfig cfg;
  cfg.rate_bps = 1'000;  // effectively frozen link
  cfg.num_queues = 2;
  cfg.buffer_bytes = 3'000;
  auto port = make_port(cfg);
  // The first packet goes straight into service (leaves the buffer).
  port->enqueue(make_test_packet(1500), 0);
  port->enqueue(make_test_packet(1500), 1);
  port->enqueue(make_test_packet(1500), 0);  // buffer now exactly full
  EXPECT_EQ(port->total_bytes(), 3'000u);
  port->enqueue(make_test_packet(1500), 0);  // over: dropped
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->counters().drop_bytes, 1500u);
  EXPECT_EQ(port->counters().enq_packets, 3u);
  EXPECT_EQ(port->total_bytes(), 3'000u);
}

TEST_F(PortTest, SharedBufferIsFirstInFirstServe) {
  // A small packet still fits after a big one was dropped -- admission is
  // purely by arrival order and remaining space, not per-queue quotas.
  PortConfig cfg;
  cfg.rate_bps = 1'000;
  cfg.num_queues = 2;
  cfg.buffer_bytes = 2'000;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1800), 0);  // in service
  port->enqueue(make_test_packet(1800), 0);  // buffered
  port->enqueue(make_test_packet(1800), 1);  // dropped (would exceed)
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->queue_bytes(1), 0u);
  port->enqueue(make_test_packet(150), 1);  // fits in the remaining 200B
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->queue_bytes(1), 150u);
}

/// Marker that marks everything at enqueue.
class AlwaysMark final : public Marker {
 public:
  bool on_enqueue(const MarkContext&, const Packet&) override { return true; }
  [[nodiscard]] std::string_view name() const override { return "always"; }
};

TEST_F(PortTest, MarkOnlyAppliesToEctPackets) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  auto port = make_port(cfg, std::make_unique<AlwaysMark>());
  port->enqueue(make_test_packet(100, 0, 1, Ecn::kEct0), 0);
  port->enqueue(make_test_packet(100, 0, 2, Ecn::kNotEct), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 2u);
  EXPECT_TRUE(peer_.packets[0]->ce());
  EXPECT_FALSE(peer_.packets[1]->ce());
  EXPECT_EQ(port->counters().marks, 1u);
}

/// Marker that records the sojourn implied by enqueue_ts at dequeue.
class SojournProbe final : public Marker {
 public:
  bool on_dequeue(const MarkContext& ctx, const Packet& p) override {
    sojourns.push_back(ctx.now - p.enqueue_ts);
    return false;
  }
  [[nodiscard]] std::string_view name() const override { return "probe"; }
  std::vector<sim::Time> sojourns;
};

TEST_F(PortTest, EnqueueTimestampGivesSojourn) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;  // 12us per 1500B
  auto probe = std::make_unique<SojournProbe>();
  auto* probe_raw = probe.get();
  auto port = make_port(cfg, std::move(probe));
  port->enqueue(make_test_packet(1500, 0, 1), 0);
  port->enqueue(make_test_packet(1500, 0, 2), 0);
  sim_.run();
  ASSERT_EQ(probe_raw->sojourns.size(), 2u);
  EXPECT_EQ(probe_raw->sojourns[0], 0);                      // served at once
  EXPECT_EQ(probe_raw->sojourns[1], 12 * sim::kMicrosecond); // waited 1 pkt
}

/// Out-of-tree scheduler: serves the highest-index backlogged queue and
/// rejects every third packet offered to it. Nothing in the tree knows this
/// type, so the port can only reach it through the Scheduler interface.
class ReverseRejectEveryThird final : public Scheduler {
 public:
  bool admit(std::size_t, const Packet&, sim::Time, std::uint64_t,
             std::uint64_t) override {
    return ++offered_ % 3 != 0;
  }
  void on_enqueue(std::size_t, const Packet&, sim::Time) override {
    ++enqueued;
  }
  std::size_t select(sim::Time) override {
    std::size_t q = queues().size() - 1;
    while (queues()[q].empty()) --q;
    return q;
  }
  void on_dequeue(std::size_t, const Packet&, sim::Time) override {
    ++dequeued;
  }
  [[nodiscard]] std::string_view name() const override { return "reverse"; }

  int enqueued = 0;
  int dequeued = 0;

 private:
  int offered_ = 0;
};

/// Marker that never marks and records the flows it was consulted on.
class CountingMarker final : public Marker {
 public:
  bool on_enqueue(const MarkContext&, const Packet& p) override {
    enqueued.push_back(p.flow);
    return false;
  }
  bool on_dequeue(const MarkContext&, const Packet& p) override {
    dequeued.push_back(p.flow);
    return false;
  }
  [[nodiscard]] std::string_view name() const override { return "counting"; }
  std::vector<std::uint64_t> enqueued;
  std::vector<std::uint64_t> dequeued;
};

TEST_F(PortTest, DrivesAnOutOfTreeSchedulerAndMarker) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.num_queues = 3;
  auto sched = std::make_unique<ReverseRejectEveryThird>();
  auto marker = std::make_unique<CountingMarker>();
  auto* sched_raw = sched.get();
  auto* marker_raw = marker.get();
  Port port(sim_, "p", cfg, std::move(sched), std::move(marker));
  port.connect(&peer_, 0);
  // Flows 1..9 round-robin over queues 0,1,2; the scheduler rejects flows
  // 3, 6 and 9 (every third offer), which are exactly the queue-2 packets.
  for (std::uint64_t flow = 1; flow <= 9; ++flow) {
    port.enqueue(make_test_packet(1500, 0, flow), (flow - 1) % 3);
  }
  sim_.run();

  // Flow 1 starts service on arrival; the rest leave highest queue first.
  std::vector<std::uint64_t> order;
  for (const auto& p : peer_.packets) order.push_back(p->flow);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 5, 8, 4, 7}));
  EXPECT_EQ(port.counters().sched_drops, 3u);
  EXPECT_EQ(port.counters().sched_drop_bytes, 3u * 1500u);
  EXPECT_EQ(port.counters().drops, 0u);
  EXPECT_EQ(port.counters().enq_packets, 6u);
  EXPECT_EQ(sched_raw->enqueued, 6);
  EXPECT_EQ(sched_raw->dequeued, 6);
  // The marker sees admitted packets only, in arrival and departure order.
  EXPECT_EQ(marker_raw->enqueued,
            (std::vector<std::uint64_t>{1, 2, 4, 5, 7, 8}));
  EXPECT_EQ(marker_raw->dequeued, order);
}

TEST(PortConfigTest, InvalidConfigsThrow) {
  sim::Simulator s;
  PortConfig cfg;
  cfg.num_queues = 0;
  EXPECT_THROW(Port(s, "p", cfg, std::make_unique<FifoScheduler>(),
                    std::make_unique<NullMarker>()),
               std::invalid_argument);
  cfg.num_queues = 1;
  cfg.rate_limit_fraction = 0.0;
  EXPECT_THROW(Port(s, "p", cfg, std::make_unique<FifoScheduler>(),
                    std::make_unique<NullMarker>()),
               std::invalid_argument);
}

TEST(SwitchTest, RoutesByDestination) {
  sim::Simulator s;
  Switch sw(s, "sw");
  CaptureNode a, b;
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  const auto pa = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                              std::make_unique<NullMarker>());
  const auto pb = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                              std::make_unique<NullMarker>());
  sw.connect(pa, &a, 0);
  sw.connect(pb, &b, 0);
  sw.add_route(1, {pa});
  sw.add_route(2, {pb});

  auto p1 = make_test_packet(100);
  p1->dst = 1;
  auto p2 = make_test_packet(100);
  p2->dst = 2;
  sw.receive(std::move(p1), 0);
  sw.receive(std::move(p2), 0);
  s.run();
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(SwitchTest, UnroutedPacketsAreCountedAndDropped) {
  sim::Simulator s;
  Switch sw(s, "sw");
  auto p = make_test_packet(100);
  p->dst = 99;
  sw.receive(std::move(p), 0);
  EXPECT_EQ(sw.unrouted(), 1u);
}

/// Records the queue of every enqueue on the ports it watches.
class EnqueueQueues final : public PortObserver {
 public:
  void on_event(const TraceRecord& r) override {
    if (r.event == TraceEvent::kEnqueue) queues.push_back(r.queue);
  }
  std::vector<std::size_t> queues;
};

TEST(SwitchTest, DscpClassifierClampsToQueueCount) {
  sim::Simulator s;
  Switch sw(s, "sw");
  PortConfig cfg;
  cfg.num_queues = 4;
  const auto p = sw.add_port(cfg, std::make_unique<sched::DwrrScheduler>(
                                      std::vector<std::uint64_t>(4, 1500)),
                             std::make_unique<NullMarker>());
  sw.add_route(1, {p});
  EnqueueQueues seen;
  sw.port(p).set_observers({&seen});
  for (std::uint8_t dscp = 0; dscp < 10; ++dscp) {
    auto pkt = make_test_packet(100, dscp);
    pkt->dst = 1;
    sw.receive(std::move(pkt), 0);
  }
  // dscp d lands in queue min(d, 3).
  EXPECT_EQ(seen.queues, (std::vector<std::size_t>{0, 1, 2, 3, 3, 3, 3, 3, 3,
                                                   3}));
}

TEST(SwitchTest, EcmpSpreadsFlowsButPinsEachFlow) {
  sim::Simulator s;
  Switch sw(s, "sw");
  CaptureNode nodes[4];
  PortConfig cfg;
  cfg.rate_bps = 10'000'000'000ULL;
  std::vector<std::size_t> group;
  for (auto& n : nodes) {
    const auto p = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                               std::make_unique<NullMarker>());
    sw.connect(p, &n, 0);
    group.push_back(p);
  }
  sw.add_route(5, group);

  // 64 flows, 3 packets each: each flow must stay on one port, and the flows
  // must not all hash to the same port.
  for (std::uint16_t f = 0; f < 64; ++f) {
    for (int k = 0; k < 3; ++k) {
      auto p = make_test_packet(100, 0, f);
      p->dst = 5;
      p->src = 1;
      p->sport = 1000 + f;
      p->dport = 80;
      sw.receive(std::move(p), 0);
    }
  }
  s.run();
  std::size_t used = 0;
  std::size_t total = 0;
  for (auto& n : nodes) {
    if (!n.packets.empty()) ++used;
    total += n.packets.size();
    // All packets of one flow on one port: check per-flow counts are 0 or 3.
    std::map<std::uint64_t, int> per_flow;
    for (auto& p : n.packets) ++per_flow[p->flow];
    for (const auto& [flow, count] : per_flow) EXPECT_EQ(count, 3);
  }
  EXPECT_EQ(total, 64u * 3);
  EXPECT_GE(used, 3u);  // 64 flows over 4 ports: all-in-one is ~impossible
}

TEST(HostTest, DemuxesByDport) {
  sim::Simulator s;
  PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  Host h(s, "h", 1, nic, /*stack_delay=*/0);
  std::vector<std::uint64_t> got_a, got_b;
  h.bind(10, [&](PacketPtr p) { got_a.push_back(p->flow); });
  h.bind(20, [&](PacketPtr p) { got_b.push_back(p->flow); });

  auto p1 = make_test_packet(100, 0, 1);
  p1->dport = 10;
  auto p2 = make_test_packet(100, 0, 2);
  p2->dport = 20;
  auto p3 = make_test_packet(100, 0, 3);
  p3->dport = 30;  // unbound: silently dropped
  h.receive(std::move(p1), 0);
  h.receive(std::move(p2), 0);
  h.receive(std::move(p3), 0);
  s.run();
  EXPECT_EQ(got_a, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(got_b, (std::vector<std::uint64_t>{2}));
}

TEST(HostTest, StackDelayAppliedBothWays) {
  sim::Simulator s;
  PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  Host h(s, "h", 1, nic, /*stack_delay=*/30 * sim::kMicrosecond);
  CaptureNode peer;
  h.connect(&peer, 0);

  auto out = make_test_packet(1000);
  out->dst = 2;
  h.send(std::move(out));
  s.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  // 30us stack + 8us serialization.
  EXPECT_EQ(s.now(), 38 * sim::kMicrosecond);

  sim::Time delivered_at = -1;
  h.bind(10, [&](PacketPtr) { delivered_at = s.now(); });
  auto in = make_test_packet(100);
  in->dport = 10;
  h.receive(std::move(in), 0);
  s.run();
  EXPECT_EQ(delivered_at, 38 * sim::kMicrosecond + 30 * sim::kMicrosecond);
}

TEST(HostTest, EphemeralPortsNeverRepeat) {
  sim::Simulator s;
  PortConfig nic;
  Host h(s, "h", 1, nic);
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(h.allocate_port()).second);
  }
}

TEST(HostTest, AllocatingPastThePortRangeThrows) {
  sim::Simulator s;
  Host h(s, "h7", 1, PortConfig{});
  for (std::uint32_t port = Host::kFirstEphemeralPort; port <= 65535; ++port) {
    ASSERT_EQ(h.allocate_port(), port);
  }
  try {
    h.allocate_port();
    FAIL() << "allocate_port wrapped past 65535";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("h7"), std::string::npos);
  }
}

TEST(HostTest, BindingABoundPortThrows) {
  sim::Simulator s;
  Host h(s, "h3", 1, PortConfig{});
  for (const std::uint16_t port : {std::uint16_t{7}, h.allocate_port()}) {
    h.bind(port, [](PacketPtr) {});
    try {
      h.bind(port, [](PacketPtr) {});
      FAIL() << "rebinding port " << port << " did not throw";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("h3"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(port)), std::string::npos) << what;
    }
    // Unbinding frees the port for the next owner.
    h.unbind(port);
    EXPECT_NO_THROW(h.bind(port, [](PacketPtr) {}));
  }
}

TEST(TokenBucketTest, AllowsBurstThenPaces) {
  TokenBucket tb(8'000, 1'000);  // 1000B/s refill, 1000B bucket
  EXPECT_EQ(tb.earliest(0, 1'000), 0);
  tb.consume(0, 1'000);
  // Empty bucket: 500B needs 0.5s refill.
  const auto t = tb.earliest(0, 500);
  EXPECT_NEAR(sim::to_seconds(t), 0.5, 1e-6);
  // After a second, tokens are capped at the bucket size.
  EXPECT_NEAR(tb.tokens_at(10 * sim::kSecond), 1'000.0, 1e-9);
}

TEST(TokenBucketTest, PaperPrototypeShaping) {
  // Sec. 5: 99.5% of 1G with a 2.5KB bucket -> a 1500B packet is never
  // delayed by more than ~the serialization of one extra packet.
  TokenBucket tb(995'000'000, 2'500);
  tb.consume(0, 2'500);
  const auto wait = tb.earliest(0, 1'500);
  EXPECT_LT(wait, 15 * sim::kMicrosecond);
  EXPECT_GT(wait, 10 * sim::kMicrosecond);
}

}  // namespace
}  // namespace tcn::net
