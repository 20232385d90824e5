// SACK and delayed-ACK tests.
//
// SACK: a window with several losses must recover via hole retransmissions
// without resorting to an RTO, and must beat NewReno on recovery time.
// Delayed ACK: roughly halves the ACK count while flushing immediately on
// CE-state changes (DCTCP echo) and out-of-order arrivals (dupacks).
#include <gtest/gtest.h>

#include <memory>

#include "flow_recorder.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "net/marker.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"
#include "transport/tcp_sink.hpp"

namespace tcn::transport {
namespace {

/// Marker hook that can drop... markers cannot drop, so losses are created
/// with a tiny switch buffer, as in transport_test.
struct Rig {
  explicit Rig(std::uint64_t switch_buffer = UINT64_MAX,
               std::uint64_t rate = 1'000'000'000)
      : sw(sim, "sw") {
    net::PortConfig nic;
    nic.rate_bps = rate * 10;  // congestion lives at the switch
    nic.prop_delay = sim::kMicrosecond;
    a = std::make_unique<net::Host>(sim, "a", 1, nic, 10 * sim::kMicrosecond);
    b = std::make_unique<net::Host>(sim, "b", 2, nic, 10 * sim::kMicrosecond);
    net::PortConfig port;
    port.rate_bps = rate;
    port.prop_delay = sim::kMicrosecond;
    port.buffer_bytes = switch_buffer;
    sw.add_port(port, std::make_unique<net::FifoScheduler>(),
                std::make_unique<net::NullMarker>());
    sw.add_port(port, std::make_unique<net::FifoScheduler>(),
                std::make_unique<net::NullMarker>());
    sw.connect(0, a.get(), 0);
    sw.connect(1, b.get(), 0);
    a->connect(&sw, 0);
    b->connect(&sw, 1);
    sw.add_route(1, {0});
    sw.add_route(2, {1});
  }

  sim::Simulator sim;
  net::Switch sw;
  std::unique_ptr<net::Host> a, b;
  FlowRecorder flows;
};

TcpConfig lossy_cfg(bool sack) {
  TcpConfig cfg;
  cfg.sack = sack;
  cfg.rto_min = 10 * sim::kMillisecond;
  cfg.rto_init = 10 * sim::kMillisecond;
  cfg.init_cwnd_pkts = 64;  // guarantees a multi-loss burst
  return cfg;
}

TEST(Sack, RecoversMultiLossWindowFasterThanNewReno) {
  auto run = [](bool sack) {
    Rig rig(/*switch_buffer=*/30'000);  // burst of 64 pkts, ~20 survive
    FlowSpec spec;
    spec.size = 400'000;
    spec.tcp = lossy_cfg(sack);
    rig.flows.launch(*rig.a, *rig.b, spec);
    rig.sim.run(5 * sim::kSecond);
    EXPECT_EQ(rig.flows.results.size(), 1u) << "sack=" << sack;
    return rig.flows.results.empty() ? sim::Time{0}
                                     : rig.flows.results[0].fct;
  };
  const auto newreno = run(false);
  const auto sack = run(true);
  ASSERT_GT(newreno, 0);
  ASSERT_GT(sack, 0);
  // NewReno fills one hole per RTT (or RTOs); SACK fills one per dupack.
  EXPECT_LT(sack, newreno);
}

TEST(Sack, NoRtoOnMultiLossWindow) {
  Rig rig(/*switch_buffer=*/30'000);
  FlowSpec spec;
  spec.size = 400'000;
  spec.tcp = lossy_cfg(true);
  rig.flows.launch(*rig.a, *rig.b, spec);
  rig.sim.run(5 * sim::kSecond);
  ASSERT_EQ(rig.flows.results.size(), 1u);
  EXPECT_EQ(rig.flows.results[0].timeouts, 0u);
}

TEST(Sack, CleanPathBehavesIdentically) {
  auto run = [](bool sack) {
    Rig rig;
    FlowSpec spec;
    spec.size = 1'000'000;
    spec.tcp.sack = sack;
    rig.flows.launch(*rig.a, *rig.b, spec);
    rig.sim.run();
    return rig.flows.results[0].fct;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(DelayedAck, HalvesAckCountOnCleanStream) {
  auto count_acks = [](bool delayed) {
    sim::Simulator sim;
    net::PortConfig nic;
    nic.rate_bps = 1'000'000'000;
    net::Host h(sim, "h", 2, nic);
    TcpSink::Options opt;
    opt.delayed_ack = delayed;
    TcpSink sink(h, 10, 0, nullptr, opt);
    // Feed 100 in-order segments, paced (no CE).
    for (int i = 0; i < 100; ++i) {
      sim.schedule_at(i * 100 * sim::kMicrosecond, [&h, i] {
        auto p = net::make_packet();
        p->type = net::PacketType::kData;
        p->dport = 10;
        p->seq = static_cast<std::uint64_t>(i) * 1460;
        p->payload = 1460;
        p->size = 1500;
        p->ecn = net::Ecn::kEct0;
        h.receive(std::move(p), 0);
      });
    }
    sim.run();
    return sink.acks_sent();
  };
  EXPECT_EQ(count_acks(false), 100u);
  const auto delayed = count_acks(true);
  // Paced at 100us with a 1ms timeout: mostly coalesced in pairs.
  EXPECT_LE(delayed, 60u);
  EXPECT_GE(delayed, 50u);
}

TEST(DelayedAck, FlushesOnCeTransition) {
  sim::Simulator sim;
  net::PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  net::Host h(sim, "h", 2, nic);
  TcpSink::Options opt;
  opt.delayed_ack = true;
  TcpSink sink(h, 10, 0, nullptr, opt);
  auto feed = [&](int i, net::Ecn ecn) {
    auto p = net::make_packet();
    p->type = net::PacketType::kData;
    p->dport = 10;
    p->seq = static_cast<std::uint64_t>(i) * 1460;
    p->payload = 1460;
    p->size = 1500;
    p->ecn = ecn;
    h.receive(std::move(p), 0);
  };
  // Segment 0 unmarked (held), segment 1 CE-marked: the CE transition must
  // flush both immediately -- two ACKs, no waiting for the timer.
  feed(0, net::Ecn::kEct0);
  sim.run(10 * sim::kMicrosecond);
  EXPECT_EQ(sink.acks_sent(), 0u);  // held
  feed(1, net::Ecn::kCe);
  sim.run(20 * sim::kMicrosecond);
  EXPECT_EQ(sink.acks_sent(), 2u);
}

TEST(DelayedAck, FlushesOnOutOfOrder) {
  sim::Simulator sim;
  net::PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  net::Host h(sim, "h", 2, nic);
  TcpSink::Options opt;
  opt.delayed_ack = true;
  TcpSink sink(h, 10, 0, nullptr, opt);
  // A hole (segment 1 missing): segment 2 must be acked immediately so the
  // sender sees dupacks.
  auto feed = [&](int i) {
    auto p = net::make_packet();
    p->type = net::PacketType::kData;
    p->dport = 10;
    p->seq = static_cast<std::uint64_t>(i) * 1460;
    p->payload = 1460;
    p->size = 1500;
    p->ecn = net::Ecn::kEct0;
    h.receive(std::move(p), 0);
  };
  feed(0);
  feed(2);  // out of order: must flush pending + ack the dup
  sim.run(10 * sim::kMicrosecond);
  EXPECT_EQ(sink.acks_sent(), 2u);
}

TEST(DelayedAck, TimerFlushesLoneSegment) {
  sim::Simulator sim;
  net::PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  net::Host h(sim, "h", 2, nic);
  TcpSink::Options opt;
  opt.delayed_ack = true;
  opt.delayed_ack_timeout = 500 * sim::kMicrosecond;
  TcpSink sink(h, 10, 0, nullptr, opt);
  auto p = net::make_packet();
  p->type = net::PacketType::kData;
  p->dport = 10;
  p->seq = 0;
  p->payload = 1460;
  p->size = 1500;
  p->ecn = net::Ecn::kEct0;
  h.receive(std::move(p), 0);
  sim.run(400 * sim::kMicrosecond);
  EXPECT_EQ(sink.acks_sent(), 0u);
  sim.run(600 * sim::kMicrosecond);
  EXPECT_EQ(sink.acks_sent(), 1u);
}

TEST(DelayedAck, DctcpFlowStillCompletes) {
  Rig rig;
  FlowSpec spec;
  spec.size = 2'000'000;
  spec.tcp.delayed_ack = true;
  spec.tcp.cc = CongestionControl::kDctcp;
  rig.flows.launch(*rig.a, *rig.b, spec);
  rig.sim.run();
  EXPECT_EQ(rig.flows.results.size(), 1u);
}

TEST(SackPlusDelayedAck, LossyPathCompletes) {
  Rig rig(/*switch_buffer=*/30'000);
  FlowSpec spec;
  spec.size = 500'000;
  spec.tcp = lossy_cfg(true);
  spec.tcp.delayed_ack = true;
  rig.flows.launch(*rig.a, *rig.b, spec);
  rig.sim.run(10 * sim::kSecond);
  EXPECT_EQ(rig.flows.results.size(), 1u);
}

}  // namespace
}  // namespace tcn::transport
