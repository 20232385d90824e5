// Topology tests: star wiring and base RTT calibration, leaf-spine
// connectivity, ECMP spreading, RTT across the fabric.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "flow_recorder.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/marker.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "transport/ping.hpp"

namespace tcn::topo {
namespace {

SchedulerFactory fifo_factory() {
  return [] { return std::make_unique<net::FifoScheduler>(); };
}

MarkerFactory null_marker_factory() {
  return [](net::Scheduler&, const net::PortConfig&) {
    return std::make_unique<net::NullMarker>();
  };
}

TEST(Star, HostCountAndAddresses) {
  sim::Simulator s;
  StarConfig cfg;
  cfg.num_hosts = 5;
  auto net = build_star(s, cfg, fifo_factory(), null_marker_factory());
  EXPECT_EQ(net.num_hosts(), 5u);
  EXPECT_EQ(net.num_switches(), 1u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.host(i).address(), i);
  }
  EXPECT_EQ(net.switch_at(0).num_ports(), 5u);
}

TEST(Star, AnyPairCanExchangeFlows) {
  sim::Simulator s;
  StarConfig cfg;
  cfg.num_hosts = 4;
  cfg.host_delay = 5 * sim::kMicrosecond;
  auto net = build_star(s, cfg, fifo_factory(), null_marker_factory());
  transport::FlowRecorder flows;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      transport::FlowSpec spec;
      spec.size = 20'000;
      flows.launch(net.host(i), net.host(j), spec);
    }
  }
  s.run();
  EXPECT_EQ(flows.results.size(), 12u);
}

TEST(Star, BaseRttMatchesCalibration) {
  sim::Simulator s;
  StarConfig cfg;
  cfg.num_hosts = 3;
  cfg.link_prop = sim::kMicrosecond;
  cfg.host_delay = star_host_delay_for_rtt(250 * sim::kMicrosecond,
                                           cfg.link_prop);
  auto net = build_star(s, cfg, fifo_factory(), null_marker_factory());
  transport::PingResponder responder(net.host(1), 99);
  transport::PingApp ping(net.host(0), 1, 99, 0, sim::kMillisecond);
  ping.start();
  s.run(5 * sim::kMillisecond);
  ping.stop();
  ASSERT_GE(ping.rtts().size(), 4u);
  // Within 5% of 250us (serialization of 64B probes adds a little).
  EXPECT_NEAR(static_cast<double>(ping.rtts()[0]),
              250.0 * sim::kMicrosecond, 12.5 * sim::kMicrosecond);
}

TEST(Star, RejectsDegenerate) {
  sim::Simulator s;
  StarConfig cfg;
  cfg.num_hosts = 1;
  EXPECT_THROW(build_star(s, cfg, fifo_factory(), null_marker_factory()),
               std::invalid_argument);
  EXPECT_THROW(star_host_delay_for_rtt(1, sim::kMicrosecond),
               std::invalid_argument);
}

struct LeafSpineRig {
  LeafSpineRig(std::size_t leaves = 3, std::size_t spines = 2,
               std::size_t hosts_per_leaf = 3) {
    cfg.num_leaves = leaves;
    cfg.num_spines = spines;
    cfg.hosts_per_leaf = hosts_per_leaf;
    cfg.num_queues = 2;
    cfg.buffer_bytes = UINT64_MAX;
    net.emplace(
        build_leaf_spine(s, cfg, fifo_factory(), null_marker_factory()));
  }
  sim::Simulator s;
  LeafSpineConfig cfg;
  std::optional<Network> net;
};

TEST(LeafSpine, TopologyShape) {
  LeafSpineRig rig;
  EXPECT_EQ(rig.net->num_hosts(), 9u);
  EXPECT_EQ(rig.net->num_switches(), 5u);  // 3 leaves + 2 spines
  // Leaf: 3 host ports + 2 uplinks; spine: 3 down ports.
  EXPECT_EQ(rig.net->switch_at(0).num_ports(), 5u);
  EXPECT_EQ(rig.net->switch_at(3).num_ports(), 3u);
}

TEST(LeafSpine, IntraLeafAndCrossLeafFlowsComplete) {
  LeafSpineRig rig;
  transport::FlowRecorder flows;
  transport::FlowSpec spec;
  spec.size = 100'000;
  flows.launch(rig.net->host(0), rig.net->host(1), spec);  // same leaf
  flows.launch(rig.net->host(0), rig.net->host(8), spec);  // across spine
  rig.s.run();
  EXPECT_EQ(flows.results.size(), 2u);
}

TEST(LeafSpine, AllPairsComplete) {
  LeafSpineRig rig;
  transport::FlowRecorder flows;
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      if (i == j) continue;
      transport::FlowSpec spec;
      spec.size = 10'000;
      flows.launch(rig.net->host(i), rig.net->host(j), spec);
    }
  }
  rig.s.run();
  EXPECT_EQ(flows.results.size(), 72u);
}

TEST(LeafSpine, CrossFabricBaseRttIs85us) {
  // Paper Sec. 6.2: base RTT across the spine is 85.2us, 80us at end hosts.
  sim::Simulator s;
  LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  cfg.num_queues = 1;
  auto net = build_leaf_spine(s, cfg, fifo_factory(), null_marker_factory());
  transport::PingResponder responder(net.host(2), 99);  // other leaf
  transport::PingApp ping(net.host(0), 2, 99, 0, sim::kMillisecond);
  ping.start();
  s.run(5 * sim::kMillisecond);
  ping.stop();
  ASSERT_GE(ping.rtts().size(), 4u);
  EXPECT_NEAR(static_cast<double>(ping.rtts()[0]),
              85.2 * sim::kMicrosecond, 4 * sim::kMicrosecond);
}

TEST(LeafSpine, EcmpUsesMultipleSpines) {
  // Many flows between the same pair of leaves must traverse both spines.
  LeafSpineRig rig(2, 2, 4);
  transport::FlowRecorder flows;
  for (int k = 0; k < 32; ++k) {
    transport::FlowSpec spec;
    spec.size = 3'000;
    flows.launch(rig.net->host(k % 4), rig.net->host(4 + k % 4), spec);
  }
  rig.s.run();
  EXPECT_EQ(flows.results.size(), 32u);
  // Spines are switches 2 and 3; both must have forwarded data.
  std::uint64_t tx2 = 0, tx3 = 0;
  for (std::size_t p = 0; p < rig.net->switch_at(2).num_ports(); ++p) {
    tx2 += rig.net->switch_at(2).port(p).counters().tx_packets;
  }
  for (std::size_t p = 0; p < rig.net->switch_at(3).num_ports(); ++p) {
    tx3 += rig.net->switch_at(3).port(p).counters().tx_packets;
  }
  EXPECT_GT(tx2, 0u);
  EXPECT_GT(tx3, 0u);
}

TEST(LeafSpine, NoUnroutedPackets) {
  LeafSpineRig rig;
  transport::FlowRecorder flows;
  for (std::size_t i = 0; i < 9; i += 2) {
    transport::FlowSpec spec;
    spec.size = 50'000;
    flows.launch(rig.net->host(i), rig.net->host((i + 4) % 9), spec);
  }
  rig.s.run();
  for (std::size_t sw = 0; sw < rig.net->num_switches(); ++sw) {
    EXPECT_EQ(rig.net->switch_at(sw).unrouted(), 0u) << "switch " << sw;
  }
}

}  // namespace
}  // namespace tcn::topo
