// Quickstart: the smallest complete TCN simulation.
//
// Three hosts on a 1G switch running SP/WFQ with TCN marking; two DCTCP
// flows in different service queues share the bottleneck while a strict
// high-priority flow keeps its bandwidth. Prints per-service goodput.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/schemes.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

using namespace tcn;

int main() {
  sim::Simulator simulator;

  // 1. Describe the switch: 3 queues, SP over WFQ, TCN with T = RTT.
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kSpWfq;
  sched.num_queues = 3;
  sched.num_sp = 1;

  core::SchemeParams params;
  params.rtt_lambda = 250 * sim::kMicrosecond;  // base RTT of this topology

  // 2. Build a 4-host star (host 0 receives).
  topo::StarConfig star;
  star.num_hosts = 4;
  star.num_queues = 3;
  star.link_rate_bps = 1'000'000'000;
  star.buffer_bytes = 96'000;
  star.host_delay = topo::star_host_delay_for_rtt(250 * sim::kMicrosecond,
                                                  star.link_prop);
  // Host 1 feeds the strict-priority queue but is itself limited to
  // 500Mbps, so the WFQ queues still receive half the link.
  star.host_rates = {0, 500'000'000, 0, 0};
  auto network = topo::build_star(simulator, star,
                                  core::make_scheduler_factory(sched),
                                  core::make_marker_factory(
                                      core::Scheme::kTcn, params));

  // 3. Start one long flow per service queue and meter the goodput.
  transport::FlowSlab flows;
  std::vector<std::unique_ptr<stats::GoodputMeter>> meters;
  for (std::uint8_t q = 0; q < 3; ++q) {
    meters.push_back(
        std::make_unique<stats::GoodputMeter>(10 * sim::kMillisecond));
    auto* meter = meters.back().get();
    transport::FlowSpec spec;
    spec.size = 200'000'000;  // long-lived
    spec.tcp.max_cwnd_bytes = 64'000;  // socket-buffer cap: avoids bufferbloat at the rate-limited NIC
    spec.service = q;
    spec.tcp.cc = transport::CongestionControl::kDctcp;
    spec.data_dscp = transport::constant_dscp(q);
    spec.ack_dscp = q;
    spec.on_deliver = [meter](std::uint32_t bytes, sim::Time now) {
      meter->record(bytes, now);
    };
    flows.launch(network.host(1 + q), network.host(0), spec);
  }

  // 4. Run one simulated second and report.
  simulator.run(sim::kSecond);
  std::printf("queue | policy        | goodput (Mbps)\n");
  const char* policy[] = {"strict (500M src)", "WFQ weight 1", "WFQ weight 1"};
  for (std::size_t q = 0; q < 3; ++q) {
    std::printf("%5zu | %-13s | %8.1f\n", q, policy[q],
                meters[q]->average_bps(200 * sim::kMillisecond, sim::kSecond) /
                    1e6);
  }
  std::printf("\nExpected shape: queue 0 takes ~all it needs; queues 1 and 2 "
              "split the rest evenly.\n");
  return 0;
}
