// The "generic scheduler" claim, hands-on: write a scheduler the paper never
// evaluated -- here a deadline-style Least-Remaining-Quota policy -- plug it
// into a switch port, and TCN works unchanged with the same static threshold.
// No rate estimation, no per-scheduler tuning (contrast: MQ-ECN refuses
// anything without rounds, and no static RED K is right for shifting
// capacities).
//
// Run: ./build/examples/custom_scheduler
#include <cstdio>
#include <memory>
#include <vector>

#include "aqm/tcn.hpp"
#include "net/scheduler.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

using namespace tcn;

namespace {

/// Custom policy: each queue has a byte quota per epoch; the backlogged
/// queue with the most *remaining* quota is served first, and quotas refill
/// every epoch. (A crude token-fair scheduler -- the point is that TCN does
/// not care what the policy is.)
class QuotaScheduler final : public net::Scheduler {
 public:
  QuotaScheduler(std::vector<std::uint64_t> quotas, sim::Time epoch)
      : quotas_(std::move(quotas)), remaining_(quotas_), epoch_(epoch) {}

  void on_enqueue(std::size_t, const net::Packet&, sim::Time) override {}

  std::size_t select(sim::Time now) override {
    if (now >= epoch_end_) {
      remaining_ = quotas_;
      epoch_end_ = now + epoch_;
    }
    std::size_t best = SIZE_MAX;
    for (std::size_t q = 0; q < queues().size(); ++q) {
      if (queues()[q].empty()) continue;
      if (best == SIZE_MAX || remaining_[q] > remaining_[best]) best = q;
    }
    return best;
  }

  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time) override {
    remaining_[q] -= std::min<std::uint64_t>(remaining_[q], p.size);
  }

  [[nodiscard]] std::string_view name() const override { return "quota"; }

 private:
  std::vector<std::uint64_t> quotas_;
  std::vector<std::uint64_t> remaining_;
  sim::Time epoch_;
  sim::Time epoch_end_ = 0;
};

}  // namespace

int main() {
  sim::Simulator simulator;

  // 2:1 quota split between two service queues, refilled every 1ms.
  topo::StarConfig star;
  star.num_hosts = 3;
  star.num_queues = 2;
  star.buffer_bytes = 96'000;
  star.host_delay = topo::star_host_delay_for_rtt(250 * sim::kMicrosecond,
                                                  star.link_prop);
  auto network = topo::build_star(
      simulator, star,
      [] {
        return std::make_unique<QuotaScheduler>(
            std::vector<std::uint64_t>{250'000, 125'000},
            3 * sim::kMillisecond);
      },
      [](net::Scheduler&, const net::PortConfig&) {
        // TCN with the same standard threshold as for any other scheduler.
        return std::make_unique<aqm::TcnMarker>(256 * sim::kMicrosecond);
      });

  transport::FlowSlab flows;
  std::vector<std::unique_ptr<stats::GoodputMeter>> meters;
  for (int q = 0; q < 2; ++q) {
    meters.push_back(
        std::make_unique<stats::GoodputMeter>(10 * sim::kMillisecond));
    transport::FlowSpec spec;
    spec.size = 2'000'000'000ULL;
    spec.service = static_cast<std::uint32_t>(q);
    spec.data_dscp = transport::constant_dscp(static_cast<std::uint8_t>(q));
    spec.ack_dscp = static_cast<std::uint8_t>(q);
    auto* meter = meters.back().get();
    spec.on_deliver = [meter](std::uint32_t b, sim::Time t) {
      meter->record(b, t);
    };
    flows.launch(network.host(1 + q), network.host(0), spec);
  }
  simulator.run(sim::kSecond);

  const auto from = 200 * sim::kMillisecond;
  const auto to = sim::kSecond;
  const double g0 = meters[0]->average_bps(from, to) / 1e6;
  const double g1 = meters[1]->average_bps(from, to) / 1e6;
  std::printf("Custom QuotaScheduler (2:1 quotas) under TCN:\n");
  std::printf("  queue 0: %6.0f Mbps\n  queue 1: %6.0f Mbps\n", g0, g1);
  std::printf("  ratio  : %.2f (policy says 2.0)\n", g0 / g1);
  std::printf("\nTCN enforced low queueing delay without knowing anything "
              "about the scheduler -- the\nsame static T = RTT x lambda "
              "threshold works for any policy (Sec. 4.1).\n");
  return 0;
}
