// Workload tests: the four distributions of Fig. 4 (shape invariants),
// Poisson generators (arrival rate, offered load, service partitioning).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>

#include "flow_recorder.hpp"
#include "net/fifo_scheduler.hpp"

#include "net/marker.hpp"
#include "sim/random.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "workload/distributions.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::workload {
namespace {

TEST(Distributions, AllFourExistAndAreNamed) {
  ASSERT_EQ(all_kinds().size(), 4u);
  for (const auto k : all_kinds()) {
    const auto& d = distribution(k);
    EXPECT_FALSE(d.empty());
    EXPECT_EQ(d.name(), name(k));
    EXPECT_DOUBLE_EQ(d.points().back().cdf, 1.0);
  }
}

TEST(Distributions, InverseCdfBoundaries) {
  // Satellite: quantile() at the exact boundaries of its domain, for every
  // workload CDF -- p=0 and p=1 map to the first/last point, out-of-range
  // p throws, and samples stay inside [first, last].
  for (const auto k : all_kinds()) {
    const auto& d = distribution(k);
    EXPECT_EQ(d.quantile(0.0), d.points().front().value) << name(k);
    EXPECT_EQ(d.quantile(1.0), d.points().back().value) << name(k);
    EXPECT_THROW((void)d.quantile(-0.001), std::invalid_argument);
    EXPECT_THROW((void)d.quantile(1.001), std::invalid_argument);
    sim::Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
      const double s = d.sample(rng);
      EXPECT_GE(s, d.points().front().value);
      EXPECT_LE(s, d.points().back().value);
    }
  }
}

TEST(Distributions, SinglePointCdfIsDegenerate) {
  // A one-point CDF (all mass at one value) must be valid and constant
  // across the whole quantile domain.
  const sim::Ecdf point({{42.0, 1.0}}, "point");
  EXPECT_EQ(point.quantile(0.0), 42.0);
  EXPECT_EQ(point.quantile(0.5), 42.0);
  EXPECT_EQ(point.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(point.mean(), 42.0);
  sim::Rng rng(1);
  EXPECT_EQ(point.sample(rng), 42.0);
  // Flat (zero-mass) prefix segments resolve to a point, not an
  // interpolation across the gap.
  const sim::Ecdf flat({{10.0, 0.5}, {20.0, 0.5}, {30.0, 1.0}}, "flat");
  EXPECT_EQ(flat.quantile(0.5), 10.0);  // first point with cdf >= p
  EXPECT_EQ(flat.quantile(0.0), 10.0);
  EXPECT_EQ(flat.quantile(1.0), 30.0);
}

TEST(Distributions, AllAreHeavyTailed) {
  // Median far below mean for every workload (Sec. 6: "all the workloads are
  // heavy-tailed").
  for (const auto k : all_kinds()) {
    const auto& d = distribution(k);
    EXPECT_LT(d.quantile(0.5), d.mean() / 2.0) << name(k);
  }
}

TEST(Distributions, WebSearchByteShareBelow10MB) {
  // Sec. 6: ~60% of web-search bytes come from flows smaller than 10MB.
  const auto& d = distribution(Kind::kWebSearch);
  sim::Rng rng(5);
  double total = 0, below = 0;
  for (int i = 0; i < 200'000; ++i) {
    const double s = d.sample(rng);
    total += s;
    if (s < 10e6) below += s;
  }
  EXPECT_GT(below / total, 0.5);
  EXPECT_LT(below / total, 0.85);
}

TEST(Distributions, DataMiningMostFlowsTiny) {
  // VL2: ~70% of data-mining flows are under 10KB, yet big flows dominate
  // bytes.
  const auto& d = distribution(Kind::kDataMining);
  EXPECT_GE(d.cdf_at(10'000), 0.65);
  sim::Rng rng(6);
  double total = 0, big = 0;
  for (int i = 0; i < 200'000; ++i) {
    const double s = d.sample(rng);
    total += s;
    if (s > 10e6) big += s;
  }
  EXPECT_GT(big / total, 0.5);
}

TEST(Distributions, SmallFlowFractionsDiffer) {
  // The workloads must be distinguishable: cache is smallest, data mining has
  // the most sub-10KB flows, web search has the fewest.
  EXPECT_GT(distribution(Kind::kCache).cdf_at(10'000), 0.7);
  EXPECT_LT(distribution(Kind::kWebSearch).cdf_at(10'000), 0.3);
}

struct GenRig {
  GenRig() : launch([this](net::Host& a, net::Host& b, transport::FlowSpec spec) {
      flows.launch(a, b, std::move(spec));
    }) {
    topo::StarConfig cfg;
    cfg.num_hosts = 9;
    cfg.num_queues = 4;
    cfg.buffer_bytes = UINT64_MAX;
    cfg.host_delay = 5 * sim::kMicrosecond;
    network.emplace(topo::build_star(
        simulator, cfg, [] { return std::make_unique<net::FifoScheduler>(); },
        [](net::Scheduler&, const net::PortConfig&) {
          return std::make_unique<net::NullMarker>();
        }));
  }
  sim::Simulator simulator;
  std::optional<topo::Network> network;
  transport::FlowRecorder flows;
  FlowLauncher launch;
};

TEST(ConvergeGenerator, GeneratesRequestedFlowCount) {
  GenRig rig;
  GenConfig cfg;
  cfg.load = 0.5;
  cfg.num_flows = 200;
  cfg.num_services = 4;
  std::vector<net::Host*> senders;
  for (std::size_t i = 1; i < 9; ++i) senders.push_back(&rig.network->host(i));
  std::map<std::uint32_t, int> service_counts;
  ConvergeGenerator gen(
      rig.simulator, rig.launch, senders, &rig.network->host(0),
      &distribution(Kind::kCache), cfg,
      [&](std::uint32_t service, std::uint64_t size) {
        ++service_counts[service];
        transport::FlowSpec spec;
        spec.size = size;
        spec.service = service;
        return spec;
      });
  gen.start();
  rig.simulator.run();
  EXPECT_EQ(gen.flows_generated(), 200u);
  EXPECT_EQ(rig.flows.slab.launched(), 200u);
  // All four services seen.
  EXPECT_EQ(service_counts.size(), 4u);
}

TEST(ConvergeGenerator, MeanGapMatchesLoad) {
  GenRig rig;
  GenConfig cfg;
  cfg.load = 0.8;
  cfg.num_flows = 1;
  std::vector<net::Host*> senders{&rig.network->host(1)};
  ConvergeGenerator gen(rig.simulator, rig.launch, senders, &rig.network->host(0),
                        &distribution(Kind::kWebSearch), cfg,
                        [](std::uint32_t, std::uint64_t size) {
                          transport::FlowSpec spec;
                          spec.size = size;
                          return spec;
                        });
  // load x 1Gbps = 100MB/s; mean web-search size / rate = expected gap.
  const double mean_size = distribution(Kind::kWebSearch).mean();
  const double expect_s = mean_size / (0.8 * 1e9 / 8);
  EXPECT_NEAR(sim::to_seconds(gen.mean_gap()), expect_s, expect_s * 0.01);
}

TEST(ConvergeGenerator, RejectsBadLoad) {
  GenRig rig;
  GenConfig cfg;
  cfg.load = 0.0;
  std::vector<net::Host*> senders{&rig.network->host(1)};
  EXPECT_THROW(
      ConvergeGenerator(rig.simulator, rig.launch, senders, &rig.network->host(0),
                        &distribution(Kind::kWebSearch), cfg,
                        [](std::uint32_t, std::uint64_t) {
                          return transport::FlowSpec{};
                        }),
      std::invalid_argument);
}

TEST(AllToAllGenerator, PartitionsPairsIntoServices) {
  GenRig rig;
  GenConfig cfg;
  cfg.load = 0.3;
  cfg.num_flows = 300;
  cfg.num_services = 7;
  std::vector<const sim::Ecdf*> dists(7, &distribution(Kind::kCache));
  std::map<std::uint32_t, int> service_counts;
  AllToAllGenerator gen(
      rig.simulator, rig.launch, rig.network->host_ptrs(), dists, cfg,
      [](std::size_t a, std::size_t b) {
        return static_cast<std::uint32_t>((a + b) % 7);
      },
      [&](std::uint32_t service, std::uint64_t size) {
        ++service_counts[service];
        transport::FlowSpec spec;
        spec.size = size;
        spec.service = service;
        return spec;
      });
  gen.start();
  rig.simulator.run();
  EXPECT_EQ(gen.flows_generated(), 300u);
  EXPECT_GE(service_counts.size(), 6u);  // all services materialize
}

TEST(AllToAllGenerator, NeverPicksSelfFlow) {
  GenRig rig;
  GenConfig cfg;
  cfg.load = 0.3;
  cfg.num_flows = 500;
  std::vector<const sim::Ecdf*> dists{&distribution(Kind::kCache)};
  bool violated = false;
  // Track via FlowResult src==dst is not visible; instead rely on address
  // equality through the spec hook: the generator passes hosts, so check by
  // instrumenting service_of which receives (src,dst).
  AllToAllGenerator gen(
      rig.simulator, rig.launch, rig.network->host_ptrs(), dists, cfg,
      [&](std::size_t a, std::size_t b) {
        if (a == b) violated = true;
        return 0u;
      },
      [](std::uint32_t, std::uint64_t size) {
        transport::FlowSpec spec;
        spec.size = size;
        return spec;
      });
  gen.start();
  rig.simulator.run();
  EXPECT_FALSE(violated);
}

}  // namespace
}  // namespace tcn::workload
