// Poisson traffic generators.
//
// ConvergeGenerator reproduces the testbed client/server application
// (Sec. 6.1.2): flows arrive as a Poisson process, each fetching data from a
// uniformly chosen sender to one receiver; `load` is the offered fraction of
// the receiver's link capacity.
//
// AllToAllGenerator reproduces the large-scale setup (Sec. 6.2): every host
// injects Poisson flow arrivals at `load` x its link rate, destinations
// uniform over other hosts, with the (src,dst) pair determining the service
// and therefore the flow-size distribution.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/host.hpp"
#include "sim/ecdf.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"

namespace tcn::workload {

/// Starts a flow/message from src to dst -- bind this to
/// FlowSlab::launch (one connection per flow, the ns-2 model) or
/// ConnectionPool::submit (persistent connections, the testbed model).
using FlowLauncher =
    std::function<void(net::Host& src, net::Host& dst, transport::FlowSpec)>;

/// Builds the FlowSpec (TCP config, DSCP tagging, delivery hooks) for a flow
/// of `size` bytes in service `service`.
using SpecFn =
    std::function<transport::FlowSpec(std::uint32_t service, std::uint64_t size)>;

struct GenConfig {
  double load = 0.5;        ///< offered load as a fraction of the reference link
  std::size_t num_flows = 1000;
  std::uint32_t num_services = 1;
  std::uint64_t seed = 1;
};

class ConvergeGenerator {
 public:
  ConvergeGenerator(sim::Simulator& sim, FlowLauncher launch,
                    std::vector<net::Host*> senders, net::Host* receiver,
                    const sim::Ecdf* sizes, GenConfig cfg, SpecFn spec_fn);

  /// Begin generating; the first arrival is one inter-arrival gap from now.
  void start();

  [[nodiscard]] std::size_t flows_generated() const noexcept {
    return generated_;
  }
  /// Mean inter-arrival gap implied by the configured load, in ns.
  [[nodiscard]] sim::Time mean_gap() const noexcept { return mean_gap_; }

 private:
  void arrival();
  void schedule_next();

  sim::Simulator& sim_;
  FlowLauncher launch_;
  std::vector<net::Host*> senders_;
  net::Host* receiver_;
  const sim::Ecdf* sizes_;
  GenConfig cfg_;
  SpecFn spec_fn_;
  sim::Rng rng_;
  sim::Time mean_gap_ = 0;
  std::size_t generated_ = 0;
};

class AllToAllGenerator {
 public:
  /// `service_of(src_idx, dst_idx)` partitions host pairs into services;
  /// `dists[s]` is service s's flow-size distribution.
  using ServiceFn = std::function<std::uint32_t(std::size_t, std::size_t)>;

  AllToAllGenerator(sim::Simulator& sim, FlowLauncher launch,
                    std::vector<net::Host*> hosts,
                    std::vector<const sim::Ecdf*> dists, GenConfig cfg,
                    ServiceFn service_of, SpecFn spec_fn);

  void start();

  [[nodiscard]] std::size_t flows_generated() const noexcept {
    return generated_;
  }
  [[nodiscard]] sim::Time mean_gap() const noexcept { return mean_gap_; }

 private:
  void arrival();
  void schedule_next();

  sim::Simulator& sim_;
  FlowLauncher launch_;
  std::vector<net::Host*> hosts_;
  std::vector<const sim::Ecdf*> dists_;
  GenConfig cfg_;
  ServiceFn service_of_;
  SpecFn spec_fn_;
  sim::Rng rng_;
  sim::Time mean_gap_ = 0;
  std::size_t generated_ = 0;
};

}  // namespace tcn::workload
