// Output-queued switch with DSCP classification and ECMP routing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "net/scheduler.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

class Switch final : public Node {
 public:
  Switch(sim::Simulator& sim, std::string name);

  /// Create an egress port; returns its index.
  std::size_t add_port(PortConfig cfg, std::unique_ptr<Scheduler> sched,
                       std::unique_ptr<Marker> marker);

  /// Attach the far end of port `port`.
  void connect(std::size_t port, Node* peer, std::size_t peer_ingress);

  /// Route packets destined to host `dst` out one of `ports` (ECMP when the
  /// group has several members; the 5-tuple hash picks a member so a flow
  /// stays on one path). Host addresses are dense indices: the route table
  /// is a flat array indexed by `dst`, and each distinct member list is
  /// stored once in one shared member array.
  void add_route(std::uint32_t dst, std::span<const std::size_t> ports);
  void add_route(std::uint32_t dst, std::initializer_list<std::size_t> ports) {
    add_route(dst, std::span<const std::size_t>(ports.begin(), ports.size()));
  }

  /// Route, then classify into queue min(dscp, num_queues - 1) of the
  /// egress port (the prototype's DSCP classifier).
  void receive(PacketPtr p, std::size_t ingress) override;

  [[nodiscard]] Port& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Packets that arrived with no matching route (diagnostics).
  [[nodiscard]] std::uint64_t unrouted() const noexcept { return unrouted_; }

 private:
  std::size_t pick_member(std::span<const std::size_t> group,
                          const Packet& p) const;

  /// A destination's egress group: members_[offset, offset + count).
  struct Route {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;  ///< 0 = no route
  };

  sim::Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<Route> routes_;  ///< indexed by destination address
  std::vector<std::size_t> members_;
  std::uint64_t unrouted_ = 0;
};

}  // namespace tcn::net
