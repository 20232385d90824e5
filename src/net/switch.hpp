// Output-queued switch with DSCP classification and ECMP routing.
#pragma once

#include <cstdint>
#include <memory>
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
  /// is a flat array indexed by `dst`.
  void add_route(std::uint32_t dst, std::vector<std::size_t> ports);

  /// Route, then classify into queue min(dscp, num_queues - 1) of the
  /// egress port (the prototype's DSCP classifier).
  void receive(PacketPtr p, std::size_t ingress) override;

  [[nodiscard]] Port& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Packets that arrived with no matching route (diagnostics).
  [[nodiscard]] std::uint64_t unrouted() const noexcept { return unrouted_; }

 private:
  std::size_t pick_member(const std::vector<std::size_t>& group,
                          const Packet& p) const;

  sim::Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  /// Egress group per destination address; empty = no route.
  std::vector<std::vector<std::size_t>> routes_;
  std::uint64_t unrouted_ = 0;
};

}  // namespace tcn::net
