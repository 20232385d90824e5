// End host: a NIC egress port plus a transport demultiplexer.
//
// A fixed per-direction stack delay models the end-host contribution to base
// RTT (the paper's leaf-spine setup attributes 80us of the 85.2us RTT to end
// hosts). Delay is applied once on send and once on receive. The receive
// side is folded into the link: a Port whose peer is a Host with a stack
// delay schedules one event at prop + delay that calls deliver() (see
// Port::propagate), so receive() serves the remaining callers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fifo_scheduler.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

class Host final : public Node {
 public:
  using Handler = std::function<void(PacketPtr)>;

  /// allocate_port() hands out numbers from here up; the demux table is
  /// indexed from it.
  static constexpr std::uint16_t kFirstEphemeralPort = 1024;

  Host(sim::Simulator& sim, std::string name, std::uint32_t address,
       PortConfig nic_cfg, sim::Time stack_delay = 0);

  /// Connect the NIC to the far end (normally a switch ingress).
  void connect(Node* peer, std::size_t peer_ingress);

  /// Send a packet through the stack (applies stack delay, then NIC queue).
  void send(PacketPtr p);

  /// Register a receive handler for a local port number. Packets whose dport
  /// matches are delivered to the handler after the stack delay. Binding a
  /// port that is already bound throws std::logic_error.
  void bind(std::uint16_t local_port, Handler h);
  void unbind(std::uint16_t local_port);

  /// A packet arrived from the link: deliver it after the stack delay.
  void receive(PacketPtr p, std::size_t ingress) override;

  /// Hand a packet to its bound handler now, the stack delay already spent
  /// (the folded arrival from Port). Unbound destinations silently drop,
  /// like a closed socket.
  void deliver(PacketPtr p);

  [[nodiscard]] std::uint32_t address() const noexcept { return address_; }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Port& nic() noexcept { return *nic_; }
  [[nodiscard]] sim::Time stack_delay() const noexcept { return stack_delay_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  /// Packets handed up the receive stack so far (bound or not).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

  /// Allocate a fresh ephemeral port number (never reused within a run).
  /// Throws std::runtime_error once all 64512 ephemeral ports are taken.
  std::uint16_t allocate_port();

 private:
  Handler* find_handler(std::uint16_t local_port);

  sim::Simulator& sim_;
  std::string name_;
  std::uint32_t address_;
  sim::Time stack_delay_;
  std::unique_ptr<Port> nic_;
  /// Handlers of ephemeral ports, indexed by port - kFirstEphemeralPort and
  /// grown on bind, so the table spans the ports actually bound (allocation
  /// is sequential). An empty Handler is an unbound port. A handler may bind
  /// or unbind while it runs (a finished flow tears down, a new one starts)
  /// but must not read its captures afterwards -- the same rule an erased
  /// hash-map node imposed.
  std::vector<Handler> endpoints_;
  /// The few fixed ports below the ephemeral range (responders, tests).
  std::vector<std::pair<std::uint16_t, Handler>> fixed_;
  std::uint32_t next_port_ = kFirstEphemeralPort;
  std::uint64_t delivered_ = 0;
};

}  // namespace tcn::net
