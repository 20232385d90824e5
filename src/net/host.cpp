#include "net/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/marker.hpp"

namespace tcn::net {

Host::Host(sim::Simulator& sim, std::string name, std::uint32_t address,
           PortConfig nic_cfg, sim::Time stack_delay)
    : sim_(sim),
      name_(std::move(name)),
      address_(address),
      stack_delay_(stack_delay) {
  nic_cfg.num_queues = 1;  // hosts transmit through a single FIFO
  nic_ = std::make_unique<Port>(sim_, name_ + ".nic", nic_cfg,
                                std::make_unique<FifoScheduler>(),
                                std::make_unique<NullMarker>());
}

void Host::connect(Node* peer, std::size_t peer_ingress) {
  nic_->connect(peer, peer_ingress);
}

void Host::send(PacketPtr p) {
  p->src = address_;
  if (stack_delay_ == 0) {
    nic_->enqueue(std::move(p), 0);
    return;
  }
  sim_.schedule_in(stack_delay_, [this, pkt = std::move(p)]() mutable {
    nic_->enqueue(std::move(pkt), 0);
  });
}

std::uint16_t Host::allocate_port() {
  if (next_port_ > UINT16_MAX) {
    throw std::runtime_error("Host " + name_ +
                             ": ephemeral ports exhausted (all of " +
                             std::to_string(kFirstEphemeralPort) +
                             "..65535 allocated)");
  }
  return static_cast<std::uint16_t>(next_port_++);
}

Host::Handler* Host::find_handler(std::uint16_t local_port) {
  if (local_port >= kFirstEphemeralPort) {
    const std::size_t i = local_port - kFirstEphemeralPort;
    return i < endpoints_.size() && endpoints_[i] ? &endpoints_[i] : nullptr;
  }
  const auto it = std::find_if(fixed_.begin(), fixed_.end(), [&](const auto& e) {
    return e.first == local_port;
  });
  return it != fixed_.end() ? &it->second : nullptr;
}

void Host::bind(std::uint16_t local_port, Handler h) {
  if (find_handler(local_port) != nullptr) {
    throw std::logic_error("Host " + name_ + ": port " +
                           std::to_string(local_port) + " is already bound");
  }
  if (local_port < kFirstEphemeralPort) {
    fixed_.emplace_back(local_port, std::move(h));
    return;
  }
  const std::size_t i = local_port - kFirstEphemeralPort;
  if (i >= endpoints_.size()) endpoints_.resize(i + 1);
  endpoints_[i] = std::move(h);
}

void Host::unbind(std::uint16_t local_port) {
  if (local_port >= kFirstEphemeralPort) {
    const std::size_t i = local_port - kFirstEphemeralPort;
    if (i < endpoints_.size()) endpoints_[i] = nullptr;
    return;
  }
  std::erase_if(fixed_, [&](const auto& e) { return e.first == local_port; });
}

void Host::deliver(PacketPtr p) {
  ++delivered_;
  if (Handler* h = find_handler(p->dport)) (*h)(std::move(p));
}

void Host::receive(PacketPtr p, std::size_t /*ingress*/) {
  if (stack_delay_ == 0) {
    deliver(std::move(p));
    return;
  }
  sim_.schedule_in(stack_delay_, [this, pkt = std::move(p)]() mutable {
    deliver(std::move(pkt));
  });
}

}  // namespace tcn::net
