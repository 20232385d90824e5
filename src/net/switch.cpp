#include "net/switch.hpp"

#include <algorithm>
#include <utility>

namespace tcn::net {
namespace {

/// splitmix64 finalizer: a strong deterministic mixer for ECMP hashing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t flow_hash(const Packet& p) {
  // Hash the bidirectionally-asymmetric 5-tuple; data and ACKs of one flow
  // may take different paths, as with real ECMP.
  const std::uint64_t a =
      (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
  const std::uint64_t b =
      (static_cast<std::uint64_t>(p.sport) << 16) | p.dport;
  return mix64(a ^ mix64(b));
}

}  // namespace

Switch::Switch(sim::Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

std::size_t Switch::add_port(PortConfig cfg, std::unique_ptr<Scheduler> sched,
                             std::unique_ptr<Marker> marker) {
  const std::size_t idx = ports_.size();
  ports_.push_back(std::make_unique<Port>(
      sim_, name_ + ".p" + std::to_string(idx), cfg, std::move(sched),
      std::move(marker)));
  return idx;
}

void Switch::connect(std::size_t port, Node* peer, std::size_t peer_ingress) {
  ports_.at(port)->connect(peer, peer_ingress);
}

void Switch::add_route(std::uint32_t dst, std::span<const std::size_t> ports) {
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1);
  // Reuse any run of the member array that already lists these ports in
  // this order: a fabric has a handful of distinct groups per switch.
  auto it = std::search(members_.begin(), members_.end(), ports.begin(),
                        ports.end());
  if (it == members_.end()) {
    it = members_.insert(members_.end(), ports.begin(), ports.end());
  }
  routes_[dst] = Route{static_cast<std::uint32_t>(it - members_.begin()),
                       static_cast<std::uint32_t>(ports.size())};
}

std::size_t Switch::pick_member(std::span<const std::size_t> group,
                                const Packet& p) const {
  const std::uint64_t hash = flow_hash(p);
  const std::size_t out = group[hash % group.size()];
  if (ports_[out]->link_up()) return out;
  // Steer around dead ECMP members: flows hashed onto a downed link are
  // deterministically rehashed over the live members (like a fabric
  // routing update) -- the (hash % live)-th live one; flows on healthy
  // links keep their path.
  const auto live = static_cast<std::size_t>(
      std::count_if(group.begin(), group.end(),
                    [&](std::size_t m) { return ports_[m]->link_up(); }));
  // All members down: keep the hashed one and let the port blackhole it.
  if (live == 0) return out;
  std::size_t k = hash % live;
  for (const std::size_t member : group) {
    if (ports_[member]->link_up() && k-- == 0) return member;
  }
  return out;  // unreachable: k < live
}

void Switch::receive(PacketPtr p, std::size_t /*ingress*/) {
  const Route route = p->dst < routes_.size() ? routes_[p->dst] : Route{};
  if (route.count == 0) {
    ++unrouted_;
    return;
  }
  const std::size_t out =
      route.count == 1
          ? members_[route.offset]
          : pick_member({members_.data() + route.offset, route.count}, *p);
  Port& port = *ports_[out];
  const std::size_t q =
      std::min<std::size_t>(p->dscp, port.num_queues() - 1);
  port.enqueue(std::move(p), q);
}

}  // namespace tcn::net
