#include "transport/connection_pool.hpp"

namespace tcn::transport {

std::uint32_t ConnectionPool::idle_connection(net::Host& src, net::Host& dst,
                                              const FlowSpec& spec) {
  auto& list = conns_[{src.address(), dst.address()}];
  for (const std::uint32_t slot : list) {
    if (slab_.at(slot).sender->pending_messages() == 0) return slot;
  }
  // All busy (or none yet): open a new connection, as the testbed client
  // does when no connection is available.
  list.push_back(
      slab_.open(src, dst, spec, 0x10000000ULL + connections_created_++));
  return list.back();
}

std::uint64_t ConnectionPool::submit(net::Host& src, net::Host& dst,
                                     FlowSpec spec) {
  const std::uint64_t id = next_msg_id_++;
  // DSCP tagging belongs to the message; the connection default stays 0.
  DscpFn dscp = std::exchange(spec.data_dscp, nullptr);
  const std::uint32_t slot = idle_connection(src, dst, spec);
  spec.data_dscp = std::move(dscp);
  slab_.send(slot, id, std::move(spec));
  return id;
}

}  // namespace tcn::transport
