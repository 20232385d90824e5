// Persistent-connection pool: the testbed application model of Sec. 6.1.2.
//
// The client keeps persistent TCP connections to every server; each flow
// (message) is sent over an idle connection to its source host, or a fresh
// connection when all are busy. Warm connections keep their congestion state
// (with restart-after-idle), which is what keeps testbed tail latencies sane
// compared to cold-starting every flow. Connections are FlowSlab slots that
// are never recycled between messages.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "transport/flow.hpp"

namespace tcn::transport {

class ConnectionPool {
 public:
  /// Connections open in `slab`, which must outlive the pool's run.
  explicit ConnectionPool(FlowSlab& slab) : slab_(slab) {}

  /// Send `spec` as a message from `src` to `dst` over an idle persistent
  /// connection (opening one if all are busy). Returns the message id, which
  /// the message's FlowResult carries.
  std::uint64_t submit(net::Host& src, net::Host& dst, FlowSpec spec);

  [[nodiscard]] std::size_t connections_created() const noexcept {
    return connections_created_;
  }
  [[nodiscard]] std::size_t messages_submitted() const noexcept {
    return next_msg_id_ - 1;
  }

 private:
  using PairKey = std::pair<std::uint32_t, std::uint32_t>;  // (src, dst)

  std::uint32_t idle_connection(net::Host& src, net::Host& dst,
                                const FlowSpec& spec);

  FlowSlab& slab_;
  /// Slot indices per (src, dst), in creation order.
  std::map<PairKey, std::vector<std::uint32_t>> conns_;
  std::uint64_t next_msg_id_ = 1;
  std::size_t connections_created_ = 0;
};

}  // namespace tcn::transport
