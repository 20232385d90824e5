// Flow state: what a flow asks for (FlowSpec), what it reports (FlowResult),
// and the FlowSlab that owns every TcpSender/TcpSink pair of a run.
//
// One slab serves the simulator's three application models:
//   - cold flows, one connection per flow (the ns-2 model of Sec. 6.2):
//     launch() opens a slot and sends the flow as its only message;
//   - persistent connections (the testbed model of Sec. 6.1.2):
//     ConnectionPool opens slots and sends many messages over each;
//   - open-loop flows (traffic::TrafficEngine): open + send, and the slot is
//     recycled at completion, so the working set is the peak number of
//     *concurrently active* flows, not the lifetime arrival count.
//
// Closed-loop runs never recycle: a recycled slot would reuse port numbers,
// which re-draws ECMP paths (the switch hash mixes sport/dport), and would
// close sockets that late retransmissions still reach.
//
// Slots live in a std::deque (stable addresses); recycled slots go onto a
// LIFO free list. A slot's TcpSender/TcpSink are destroyed at recycle
// (cancelling timers, unbinding ports, releasing their message ring, SACK
// map and ack state) and the next flow reconstructs into the same slot.
// Ports recycle too: Host::allocate_port() is a bump counter that throws
// once its ~64k ephemeral ports are gone, so the slab keeps a per-host free
// list and a host's port footprint is bounded by its peak concurrent flows.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "transport/tcp.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace tcn::transport {

struct FlowResult {
  std::uint64_t flow_id = 0;
  std::uint64_t size = 0;
  std::uint32_t service = 0;
  sim::Time start = 0;
  sim::Time fct = 0;
  std::uint32_t timeouts = 0;
};

struct FlowSpec {
  std::uint64_t size = 0;
  std::uint32_t service = 0;  ///< carried into the FlowResult
  TcpConfig tcp;
  DscpFn data_dscp;            ///< default: constant 0
  std::uint8_t ack_dscp = 0;
  TcpSink::DeliveryCb on_deliver;  ///< optional goodput hook
  /// The flow's completion hook: receives its FlowResult once the last byte
  /// is acknowledged.
  std::function<void(const FlowResult&)> on_complete;
};

class FlowSlab {
 public:
  /// One connection: transport endpoints plus what recycle() needs to
  /// return its ports.
  struct Slot {
    std::optional<TcpSink> sink;
    std::optional<TcpSender> sender;
    std::uint32_t src_addr = 0;
    std::uint32_t dst_addr = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    bool slab_free = true;  ///< double-recycle guard, like Packet::pool_free
  };

  FlowSlab() = default;
  FlowSlab(const FlowSlab&) = delete;
  FlowSlab& operator=(const FlowSlab&) = delete;

  /// Open connection `flow_id` from `src` to `dst` in a clean slot (LIFO
  /// reused if one is free): check out the source port, then the
  /// destination port, build the sink, then the sender. The sender tags data
  /// with spec.data_dscp by default; the sink reports to spec.on_deliver.
  /// Returns the slot index; the caller owns it until recycle(index).
  std::uint32_t open(net::Host& src, net::Host& dst, const FlowSpec& spec,
                     std::uint64_t flow_id);

  /// Send spec.size bytes over slot `index` as one message, tagged with
  /// spec.data_dscp (the connection default when empty). On completion,
  /// spec.on_complete receives a FlowResult carrying `id`, the size, the
  /// service, the send time and the message's FCT and timeouts.
  void send(std::uint32_t index, std::uint64_t id, FlowSpec spec);

  /// A cold flow: open a connection and send `spec` as its only message,
  /// tagged by the connection default. Cold flows are numbered 1, 2, 3, ...
  /// in launch order; the number is both the connection's flow id and the
  /// FlowResult's. Returns the slot index.
  std::uint32_t launch(net::Host& src, net::Host& dst, FlowSpec spec);

  /// Cold flows launched so far (the last flow id handed out).
  [[nodiscard]] std::uint64_t launched() const noexcept { return launched_; }

  [[nodiscard]] const Slot& at(std::uint32_t index) const {
    return slots_[index];
  }

  /// Destroy the slot's transport state (cancels timers, unbinds ports),
  /// return its ports to the per-host free lists and the slot to the slab.
  /// Must not be called from inside the slot's own sender callbacks --
  /// defer via Simulator::schedule_in(0, ...). Double recycles are counted
  /// and dropped, never corrupting the free list.
  void recycle(std::uint32_t index);

  [[nodiscard]] std::uint64_t fresh_allocs() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reused_; }
  [[nodiscard]] std::uint64_t recycles() const noexcept { return recycled_; }
  [[nodiscard]] std::uint64_t double_recycles() const noexcept {
    return double_recycled_;
  }
  /// Slots currently held by live connections.
  [[nodiscard]] std::uint64_t live() const noexcept {
    return fresh_ + reused_ - recycled_;
  }
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t free_size() const noexcept { return free_.size(); }

 private:
  /// A port for `host`, recycled from a closed connection when available.
  std::uint16_t checkout_port(net::Host& host);

  std::deque<Slot> slots_;          // stable addresses across growth
  std::vector<std::uint32_t> free_; // LIFO: cache-warm reuse order
  // Host address -> ports released by recycled slots. Keyed by address (a
  // plain u32), not Host*, so the slab never dangles if it outlives a
  // topology in tests.
  std::unordered_map<std::uint32_t, std::vector<std::uint16_t>> ports_;

  std::uint64_t launched_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t double_recycled_ = 0;
};

}  // namespace tcn::transport
