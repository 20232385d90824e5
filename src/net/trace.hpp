// Per-port event tracing.
//
// A PortObserver attached to a Port sees every enqueue, dequeue, drop and
// mark with the queue/port state at that instant -- the raw material for
// debugging marking behaviour, building time series, or dumping pcap-style
// text logs. Observation is pull-free and costs one branch when unattached.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace tcn::net {

struct Packet;

enum class TraceEvent : std::uint8_t {
  kEnqueue,    ///< packet admitted to a queue
  kDequeue,    ///< packet leaves for the wire
  kDrop,       ///< packet rejected by the shared buffer
  kMark,       ///< CE applied (fires in addition to kEnqueue/kDequeue)
  kFaultDrop,  ///< packet blackholed by an injected fault (link down / loss)
  kSchedDrop,  ///< packet rejected by scheduler admission control (AIFO)
};

std::string_view trace_event_name(TraceEvent e);

struct TraceRecord {
  sim::Time t = 0;
  TraceEvent event = TraceEvent::kEnqueue;
  /// Dense index of the port among those sharing its observer (assigned by
  /// Port::set_observer; 0 for a lone port).
  std::uint32_t port_index = 0;
  std::string_view port;  ///< owning port's name (stable storage)
  std::size_t queue = 0;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  std::uint32_t size = 0;
  std::uint8_t dscp = 0;
  std::uint64_t queue_bytes = 0;  ///< occupancy after the event
  std::uint64_t port_bytes = 0;
  /// Queueing delay of the packet at this event: now - enqueue timestamp.
  /// Meaningful on kDequeue and dequeue-side kMark records; 0 otherwise.
  sim::Time sojourn = 0;
};

class PortObserver {
 public:
  virtual ~PortObserver() = default;
  virtual void on_event(const TraceRecord& rec) = 0;
};

}  // namespace tcn::net
