// The port probe: the one record of what an egress port observes.
//
// TCN's signal is a queue's sojourn time read at dequeue, and everything
// else the simulator reports about a port is the same per-queue state. A
// net::Port records it once, into the PortProbe it holds, and every view
// reads the probe: Port::counters() sums its cells,
// MetricsRegistry::snapshot() copies them, the time-series sampler takes
// their tick-to-tick deltas, and trace observers hang off it. The
// histograms exist only when a MetricsRegistry took the probe, so with no
// consumer installed recording them is one null check. Consumers keep a
// pointer: the port must outlive every read of its registry or sampler.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace tcn::net {
class PortObserver;
}

namespace tcn::obs {

class TimeSeries;

/// Cumulative observations of one queue: what some view reads per queue,
/// in 64 bytes.
struct QueueCells {
  std::uint64_t enq_packets = 0;  ///< admitted packets
  std::uint64_t enq_bytes = 0;
  std::uint64_t tx_packets = 0;  ///< dequeued onto the link
  std::uint64_t tx_bytes = 0;
  std::uint64_t sojourn_ns = 0;  ///< summed over dequeues
  std::uint64_t marks_enqueue = 0;  ///< CE marks applied on arrival
  std::uint64_t marks_dequeue = 0;  ///< CE marks applied at dequeue
  std::uint64_t drops = 0;          ///< shared-buffer tail drops
};

/// The port's latency histograms, kept for a metrics consumer.
struct PortHistograms {
  explicit PortHistograms(std::size_t num_queues) : sojourn(num_queues) {}

  void on_dequeue(std::size_t queue, sim::Time sojourn_ns, sim::Time now) {
    sojourn[queue].record(sojourn_ns);
    if (last_dequeue >= 0) interdeq_gap.record(now - last_dequeue);
    last_dequeue = now;
  }

  std::vector<LogHistogram> sojourn;  ///< per queue, one sample per dequeue
  LogHistogram mark_sojourn;  ///< one sample per mark; 0 when marked on arrival
  LogHistogram interdeq_gap;  ///< between consecutive dequeues of the port
  sim::Time last_dequeue = -1;  // -1: no dequeue yet (gap undefined)
};

struct PortProbe {
  PortProbe(std::string port_name, std::size_t num_queues)
      : name(std::move(port_name)), cells(num_queues) {}
  PortProbe(const PortProbe&) = delete;
  PortProbe& operator=(const PortProbe&) = delete;

  /// The queue's first admitted packet: wakes its time-series channel.
  void wake(std::size_t q);

  std::string name;
  std::vector<QueueCells> cells;  ///< one per queue
  // Port-wide cells: drops that no view splits by queue.
  std::uint64_t drop_bytes = 0;  ///< of the shared-buffer tail drops
  /// Blackholed by an injected fault (downed link, random loss).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_drop_bytes = 0;
  /// Rejected by scheduler admission (e.g. AIFO): a scheduling decision,
  /// apart from buffer pressure and AQM behaviour.
  std::uint64_t sched_drops = 0;
  std::uint64_t sched_drop_bytes = 0;
  std::unique_ptr<PortHistograms> histograms;  ///< null: no metrics consumer
  /// Trace consumers, called in order on every port event, and the port's
  /// dense index among the ports sharing them (TraceRecord::port_index).
  std::vector<net::PortObserver*> observers;
  std::uint32_t trace_index = 0;
  /// The sampler holding this port's channels (first_channel + q), or null.
  TimeSeries* series = nullptr;
  std::size_t first_channel = 0;
};

}  // namespace tcn::obs
