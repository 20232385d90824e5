// Egress port: the pipeline the paper's qdisc prototype implements (Sec. 5).
//
//   classify (done by the owning Switch/Host)
//     -> shared-buffer admission (tail drop, first-in-first-serve)
//     -> enqueue ECN marking hook
//     -> packet scheduler
//     -> dequeue ECN marking hook
//     -> serialization on the link + propagation to the peer
//
// The port optionally shapes its drain rate below line rate (the prototype's
// token-bucket rate limiter runs at 99.5% of NIC capacity so queueing stays
// visible to the AQM).
//
// Everything the port observes -- per-queue counts, latency histograms,
// trace events -- goes through its one obs::PortProbe (obs/port_probe.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/scheduler.hpp"
#include "net/trace.hpp"
#include "obs/port_probe.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

class Host;

/// Per-packet link-fault decision hook (fault injection). Consulted when a
/// packet finishes serialization; returning true blackholes it on the wire.
/// Concrete models (Bernoulli, Gilbert-Elliott) live in src/fault.
class LossModel {
 public:
  virtual ~LossModel() = default;
  virtual bool should_drop(const Packet& p, sim::Time now) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

struct PortConfig {
  std::uint64_t rate_bps = 1'000'000'000;
  sim::Time prop_delay = 0;
  std::size_t num_queues = 1;
  /// Shared buffer across all queues of the port; admission is tail drop on
  /// the port total (first-in-first-serve, as on the testbed switch).
  std::uint64_t buffer_bytes = UINT64_MAX;
  /// Drain-rate shaping as a fraction of rate_bps (Sec. 5 rate limiter).
  double rate_limit_fraction = 1.0;
};

class Port {
 public:
  Port(sim::Simulator& sim, std::string name, PortConfig cfg,
       std::unique_ptr<Scheduler> sched, std::unique_ptr<Marker> marker);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Attach the far end of the link. When the peer is a Host with a stack
  /// delay, the link arrival and the host's receive-stack delay fold into
  /// one event (see propagate).
  void connect(Node* peer, std::size_t peer_ingress);

  /// Submit a packet to queue `queue`. May drop (shared buffer full, link
  /// down) or mark. Throws std::invalid_argument on an out-of-range queue.
  void enqueue(PacketPtr p, std::size_t queue);

  /// Take the link down (blackholing in-flight and newly submitted packets
  /// into the fault_drops counter) or bring it back up (resuming the drain
  /// of whatever survived in the buffer).
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const noexcept { return link_up_; }
  /// Schedule set_link_up(up) at `at` (now or later). Unlike a bare
  /// simulator event, the port learns the transition ahead of time, so a
  /// packet it folds into a Host delivery is known to land on a live link.
  void schedule_link_state(sim::Time at, bool up);

  /// Attach (or detach with nullptr) a random-loss model applied to packets
  /// leaving the port; it must outlive the port or be detached first.
  void set_loss_model(LossModel* m) noexcept { loss_ = m; }

  /// Transient shared-buffer squeeze: cap admission below the configured
  /// buffer. Resident packets are not evicted; new arrivals tail-drop until
  /// the occupancy drains under the new limit.
  void set_buffer_limit(std::uint64_t bytes) noexcept { buffer_limit_ = bytes; }
  void reset_buffer_limit() noexcept { buffer_limit_ = cfg_.buffer_bytes; }
  [[nodiscard]] std::uint64_t buffer_limit() const noexcept {
    return buffer_limit_;
  }

  /// Port totals, summed from the probe's cells.
  struct Counters {
    std::uint64_t enq_packets = 0;
    std::uint64_t enq_bytes = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t drops = 0;  ///< shared-buffer tail drops
    std::uint64_t drop_bytes = 0;
    std::uint64_t marks = 0;
    std::uint64_t fault_drops = 0;  ///< see obs::PortProbe
    std::uint64_t fault_drop_bytes = 0;
    std::uint64_t sched_drops = 0;
    std::uint64_t sched_drop_bytes = 0;
  };
  [[nodiscard]] Counters counters() const noexcept;
  [[nodiscard]] std::uint64_t queue_bytes(std::size_t q) const {
    return queues_[q].bytes();
  }
  [[nodiscard]] std::size_t queue_packets(std::size_t q) const {
    return queues_[q].size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  [[nodiscard]] std::size_t num_queues() const noexcept {
    return queues_.size();
  }
  [[nodiscard]] std::uint64_t effective_rate_bps() const noexcept {
    return effective_rate_bps_;
  }
  [[nodiscard]] const PortConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return probe_.name;
  }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *sched_; }
  [[nodiscard]] Marker& marker() noexcept { return *marker_; }
  /// Far end of the link (nullptr until connect()).
  [[nodiscard]] Node* peer() const noexcept { return peer_; }

  [[nodiscard]] const obs::PortProbe& probe() const noexcept {
    return probe_;
  }

  /// Attach trace observers, called in list order on every event
  /// (replacing any attached before; an empty list detaches). They must
  /// outlive the port or be detached first. `index` is the port's dense
  /// index among the ports sharing the observers, carried by every
  /// TraceRecord so observers keep per-port state in flat arrays.
  void set_observers(std::vector<PortObserver*> observers,
                     std::uint32_t index = 0) {
    probe_.observers = std::move(observers);
    probe_.trace_index = index;
  }

 private:
  void try_transmit();
  /// Put a serialized packet on the wire towards the peer.
  void propagate(PacketPtr p, std::size_t queue);
  /// Link state at time `t` by the transition log; exact for any t up to
  /// now and, for scheduled transitions, beyond.
  [[nodiscard]] bool link_up_at(sim::Time t) const;
  /// Hand a port event to the probe's trace observers, if any.
  void trace(TraceEvent event, const Packet& p, std::size_t queue,
             sim::Time sojourn = 0) {
    if (!probe_.observers.empty()) emit(event, p, queue, sojourn);
  }
  void emit(TraceEvent event, const Packet& p, std::size_t queue,
            sim::Time sojourn);
  void fault_drop(const Packet& p, std::size_t queue);

  sim::Simulator& sim_;
  obs::PortProbe probe_;
  PortConfig cfg_;
  std::uint64_t effective_rate_bps_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Marker> marker_;
  std::vector<PacketQueue> queues_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t buffer_limit_;
  bool busy_ = false;
  bool link_up_ = true;
  /// Every link transition, past and scheduled, as (time, up) sorted by
  /// time (equal times in the order they take effect). Empty on links that
  /// never fault.
  std::vector<std::pair<sim::Time, bool>> link_log_;
  LossModel* loss_ = nullptr;
  Node* peer_ = nullptr;
  std::size_t peer_ingress_ = 0;
  /// The peer when it is a Host with a stack delay (deliveries fold).
  Host* fold_host_ = nullptr;
};

}  // namespace tcn::net
