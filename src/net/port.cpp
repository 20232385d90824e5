#include "net/port.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "net/host.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace tcn::net {

Port::Port(sim::Simulator& sim, std::string name, PortConfig cfg,
           std::unique_ptr<Scheduler> sched, std::unique_ptr<Marker> marker)
    : sim_(sim),
      probe_(std::move(name), cfg.num_queues),
      cfg_(cfg),
      effective_rate_bps_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.rate_bps) * cfg.rate_limit_fraction)),
      sched_(std::move(sched)),
      marker_(std::move(marker)),
      queues_(cfg.num_queues),
      buffer_limit_(cfg.buffer_bytes) {
  if (cfg.rate_bps == 0) {
    throw std::invalid_argument("Port: rate_bps must be > 0");
  }
  if (cfg.num_queues == 0) {
    throw std::invalid_argument("Port: num_queues must be >= 1");
  }
  if (cfg.prop_delay < 0) {
    throw std::invalid_argument("Port: prop_delay must be >= 0");
  }
  if (cfg.rate_limit_fraction <= 0.0 || cfg.rate_limit_fraction > 1.0) {
    throw std::invalid_argument("Port: rate_limit_fraction out of (0,1]");
  }
  if (!sched_ || !marker_) {
    throw std::invalid_argument("Port: scheduler and marker are required");
  }
  if (effective_rate_bps_ == 0) {
    // Would divide by zero computing serialization times.
    throw std::invalid_argument(
        "Port: rate_bps * rate_limit_fraction rounds to zero");
  }
  sched_->bind(&queues_, effective_rate_bps_);
  // The probe's consumers: the run's metrics registry and sampler, when
  // their scopes are installed.
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::current()) {
    reg->attach(probe_);
  }
  if (obs::TimeSeries* ts = obs::TimeSeries::current()) {
    ts->attach(probe_, cfg_.buffer_bytes);
  }
}

Port::Counters Port::counters() const noexcept {
  Counters c;
  for (const obs::QueueCells& q : probe_.cells) {
    c.enq_packets += q.enq_packets;
    c.enq_bytes += q.enq_bytes;
    c.tx_packets += q.tx_packets;
    c.tx_bytes += q.tx_bytes;
    c.drops += q.drops;
    c.marks += q.marks_enqueue + q.marks_dequeue;
  }
  c.drop_bytes = probe_.drop_bytes;
  c.fault_drops = probe_.fault_drops;
  c.fault_drop_bytes = probe_.fault_drop_bytes;
  c.sched_drops = probe_.sched_drops;
  c.sched_drop_bytes = probe_.sched_drop_bytes;
  return c;
}

void Port::emit(TraceEvent event, const Packet& p, std::size_t queue,
                sim::Time sojourn) {
  TraceRecord rec;
  rec.t = sim_.now();
  rec.event = event;
  rec.port = probe_.name;
  rec.port_index = probe_.trace_index;
  rec.queue = queue;
  rec.flow = p.flow;
  rec.seq = p.seq;
  rec.size = p.size;
  rec.dscp = p.dscp;
  rec.queue_bytes = queues_[queue].bytes();
  rec.port_bytes = total_bytes_;
  rec.sojourn = sojourn;
  for (PortObserver* o : probe_.observers) o->on_event(rec);
}

void Port::connect(Node* peer, std::size_t peer_ingress) {
  peer_ = peer;
  peer_ingress_ = peer_ingress;
  auto* host = dynamic_cast<Host*>(peer);
  fold_host_ = host != nullptr && host->stack_delay() > 0 ? host : nullptr;
}

void Port::fault_drop(const Packet& p, std::size_t queue) {
  ++probe_.fault_drops;
  probe_.fault_drop_bytes += p.size;
  trace(TraceEvent::kFaultDrop, p, queue);
}

namespace {

/// First entry of a time-sorted transition log later than `t`.
auto first_after(const std::vector<std::pair<sim::Time, bool>>& log,
                 sim::Time t) {
  return std::upper_bound(
      log.begin(), log.end(), t,
      [](sim::Time v, const std::pair<sim::Time, bool>& e) {
        return v < e.first;
      });
}

}  // namespace

void Port::set_link_up(bool up) {
  if (link_up_ == up) return;
  link_log_.insert(first_after(link_log_, sim_.now()), {sim_.now(), up});
  link_up_ = up;
  // Whatever survived in the buffer resumes draining when the link heals.
  if (up) try_transmit();
}

void Port::schedule_link_state(sim::Time at, bool up) {
  if (at <= sim_.now()) {
    set_link_up(up);
    return;
  }
  link_log_.insert(first_after(link_log_, at), {at, up});
  sim_.schedule_at(at, [this, up] {
    if (link_up_ == up) return;
    link_up_ = up;
    if (up) try_transmit();
  });
}

bool Port::link_up_at(sim::Time t) const {
  if (link_log_.empty()) return true;
  const auto it = first_after(link_log_, t);
  return it == link_log_.begin() || std::prev(it)->second;
}

void Port::enqueue(PacketPtr p, std::size_t queue) {
  if (queue >= queues_.size()) {
    throw std::invalid_argument("Port::enqueue(" + name() + "): queue index " +
                                std::to_string(queue) + " out of range [0, " +
                                std::to_string(queues_.size()) + ")");
  }
  // A downed link blackholes new arrivals before buffer accounting.
  if (!link_up_) {
    fault_drop(*p, queue);
    return;
  }
  obs::QueueCells& c = probe_.cells[queue];
  // Shared-buffer admission: tail drop on the port total.
  if (total_bytes_ + p->size > buffer_limit_) {
    ++c.drops;
    probe_.drop_bytes += p->size;
    trace(TraceEvent::kDrop, *p, queue);
    return;  // packet destroyed
  }
  // Scheduler admission control (e.g. AIFO): a rejection here is a
  // *scheduling* decision, accounted apart from buffer and fault drops, and
  // invisible to the marker (the packet never enters a queue).
  if (!sched_->admit(queue, *p, sim_.now(), total_bytes_, buffer_limit_)) {
    ++probe_.sched_drops;
    probe_.sched_drop_bytes += p->size;
    trace(TraceEvent::kSchedDrop, *p, queue);
    return;  // packet destroyed
  }
  p->enqueue_ts = sim_.now();
  if (c.enq_packets == 0) probe_.wake(queue);
  total_bytes_ += p->size;
  ++c.enq_packets;
  c.enq_bytes += p->size;

  Packet& ref = *p;
  queues_[queue].push(std::move(p));
  sched_->on_enqueue(queue, ref, sim_.now());

  const MarkContext ctx{.now = sim_.now(),
                        .queue = queue,
                        .queue_bytes = queues_[queue].bytes(),
                        .port_bytes = total_bytes_,
                        .link_rate_bps = effective_rate_bps_};
  if (marker_->on_enqueue(ctx, ref) && ref.ect()) {
    ref.ecn = Ecn::kCe;
    ++c.marks_enqueue;
    // Marked on arrival: no queueing yet.
    if (probe_.histograms) probe_.histograms->mark_sojourn.record(0);
    trace(TraceEvent::kMark, ref, queue);
  }
  trace(TraceEvent::kEnqueue, ref, queue);

  try_transmit();
}

void Port::try_transmit() {
  if (busy_ || !link_up_ || total_bytes_ == 0) return;

  const std::size_t q = sched_->select(sim_.now());
  assert(q < queues_.size() && !queues_[q].empty());

  PacketPtr p = queues_[q].pop();
  total_bytes_ -= p->size;
  sched_->on_dequeue(q, *p, sim_.now());

  const MarkContext ctx{.now = sim_.now(),
                        .queue = q,
                        .queue_bytes = queues_[q].bytes(),
                        .port_bytes = total_bytes_,
                        .link_rate_bps = effective_rate_bps_};
  const sim::Time sojourn = sim_.now() - p->enqueue_ts;
  obs::QueueCells& c = probe_.cells[q];
  obs::PortHistograms* h = probe_.histograms.get();
  if (marker_->on_dequeue(ctx, *p) && p->ect()) {
    p->ecn = Ecn::kCe;
    ++c.marks_dequeue;
    if (h != nullptr) h->mark_sojourn.record(sojourn);
    trace(TraceEvent::kMark, *p, q, sojourn);
  }
  if (h != nullptr) h->on_dequeue(q, sojourn, sim_.now());
  trace(TraceEvent::kDequeue, *p, q, sojourn);

  ++c.tx_packets;
  c.tx_bytes += p->size;
  c.sojourn_ns += static_cast<std::uint64_t>(sojourn);

  const sim::Time tx = sim::transmission_time(p->size, effective_rate_bps_);
  busy_ = true;
  // Serialization finishes at now+tx; the packet then propagates for
  // prop_delay before hitting the peer. A link that goes down while the
  // packet is on the wire (or a loss model firing at the end of
  // serialization) blackholes it. The packet moves straight into the event's
  // inline capture -- no heap, and an event discarded unfired recycles it.
  sim_.schedule_in(tx, [this, q, pkt = std::move(p)]() mutable {
    busy_ = false;
    if (!link_up_ || (loss_ != nullptr && loss_->should_drop(*pkt, sim_.now()))) {
      fault_drop(*pkt, q);
    } else if (peer_ != nullptr) {
      propagate(std::move(pkt), q);
    }
    try_transmit();
  });
}

void Port::propagate(PacketPtr p, std::size_t queue) {
  const sim::Time arrival = sim_.now() + cfg_.prop_delay;
  // A Host peer would only wait out its receive-stack delay after the
  // arrival, so arrival and delay fold into ONE event at arrival + delay --
  // provided the link is known to be up at the arrival instant. A packet
  // headed into a scheduled outage takes the unfolded path below, so its
  // fault drop is reported at the arrival instant as before.
  if (fold_host_ != nullptr && link_up_at(arrival)) {
    sim_.schedule_at(arrival + fold_host_->stack_delay(),
                     [this, queue, arrival, pkt = std::move(p)]() mutable {
      // Catches a set_link_up(false) issued while the packet propagated.
      if (!link_up_at(arrival)) {
        fault_drop(*pkt, queue);
        return;
      }
      fold_host_->deliver(std::move(pkt));
    });
    return;
  }
  sim_.schedule_at(arrival, [this, queue, pkt = std::move(p)]() mutable {
    if (!link_up_) {
      fault_drop(*pkt, queue);
      return;
    }
    peer_->receive(std::move(pkt), peer_ingress_);
  });
}

}  // namespace tcn::net
