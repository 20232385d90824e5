#include "net/invariant.hpp"

#include <stdexcept>

#include "net/port.hpp"

namespace tcn::net {

void InvariantChecker::violation(const TraceRecord& rec,
                                 const std::string& what) {
  std::string msg = "invariant violated at t=" + std::to_string(rec.t) +
                    "ns on " + std::string(rec.port) + " (" +
                    std::string(trace_event_name(rec.event)) + " q" +
                    std::to_string(rec.queue) + "): " + what;
  // First violation gets the flight-recorder post-mortem (if wired): the
  // last N events leading up to the fault, so the failure explains itself.
  if (violations_ == 0 && postmortem_) msg += "\n" + postmortem_();
  if (fail_fast_) throw std::logic_error(msg);
  if (violations_ == 0) first_violation_ = msg;
  ++violations_;
}

void InvariantChecker::on_event(const TraceRecord& rec) {
  ++events_checked_;
  if (rec.port_index >= ports_.size()) ports_.resize(rec.port_index + 1);
  PortState& st = ports_[rec.port_index];

  if (rec.t < st.last_t) {
    violation(rec, "timestamp went backwards (last " +
                       std::to_string(st.last_t) + "ns)");
  }
  st.last_t = rec.t;

  if (rec.queue >= st.queue_bytes.size()) {
    st.queue_bytes.resize(rec.queue + 1, 0);
  }
  std::uint64_t& qbytes = st.queue_bytes[rec.queue];

  switch (rec.event) {
    case TraceEvent::kEnqueue:
      st.port_bytes += rec.size;
      qbytes += rec.size;
      break;
    case TraceEvent::kDequeue:
      if (qbytes < rec.size || st.port_bytes < rec.size) {
        violation(rec, "occupancy underflow: dequeue of " +
                           std::to_string(rec.size) + "B from queue holding " +
                           std::to_string(qbytes) + "B (port " +
                           std::to_string(st.port_bytes) + "B)");
        // Clamp so one fault does not cascade in non-fail-fast mode.
        qbytes = st.port_bytes = 0;
        return;
      }
      st.port_bytes -= rec.size;
      qbytes -= rec.size;
      break;
    case TraceEvent::kDrop:
    case TraceEvent::kFaultDrop:
    case TraceEvent::kSchedDrop:
      // Rejected before admission: occupancy must be unchanged.
      break;
    case TraceEvent::kMark:
      // Marks fire adjacent to the enqueue/dequeue bookkeeping (before the
      // paired event is emitted), so occupancy is checked on that event.
      return;
  }

  if (rec.port_bytes != st.port_bytes) {
    violation(rec, "port byte conservation: reported " +
                       std::to_string(rec.port_bytes) + "B, ledger says " +
                       std::to_string(st.port_bytes) + "B");
    st.port_bytes = rec.port_bytes;  // resync to limit cascades
  }
  if (rec.queue_bytes != qbytes) {
    violation(rec, "queue byte conservation: reported " +
                       std::to_string(rec.queue_bytes) + "B, ledger says " +
                       std::to_string(qbytes) + "B");
    qbytes = rec.queue_bytes;
  }
}

bool port_ledger_balanced(const Port& port) {
  const Port::Counters& c = port.counters();
  return c.enq_bytes == c.tx_bytes + port.total_bytes();
}

}  // namespace tcn::net
