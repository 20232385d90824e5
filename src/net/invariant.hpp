// Runtime invariant checking over port trace streams.
//
// An InvariantChecker is a PortObserver that shadows every watched port with
// its own byte ledger and cross-checks each TraceRecord against it:
//
//   - byte conservation: occupancy after an enqueue/dequeue equals the
//     modeled value (enqueued = transmitted + dropped + resident at all
//     times, per queue and per port)
//   - non-negative occupancy: a dequeue can never remove more bytes than the
//     model holds (underflow would wrap the unsigned counters silently)
//   - monotonic timestamps: a port's event stream never goes back in time
//
// One checker instance can watch any number of ports (ledgers are indexed
// by TraceRecord::port_index, the dense index each port is given when the
// observer is attached), so a whole experiment needs exactly one.
// Fault-injection runs lean on this: a downed link or a mid-run buffer
// squeeze must never un-balance a port's ledger.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/trace.hpp"

namespace tcn::net {

class Port;

class InvariantChecker final : public PortObserver {
 public:
  /// fail_fast: throw std::logic_error on the first violation. Otherwise
  /// violations are counted and the first message retained for reporting.
  explicit InvariantChecker(bool fail_fast = true) : fail_fast_(fail_fast) {}

  void on_event(const TraceRecord& rec) override;

  [[nodiscard]] std::uint64_t events_checked() const noexcept {
    return events_checked_;
  }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const std::string& first_violation() const noexcept {
    return first_violation_;
  }
  /// Ledger slots in use: the highest port index seen so far, plus one.
  [[nodiscard]] std::size_t ports_watched() const noexcept {
    return ports_.size();
  }

  /// Install a post-mortem source: called once, on the FIRST violation, and
  /// its output is appended to the violation message (and to the exception
  /// in fail_fast mode). Wired to obs::FlightRecorder::format_tail by the
  /// experiment harness, so a tripped invariant dumps the last N port
  /// events instead of dying with a bare message.
  void set_postmortem(std::function<std::string()> fn) {
    postmortem_ = std::move(fn);
  }

 private:
  struct PortState {
    sim::Time last_t = 0;
    std::uint64_t port_bytes = 0;
    std::vector<std::uint64_t> queue_bytes;
  };

  void violation(const TraceRecord& rec, const std::string& what);

  bool fail_fast_;
  std::uint64_t events_checked_ = 0;
  std::uint64_t violations_ = 0;
  std::string first_violation_;
  std::function<std::string()> postmortem_;
  std::vector<PortState> ports_;  ///< indexed by TraceRecord::port_index
};

/// Counter-level conservation check, valid at any instant: every byte ever
/// admitted was either transmitted or is still resident in the buffer
/// (drops never enter the ledger; fault drops of in-flight packets happen
/// after the tx counter).
[[nodiscard]] bool port_ledger_balanced(const Port& port);

}  // namespace tcn::net
