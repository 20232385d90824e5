// PortObserver implementations: in-memory recording (with filters and a cap),
// text logging, and per-flow summaries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <vector>

#include "net/trace.hpp"

namespace tcn::stats {

/// Records every event (optionally filtered), up to a cap.
class RecordingTracer final : public net::PortObserver {
 public:
  using Filter = std::function<bool(const net::TraceRecord&)>;

  explicit RecordingTracer(std::size_t max_records = 1'000'000,
                           Filter filter = nullptr)
      : max_(max_records), filter_(std::move(filter)) {}

  void on_event(const net::TraceRecord& rec) override {
    if (filter_ && !filter_(rec)) return;
    if (records_.size() < max_) {
      records_.push_back(rec);
      ++tally_[static_cast<std::size_t>(rec.event)];
    } else {
      ++overflow_;
    }
  }

  [[nodiscard]] const std::vector<net::TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Number of STORED records of type `e` (capped records are not counted,
  /// matching records()). O(1): tallies are maintained on insert -- several
  /// tests and benches call this in loops.
  [[nodiscard]] std::size_t count(net::TraceEvent e) const {
    return tally_[static_cast<std::size_t>(e)];
  }

 private:
  // One slot per TraceEvent enumerator (kEnqueue..kSchedDrop).
  static constexpr std::size_t kNumEvents =
      static_cast<std::size_t>(net::TraceEvent::kSchedDrop) + 1;

  std::size_t max_;
  Filter filter_;
  std::vector<net::TraceRecord> records_;
  std::uint64_t overflow_ = 0;
  std::array<std::size_t, kNumEvents> tally_{};
};

/// Streams events as one text line each:
///   12.345us enq  sw0.p3 q2 flow=17 seq=14600 size=1500 dscp=2 q=4500 port=9000
class TextTracer final : public net::PortObserver {
 public:
  explicit TextTracer(std::ostream& out) : out_(out) {}

  void on_event(const net::TraceRecord& rec) override;

 private:
  std::ostream& out_;
};

/// Per-flow aggregation: packets/bytes through the port, marks, drops, and
/// the peak queue depth seen by the flow's packets.
class FlowTraceSummary final : public net::PortObserver {
 public:
  struct FlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t marks = 0;
    std::uint64_t drops = 0;
    std::uint64_t peak_queue_bytes = 0;
  };

  void on_event(const net::TraceRecord& rec) override;

  [[nodiscard]] const FlowStats& flow(std::uint64_t id) const;
  [[nodiscard]] const std::map<std::uint64_t, FlowStats>& flows()
      const noexcept {
    return flows_;
  }

 private:
  std::map<std::uint64_t, FlowStats> flows_;
};

}  // namespace tcn::stats
