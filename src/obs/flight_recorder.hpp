// Flight recorder: a fixed-size ring buffer of the most recent TraceRecords
// on a port (or set of ports). It is a plain PortObserver -- attach it to
// each port ahead of the InvariantChecker (Port::set_observers) -- and costs
// one copy per event with zero allocation after construction.
//
// Its purpose is post-mortems: when the invariant checker or the fault layer
// trips, format_tail() turns the last N events into a readable dump that is
// appended to the violation message, so a failed run explains itself instead
// of dying with a bare assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/trace.hpp"

namespace tcn::obs {

class FlightRecorder final : public net::PortObserver {
 public:
  static constexpr std::size_t kDefaultDepth = 64;

  explicit FlightRecorder(std::size_t depth = kDefaultDepth)
      : depth_(depth == 0 ? 1 : depth) {
    ring_.reserve(depth_);
  }

  void on_event(const net::TraceRecord& rec) override {
    if (ring_.size() < depth_) {
      ring_.push_back(rec);
    } else {
      ring_[head_] = rec;
      if (++head_ == depth_) head_ = 0;
    }
    ++seen_;
  }

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t events_seen() const noexcept { return seen_; }

  /// The retained records, oldest first.
  [[nodiscard]] std::vector<net::TraceRecord> tail() const {
    std::vector<net::TraceRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Human-readable dump of the tail, one event per line, oldest first.
  /// Appended to invariant-violation messages as the post-mortem.
  [[nodiscard]] std::string format_tail() const {
    const auto records = tail();
    std::string out = "flight recorder (last " +
                      std::to_string(records.size()) + " of " +
                      std::to_string(seen_) + " events):\n";
    char line[192];
    for (const auto& r : records) {
      std::snprintf(line, sizeof(line),
                    "  t=%lld %s %.*s q%zu flow=%llu seq=%llu size=%u "
                    "qbytes=%llu pbytes=%llu\n",
                    static_cast<long long>(r.t),
                    std::string(net::trace_event_name(r.event)).c_str(),
                    static_cast<int>(r.port.size()), r.port.data(), r.queue,
                    static_cast<unsigned long long>(r.flow),
                    static_cast<unsigned long long>(r.seq), r.size,
                    static_cast<unsigned long long>(r.queue_bytes),
                    static_cast<unsigned long long>(r.port_bytes));
      out += line;
    }
    if (records.empty()) out += "  (no events recorded)\n";
    return out;
  }

 private:
  std::size_t depth_;
  std::size_t head_ = 0;  // index of the OLDEST record once the ring is full
  std::uint64_t seen_ = 0;
  std::vector<net::TraceRecord> ring_;
};

}  // namespace tcn::obs
