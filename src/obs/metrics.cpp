#include "obs/metrics.hpp"

#include <string_view>

#include "obs/port_probe.hpp"

namespace tcn::obs {
namespace {

MetricsSnapshot::HistogramValue histogram_value(std::string name,
                                                const LogHistogram& h) {
  return {std::move(name),    h.count(),          h.sum(),    h.min(),
          h.max(),            h.percentile(50.0), h.percentile(99.0),
          h.buckets()};
}

/// (queue index, "q<index>.") in the bytewise order of the prefixes:
/// "q1." < "q10." < "q2.".
std::vector<std::pair<std::size_t, std::string>> queue_prefixes(
    std::size_t n) {
  std::vector<std::pair<std::size_t, std::string>> out;
  out.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    out.emplace_back(q, "q" + std::to_string(q) + ".");
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

/// The named view of every probe: counters and histograms under
/// "port.<name>.", emitted port by port with each port's suffixes in
/// bytewise order -- sorted unless a port's name plus "." prefixes
/// another's, which falls back to a sort.
void name_ports(std::vector<const PortProbe*> ports,
                std::vector<MetricsSnapshot::CounterValue>& counters,
                std::vector<MetricsSnapshot::HistogramValue>& histograms) {
  std::sort(ports.begin(), ports.end(),
            [](const PortProbe* a, const PortProbe* b) {
              return a->name < b->name;
            });
  std::vector<std::pair<std::size_t, std::string>> queues;
  std::string base;
  // base + a + b, allocated once at its final size.
  const auto name = [&base](std::string_view a, std::string_view b = {}) {
    std::string s;
    s.reserve(base.size() + a.size() + b.size());
    s.append(base).append(a).append(b);
    return s;
  };
  for (const PortProbe* port : ports) {
    const PortProbe& p = *port;
    if (queues.size() != p.cells.size()) {
      queues = queue_prefixes(p.cells.size());
    }
    QueueCells sum;
    for (const QueueCells& q : p.cells) {
      sum.drops += q.drops;
      sum.marks_dequeue += q.marks_dequeue;
      sum.marks_enqueue += q.marks_enqueue;
    }
    base.assign("port.").append(p.name).append(".");
    counters.push_back({name("drops.buffer"), sum.drops});
    counters.push_back({name("drops.fault"), p.fault_drops});
    counters.push_back({name("drops.sched"), p.sched_drops});
    counters.push_back({name("marks.dequeue"), sum.marks_dequeue});
    counters.push_back({name("marks.enqueue"), sum.marks_enqueue});
    for (const auto& [q, prefix] : queues) {
      const QueueCells& c = p.cells[q];
      counters.push_back({name(prefix, "deq_packets"), c.tx_packets});
      counters.push_back({name(prefix, "drop_packets"), c.drops});
      counters.push_back({name(prefix, "enq_packets"), c.enq_packets});
    }
    const PortHistograms& h = *p.histograms;
    histograms.push_back(
        histogram_value(name("interdeq_gap_ns"), h.interdeq_gap));
    histograms.push_back(
        histogram_value(name("mark_sojourn_ns"), h.mark_sojourn));
    for (const auto& [q, prefix] : queues) {
      histograms.push_back(
          histogram_value(name(prefix, "sojourn_ns"), h.sojourn[q]));
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  if (!std::is_sorted(counters.begin(), counters.end(), by_name)) {
    std::sort(counters.begin(), counters.end(), by_name);
  }
  if (!std::is_sorted(histograms.begin(), histograms.end(), by_name)) {
    std::sort(histograms.begin(), histograms.end(), by_name);
  }
}

/// Merge the name-sorted map `named` (converted by `value`) with the
/// name-sorted `ports` into `out`.
template <typename Map, typename Value, typename Convert>
void merge_sorted(const Map& named, std::vector<Value>& ports,
                  std::vector<Value>& out, Convert value) {
  out.reserve(named.size() + ports.size());
  auto p = ports.begin();
  for (const auto& [name, instrument] : named) {
    for (; p != ports.end() && p->name < name; ++p) {
      out.push_back(std::move(*p));
    }
    out.push_back(value(name, instrument));
  }
  for (; p != ports.end(); ++p) out.push_back(std::move(*p));
}

}  // namespace

void MetricsRegistry::attach(PortProbe& probe) {
  if (!probe.histograms) {
    probe.histograms = std::make_unique<PortHistograms>(probe.cells.size());
  }
  ports_.push_back(&probe);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::vector<MetricsSnapshot::CounterValue> port_counters;
  std::vector<MetricsSnapshot::HistogramValue> port_histograms;
  name_ports(ports_, port_counters, port_histograms);

  MetricsSnapshot s;
  merge_sorted(counters_, port_counters, s.counters,
               [](const std::string& name, const Counter& c) {
                 return MetricsSnapshot::CounterValue{name, c.value()};
               });
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g.last(), g.min(), g.max(), g.sets()});
  }
  merge_sorted(histograms_, port_histograms, s.histograms,
               [](const std::string& name, const LogHistogram& h) {
                 return histogram_value(name, h);
               });
  return s;
}

}  // namespace tcn::obs
