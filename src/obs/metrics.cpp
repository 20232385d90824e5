#include "obs/metrics.hpp"

#include <string_view>
#include <type_traits>

#include "obs/port_probe.hpp"

namespace tcn::obs {
namespace {

using HistogramSummary = MetricsSnapshot::HistogramSummary;
using PortValue = MetricsSnapshot::PortValue;

HistogramSummary summarize(const LogHistogram& h) {
  return {h.count(),          h.sum(),            h.min(), h.max(),
          h.percentile(50.0), h.percentile(99.0), h.buckets()};
}

PortValue port_value(const PortProbe& p) {
  PortValue v;
  v.name = p.name;
  v.drops_fault = p.fault_drops;
  v.drops_sched = p.sched_drops;
  v.interdeq_gap_ns = summarize(p.histograms->interdeq_gap);
  v.mark_sojourn_ns = summarize(p.histograms->mark_sojourn);
  v.queues.reserve(p.cells.size());
  for (std::size_t q = 0; q < p.cells.size(); ++q) {
    const QueueCells& c = p.cells[q];
    v.drops_buffer += c.drops;
    v.marks_dequeue += c.marks_dequeue;
    v.marks_enqueue += c.marks_enqueue;
    v.queues.push_back({c.tx_packets, c.drops, c.enq_packets,
                        summarize(p.histograms->sojourn[q])});
  }
  return v;
}

/// a + "." < b + ".", bytewise, without building either string: the order
/// of the ports' key blocks "port.<name>.".
bool key_less(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (const int c = a.compare(0, n, b, 0, n); c != 0) return c < 0;
  if (a.size() == b.size()) return false;
  // The shorter name continues with its ".": a + "." is a prefix of
  // b + "." (so less) when b continues with "." too.
  return a.size() < b.size() ? '.' <= static_cast<unsigned char>(b[n])
                             : static_cast<unsigned char>(a[n]) < '.';
}

/// (queue index, "q<index>.") in the bytewise order of the prefixes:
/// "q1." < "q10." < "q2.".
using QueuePrefixes = std::vector<std::pair<std::size_t, std::string>>;

QueuePrefixes queue_prefixes(std::size_t n) {
  QueuePrefixes out;
  out.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    out.emplace_back(q, "q" + std::to_string(q) + ".");
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

/// A port's counters in key order, as f(suffix, more suffix, value) with
/// the key "port.<name>." + suffix + more suffix.
struct PortCounters {
  template <typename F>
  void operator()(const PortValue& p, const QueuePrefixes& queues,
                  F&& f) const {
    f("drops.buffer", "", p.drops_buffer);
    f("drops.fault", "", p.drops_fault);
    f("drops.sched", "", p.drops_sched);
    f("marks.dequeue", "", p.marks_dequeue);
    f("marks.enqueue", "", p.marks_enqueue);
    for (const auto& [q, prefix] : queues) {
      const PortValue::Queue& c = p.queues[q];
      f(prefix, "deq_packets", c.deq_packets);
      f(prefix, "drop_packets", c.drop_packets);
      f(prefix, "enq_packets", c.enq_packets);
    }
  }
};

/// A port's histograms in key order, like PortCounters.
struct PortHistogramSummaries {
  template <typename F>
  void operator()(const PortValue& p, const QueuePrefixes& queues,
                  F&& f) const {
    f("interdeq_gap_ns", "", p.interdeq_gap_ns);
    f("mark_sojourn_ns", "", p.mark_sojourn_ns);
    for (const auto& [q, prefix] : queues) {
      f(prefix, "sojourn_ns", p.queues[q].sojourn_ns);
    }
  }
};

std::uint64_t named_value(const MetricsSnapshot::CounterValue& c) {
  return c.value;
}
const HistogramSummary& named_value(const MetricsSnapshot::HistogramValue& h) {
  return h;
}

/// The one key walker: calls emit(key, value) for the name-sorted `named`
/// instruments and every port's generated keys, merged into bytewise key
/// order. Ports come in key order, so each port's block of keys follows
/// the previous one unless a name + "." prefixes the next name (or names
/// repeat); then the blocks interleave and the port keys are sorted first.
template <typename Named, typename Items, typename Emit>
void walk_keys(const std::vector<Named>& named,
               const std::vector<PortValue>& ports, Items items, Emit& emit) {
  auto n = named.begin();
  // A named key equal to a port key comes first.
  const auto emit_port = [&](std::string_view key, const auto& value) {
    for (; n != named.end() && n->name <= key; ++n) {
      emit(n->name, named_value(*n));
    }
    emit(key, value);
  };
  const auto nested = [](const PortValue& a, const PortValue& b) {
    return b.name.starts_with(a.name) &&
           (b.name.size() == a.name.size() || b.name[a.name.size()] == '.');
  };
  const bool interleaved =
      std::adjacent_find(ports.begin(), ports.end(), nested) != ports.end();

  QueuePrefixes queues;
  std::string key;
  using Value = std::remove_cvref_t<decltype(named_value(*n))>;
  std::vector<std::pair<std::string, const Value*>> sorted;
  for (const PortValue& p : ports) {
    if (queues.size() != p.queues.size()) {
      queues = queue_prefixes(p.queues.size());
    }
    key.assign("port.").append(p.name).append(".");
    const std::size_t base = key.size();
    items(p, queues,
          [&](std::string_view a, std::string_view b, const Value& v) {
            key.resize(base);
            key.append(a).append(b);
            if (interleaved) {
              sorted.emplace_back(key, &v);
            } else {
              emit_port(key, v);
            }
          });
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [k, v] : sorted) emit_port(k, *v);
  for (; n != named.end(); ++n) emit(n->name, named_value(*n));
}

}  // namespace

void MetricsSnapshot::for_each_counter(
    const std::function<void(std::string_view, std::uint64_t)>& f) const {
  walk_keys(counters, ports, PortCounters{}, f);
}

void MetricsSnapshot::for_each_histogram(
    const std::function<void(std::string_view, const HistogramSummary&)>& f)
    const {
  walk_keys(histograms, ports, PortHistogramSummaries{}, f);
}

void MetricsRegistry::attach(PortProbe& probe) {
  if (!probe.histograms) {
    probe.histograms = std::make_unique<PortHistograms>(probe.cells.size());
  }
  ports_.push_back(&probe);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c.value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g.last(), g.min(), g.max(), g.sets()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({summarize(h), name});
  }
  std::vector<const PortProbe*> ports = ports_;
  std::sort(ports.begin(), ports.end(),
            [](const PortProbe* a, const PortProbe* b) {
              return key_less(a->name, b->name);
            });
  s.ports.reserve(ports.size());
  for (const PortProbe* p : ports) s.ports.push_back(port_value(*p));
  return s;
}

}  // namespace tcn::obs
