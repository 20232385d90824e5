// Observability layer tests: histogram bucket math, registry scoping,
// flight recorder ring, exporter byte formats, and the property battery
// that locks the port/marker instrumentation to the simulation's own
// accounting across every scheduler and AQM.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "aqm/tcn.hpp"
#include "core/experiment.hpp"
#include "core/schemes.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/trace.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_value.hpp"
#include "obs/metrics.hpp"
#include "obs/port_probe.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "test_util.hpp"

namespace tcn::obs {
namespace {

// ------------------------------------------------------------ histogram ----

TEST(LogHistogram, ExactBelowSubBuckets) {
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_floor(v), v);
  }
}

TEST(LogHistogram, FloorIsInverseOfIndex) {
  // Every bucket floor maps back to its own bucket, and the value one
  // below the floor maps to the previous bucket.
  for (std::size_t idx = 0; idx < 1500; ++idx) {
    const auto floor = LogHistogram::bucket_floor(idx);
    EXPECT_EQ(LogHistogram::bucket_index(floor), idx) << "idx=" << idx;
    if (floor > 0) {
      EXPECT_EQ(LogHistogram::bucket_index(floor - 1), idx - 1);
    }
  }
}

TEST(LogHistogram, RelativeErrorBounded) {
  // Bucket width / floor <= 1/kSubBuckets for every value past the linear
  // range: the histogram's ~3% accuracy contract.
  for (std::uint64_t v : {100ull, 1'000ull, 123'456ull, 1'000'000'000ull,
                          1'234'567'890'123ull}) {
    const auto idx = LogHistogram::bucket_index(v);
    const auto width =
        LogHistogram::bucket_ceil(idx) - LogHistogram::bucket_floor(idx);
    EXPECT_LE(static_cast<double>(width),
              static_cast<double>(LogHistogram::bucket_floor(idx)) /
                  LogHistogram::kSubBuckets +
                  1.0)
        << "v=" << v;
  }
}

TEST(LogHistogram, CountSumMinMaxExact) {
  LogHistogram h;
  h.record(10);
  h.record(1'000'000);
  h.record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1'000'013u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1'000'013.0 / 3.0);
}

TEST(LogHistogram, NegativeClampsToZero) {
  LogHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(LogHistogram, PercentileClampedToObservedRange) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1'000'000);
  // All mass in one bucket: every percentile is the exact observed value,
  // not the bucket midpoint.
  EXPECT_EQ(h.percentile(0.0), 1'000'000u);
  EXPECT_EQ(h.percentile(50.0), 1'000'000u);
  EXPECT_EQ(h.percentile(100.0), 1'000'000u);
}

TEST(LogHistogram, PercentileWithinRelativeError) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10'000; ++v) h.record(static_cast<std::int64_t>(v));
  const auto p50 = h.percentile(50.0);
  const auto p99 = h.percentile(99.0);
  EXPECT_NEAR(static_cast<double>(p50), 5'000.0, 5'000.0 / 16);
  EXPECT_NEAR(static_cast<double>(p99), 9'900.0, 9'900.0 / 16);
}

TEST(LogHistogram, SparseBucketExport) {
  LogHistogram h;
  h.record(1);
  h.record(1);
  h.record(1'000'000);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].first, 1u);
  EXPECT_EQ(buckets[0].second, 2u);
  EXPECT_EQ(buckets[1].second, 1u);
  std::uint64_t total = 0;
  for (const auto& [floor, count] : buckets) total += count;
  EXPECT_EQ(total, h.count());
}

/// Records `samples` into a LogHistogram and into the dense reference
/// layout (a count per bucket index up to the highest hit), then checks
/// that both report the same buckets, percentiles and quantiles.
void expect_matches_dense(const std::vector<std::uint64_t>& samples) {
  LogHistogram h;
  std::vector<std::uint64_t> dense;
  std::uint64_t min = UINT64_MAX;
  std::uint64_t max = 0;
  for (const std::uint64_t v : samples) {
    h.record(static_cast<std::int64_t>(v));
    const std::size_t idx = LogHistogram::bucket_index(v);
    if (idx >= dense.size()) dense.resize(idx + 1, 0);
    ++dense[idx];
    min = std::min(min, v);
    max = std::max(max, v);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] > 0) want.emplace_back(LogHistogram::bucket_floor(i), dense[i]);
  }
  EXPECT_EQ(h.buckets(), want);

  const auto n = static_cast<double>(h.count());
  for (const double p : {0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    auto rank = static_cast<std::uint64_t>(p / 100.0 * n);
    if (rank >= h.count()) rank = h.count() - 1;
    std::uint64_t seen = 0;
    std::uint64_t ref = max;
    for (std::size_t i = 0; i < dense.size(); ++i) {
      seen += dense[i];
      if (seen > rank) {
        const std::uint64_t lo = LogHistogram::bucket_floor(i);
        ref = std::clamp(lo + (LogHistogram::bucket_ceil(i) - lo) / 2, min,
                         max);
        break;
      }
    }
    EXPECT_EQ(h.percentile(p), ref) << "p=" << p;
  }
  for (const double q : {0.001, 0.25, 0.5, 0.75, 0.99, 0.999}) {
    const double rank = q * n;
    double seen = 0.0;
    double ref = static_cast<double>(max);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const auto c = static_cast<double>(dense[i]);
      if (c == 0.0) continue;
      if (seen + c >= rank) {
        const auto lo = static_cast<double>(LogHistogram::bucket_floor(i));
        const auto hi = static_cast<double>(LogHistogram::bucket_ceil(i));
        ref = std::clamp(lo + (rank - seen) / c * (hi - lo),
                         static_cast<double>(min), static_cast<double>(max));
        break;
      }
      seen += c;
    }
    EXPECT_EQ(h.quantile(q), ref) << "q=" << q;
  }
}

TEST(LogHistogram, SparseStorageMatchesDenseCounts) {
  // Heavy-tailed samples over ~9 decades, with a lump at zero, like
  // sojourns.
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back((rng() % 8 == 0) ? 0 : (rng() % 1'000) << (rng() % 20));
  }
  {
    SCOPED_TRACE("heavy-tailed");
    expect_matches_dense(samples);
  }
  // record() checks the last-hit bucket before searching. Long runs in one
  // bucket hit it every time.
  samples.clear();
  for (const std::uint64_t v : {5'000ull, 7ull, 1'000'000ull, 5'001ull}) {
    samples.insert(samples.end(), 500, v);
  }
  {
    SCOPED_TRACE("same-bucket runs");
    expect_matches_dense(samples);
  }
  // Each new bucket lands below the last-hit one and shifts its position:
  // the next sample of the old bucket must still count there.
  samples.clear();
  for (std::uint64_t v = 1ull << 30; v > 0; v /= 3) {
    samples.push_back(v);
    samples.push_back(1ull << 31);
    samples.push_back(v);
  }
  {
    SCOPED_TRACE("inserts below the hint");
    expect_matches_dense(samples);
  }
  // Alternating buckets miss the hint on every sample.
  samples.clear();
  for (int i = 0; i < 3'000; ++i) {
    samples.push_back(i % 3 == 0 ? 40 : i % 3 == 1 ? 4'000 : 400'000);
  }
  {
    SCOPED_TRACE("alternating buckets");
    expect_matches_dense(samples);
  }
}

// ------------------------------------------------------------- registry ----

TEST(MetricsRegistry, FindOrCreateReturnsStableAddresses) {
  MetricsRegistry reg;
  Counter* a = &reg.counter("x");
  reg.counter("y");
  reg.counter("z");
  EXPECT_EQ(&reg.counter("x"), a);  // map nodes: stable across inserts
  a->inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc(2);
  reg.histogram("h.b").record(1);
  reg.histogram("h.a").record(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "h.a");
  EXPECT_EQ(snap.histograms[1].name, "h.b");
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsRegistry, ScopeInstallsAndNests) {
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  MetricsRegistry outer;
  {
    MetricsRegistry::Scope s1(outer);
    EXPECT_EQ(MetricsRegistry::current(), &outer);
    {
      MetricsRegistry inner;
      MetricsRegistry::Scope s2(inner);
      EXPECT_EQ(MetricsRegistry::current(), &inner);
    }
    EXPECT_EQ(MetricsRegistry::current(), &outer);
  }
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(Gauge, TracksLastMinMax) {
  Gauge g;
  g.set(5.0);
  g.set(-2.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.last(), 3.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_EQ(g.sets(), 3u);
}

// ------------------------------------------------------ flight recorder ----

net::TraceRecord make_record(sim::Time t, net::TraceEvent ev,
                             std::uint64_t flow) {
  net::TraceRecord r;
  r.t = t;
  r.event = ev;
  r.port = "sw0.p1";
  r.queue = 2;
  r.flow = flow;
  r.seq = 7;
  r.size = 1500;
  r.queue_bytes = 3'000;
  r.port_bytes = 4'500;
  return r;
}

TEST(FlightRecorder, RingKeepsLastNInOrder) {
  FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.on_event(make_record(100 * static_cast<sim::Time>(i),
                            net::TraceEvent::kEnqueue, i));
  }
  EXPECT_EQ(fr.events_seen(), 10u);
  const auto tail = fr.tail();
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].flow, 6u + i);  // oldest-first: events 6,7,8,9
  }
}

TEST(FlightRecorder, FormatTailMentionsEveryEvent) {
  FlightRecorder fr(8);
  fr.on_event(make_record(42, net::TraceEvent::kEnqueue, 1));
  fr.on_event(make_record(43, net::TraceEvent::kDrop, 2));
  const auto text = fr.format_tail();
  EXPECT_NE(text.find("last 2 of 2"), std::string::npos);
  EXPECT_NE(text.find("enq"), std::string::npos);
  EXPECT_NE(text.find("drop"), std::string::npos);
  EXPECT_NE(text.find("sw0.p1"), std::string::npos);
  EXPECT_NE(text.find("t=43"), std::string::npos);
}

// ------------------------------------------------------------ exporters ----

TEST(Exporters, TraceRecordJsonBytes) {
  const auto rec = make_record(1'234, net::TraceEvent::kDequeue, 9);
  auto with_sojourn = rec;
  with_sojourn.sojourn = 777;
  EXPECT_EQ(trace_record_to_json(with_sojourn),
            "{\"t\":1234,\"ev\":\"deq\",\"port\":\"sw0.p1\",\"q\":2,"
            "\"flow\":9,\"seq\":7,\"size\":1500,\"dscp\":0,\"qbytes\":3000,"
            "\"pbytes\":4500,\"sojourn\":777}");
}

TEST(Exporters, JsonlWriterEmitsHeaderThenRecords) {
  std::ostringstream out;
  JsonlTraceWriter w(out);
  w.on_event(make_record(1, net::TraceEvent::kEnqueue, 1));
  w.on_event(make_record(2, net::TraceEvent::kDequeue, 1));
  EXPECT_EQ(w.records_written(), 2u);
  const auto text = out.str();
  EXPECT_EQ(text.find("{\"schema\":\"tcn-trace-1\"}\n"), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Exporters, MetricsJsonHasSchemaAndSections) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(5);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist").record(1000);
  const auto doc = metrics_to_json(reg.snapshot());
  EXPECT_NE(doc.find("\"schema\": \"tcn-metrics-1\""), std::string::npos);
  EXPECT_NE(doc.find("\"a.count\": 5"), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  // Deterministic: same registry, same bytes.
  EXPECT_EQ(doc, metrics_to_json(reg.snapshot()));
}

/// Three ports whose keys interleave: "a." prefixes "a.l", so the keys of
/// "a.l" fall between those of "a", and "a-c" sorts after "a" as a port
/// name while "port.a-c." sorts before "port.a.". Named instruments fall
/// between generated port keys.
std::string key_order_document() {
  MetricsRegistry reg;
  PortProbe a("a", 2);
  PortProbe al("a.l", 1);
  PortProbe ac("a-c", 1);
  for (PortProbe* p : {&al, &a, &ac}) reg.attach(*p);
  a.cells[0].enq_packets = 5;
  a.cells[0].tx_packets = 4;
  a.cells[0].drops = 1;
  a.cells[1].marks_dequeue = 2;
  a.cells[1].marks_enqueue = 3;
  a.fault_drops = 6;
  a.sched_drops = 7;
  a.histograms->sojourn[0].record(1'000);
  a.histograms->sojourn[0].record(1'010);
  a.histograms->interdeq_gap.record(12);
  al.cells[0].enq_packets = 9;
  al.histograms->mark_sojourn.record(300);
  ac.cells[0].drops = 11;
  ac.sched_drops = 13;
  reg.counter("aqm.tcn.evals").inc(21);
  reg.counter("port.a.k").inc(22);        // between drops.* and port.a.l.*
  reg.counter("port.a.marks.f").inc(23);  // between marks.enqueue and q0.
  reg.counter("tcp.timeouts").inc(24);
  reg.histogram("port.a.j").record(25);  // between interdeq_* and port.a.l.*
  reg.gauge("stability/sojourn_cv").set(0.5);
  return metrics_to_json(reg.snapshot(), 0);
}

TEST(Exporters, MetricsKeyOrderInterleavesPortsAndNamedInstruments) {
  // Pinned bytes of the document as first written, when every port key was
  // a stored name and the sections were sorted after merging.
  const std::string want =
      "{\"schema\":\"tcn-metrics-1\",\"counters\":{"
      "\"aqm.tcn.evals\":21,"
      "\"port.a-c.drops.buffer\":11,"
      "\"port.a-c.drops.fault\":0,"
      "\"port.a-c.drops.sched\":13,"
      "\"port.a-c.marks.dequeue\":0,"
      "\"port.a-c.marks.enqueue\":0,"
      "\"port.a-c.q0.deq_packets\":0,"
      "\"port.a-c.q0.drop_packets\":11,"
      "\"port.a-c.q0.enq_packets\":0,"
      "\"port.a.drops.buffer\":1,"
      "\"port.a.drops.fault\":6,"
      "\"port.a.drops.sched\":7,"
      "\"port.a.k\":22,"
      "\"port.a.l.drops.buffer\":0,"
      "\"port.a.l.drops.fault\":0,"
      "\"port.a.l.drops.sched\":0,"
      "\"port.a.l.marks.dequeue\":0,"
      "\"port.a.l.marks.enqueue\":0,"
      "\"port.a.l.q0.deq_packets\":0,"
      "\"port.a.l.q0.drop_packets\":0,"
      "\"port.a.l.q0.enq_packets\":9,"
      "\"port.a.marks.dequeue\":2,"
      "\"port.a.marks.enqueue\":3,"
      "\"port.a.marks.f\":23,"
      "\"port.a.q0.deq_packets\":4,"
      "\"port.a.q0.drop_packets\":1,"
      "\"port.a.q0.enq_packets\":5,"
      "\"port.a.q1.deq_packets\":0,"
      "\"port.a.q1.drop_packets\":0,"
      "\"port.a.q1.enq_packets\":0,"
      "\"tcp.timeouts\":24},"
      "\"gauges\":{"
      "\"stability/sojourn_cv\":{\"last\":0.5,\"min\":0.5,\"max\":0.5,"
      "\"sets\":1}},"
      "\"histograms\":{"
      "\"port.a-c.interdeq_gap_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a-c.mark_sojourn_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a-c.q0.sojourn_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a.interdeq_gap_ns\":{\"count\":1,\"sum\":12,\"min\":12,"
      "\"max\":12,\"mean\":12,\"p50\":12,\"p99\":12,\"buckets\":[[12,"
      "1]]},"
      "\"port.a.j\":{\"count\":1,\"sum\":25,\"min\":25,\"max\":25,"
      "\"mean\":25,\"p50\":25,\"p99\":25,\"buckets\":[[25,1]]},"
      "\"port.a.l.interdeq_gap_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a.l.mark_sojourn_ns\":{\"count\":1,\"sum\":300,\"min\":300,"
      "\"max\":300,\"mean\":300,\"p50\":300,\"p99\":300,"
      "\"buckets\":[[296,1]]},"
      "\"port.a.l.q0.sojourn_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a.mark_sojourn_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},"
      "\"port.a.q0.sojourn_ns\":{\"count\":2,\"sum\":2010,\"min\":1000,"
      "\"max\":1010,\"mean\":1005,\"p50\":1010,\"p99\":1010,"
      "\"buckets\":[[992,1],[1008,1]]},"
      "\"port.a.q1.sojourn_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p99\":0,\"buckets\":[]}}}";
  EXPECT_EQ(key_order_document(), want);
}

// ----------------------------------------------------- property battery ----

/// Snapshot indexed for assertions.
struct Indexed {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, MetricsSnapshot::HistogramSummary> histograms;

  explicit Indexed(const MetricsSnapshot& s) {
    s.for_each_counter([this](std::string_view name, std::uint64_t v) {
      counters.emplace(name, v);
    });
    s.for_each_histogram([this](std::string_view name,
                                const MetricsSnapshot::HistogramSummary& h) {
      histograms.emplace(name, h);
    });
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t hist_count(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.count;
  }
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Observer asserting globally monotone event timestamps (events are
/// emitted in simulation order across all ports). It also keeps the trace
/// view of every queue: dequeues, marks and dequeued bytes.
class MonotoneChecker final : public net::PortObserver {
 public:
  struct QueueTally {
    std::uint64_t deq = 0;
    std::uint64_t marks = 0;
    std::uint64_t tx_bytes = 0;
  };

  void on_event(const net::TraceRecord& rec) override {
    EXPECT_GE(rec.t, last_) << "timestamps went backwards at " << rec.port;
    last_ = rec.t;
    ++events_;
    if (rec.port_index >= ports_.size()) ports_.resize(rec.port_index + 1);
    auto& [name, queues] = ports_[rec.port_index];
    if (name.empty()) name = rec.port;
    if (rec.queue >= queues.size()) queues.resize(rec.queue + 1);
    if (rec.event == net::TraceEvent::kMark) ++queues[rec.queue].marks;
    if (rec.event == net::TraceEvent::kDequeue) {
      ++queues[rec.queue].deq;
      queues[rec.queue].tx_bytes += rec.size;
    }
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  /// The tally of channel "<port>.q<queue>" (zero if it saw no event).
  [[nodiscard]] QueueTally tally(const std::string& channel) const {
    for (const auto& [name, queues] : ports_) {
      for (std::size_t q = 0; q < queues.size(); ++q) {
        if (name + ".q" + std::to_string(q) == channel) return queues[q];
      }
    }
    return {};
  }

 private:
  sim::Time last_ = 0;
  std::uint64_t events_ = 0;
  /// By TraceRecord::port_index: the port's name and per-queue tallies.
  std::vector<std::pair<std::string, std::vector<QueueTally>>> ports_;
};

/// One channel of a tcn-series-1 dump, its points summed over every tick.
struct SeriesSums {
  std::size_t points = 0;
  bool all_zero = true;  ///< every point's counts and depth are 0
  std::uint64_t deq = 0;
  std::uint64_t marks = 0;
  std::uint64_t tx_bytes = 0;
};

/// Channel name -> sums, plus the dump's tick count.
std::map<std::string, SeriesSums> read_series(const std::string& path,
                                              std::uint64_t& ticks) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  ticks = obs::JsonValue::parse(line).at("ticks").as_u64();
  std::map<std::string, SeriesSums> out;
  while (std::getline(in, line)) {
    const obs::JsonValue ch = obs::JsonValue::parse(line);
    SeriesSums& sums = out[ch.at("channel").as_string()];
    for (const obs::JsonValue& pt : ch.at("points").as_array()) {
      // [t, depth_bytes, depth_packets, deq, sojourn_sum, marks, tx_bytes]
      const auto& f = pt.as_array();
      ++sums.points;
      for (std::size_t i = 1; i < f.size(); ++i) {
        sums.all_zero = sums.all_zero && f[i].as_u64() == 0;
      }
      sums.deq += f[3].as_u64();
      sums.marks += f[5].as_u64();
      sums.tx_bytes += f[6].as_u64();
    }
  }
  return out;
}

enum class MarkSide { kEnqueue, kDequeue };

struct GridCase {
  const char* label;
  core::SchedKind sched;
  core::Scheme scheme;
  MarkSide side;
};

// Every scheduler and every AQM appears at least once; marking side is the
// scheme's documented hook (TCN/CoDel/dequeue-RED mark at dequeue, the RED
// family/MQ-ECN/PIE/ideal-rate at enqueue).
const GridCase kGrid[] = {
    {"fifo+tcn", core::SchedKind::kFifo, core::Scheme::kTcn,
     MarkSide::kDequeue},
    {"sp+red", core::SchedKind::kSp, core::Scheme::kRedPerQueue,
     MarkSide::kEnqueue},
    {"wfq+codel", core::SchedKind::kWfq, core::Scheme::kCodel,
     MarkSide::kDequeue},
    {"dwrr+red-port", core::SchedKind::kDwrr, core::Scheme::kRedPerPort,
     MarkSide::kEnqueue},
    // MQ-ECN needs a RoundRateProvider scheduler (DWRR/WRR only).
    {"dwrr+mq-ecn", core::SchedKind::kDwrr, core::Scheme::kMqEcn,
     MarkSide::kEnqueue},
    {"wrr+ideal-rate", core::SchedKind::kWrr, core::Scheme::kIdealRate,
     MarkSide::kEnqueue},
    {"sp-dwrr+pie", core::SchedKind::kSpDwrr, core::Scheme::kPie,
     MarkSide::kEnqueue},
    {"sp-wfq+red-dequeue", core::SchedKind::kSpWfq,
     core::Scheme::kRedDequeue, MarkSide::kDequeue},
    {"pifo+tcn-prob", core::SchedKind::kPifoStfq, core::Scheme::kTcnProb,
     MarkSide::kDequeue},
    // Approximate rank schedulers: the marker must stay oblivious to both
    // the SP-PIFO level adaptation and the AIFO admission gate.
    {"sp-pifo+tcn", core::SchedKind::kSpPifo, core::Scheme::kTcn,
     MarkSide::kDequeue},
    {"aifo+red-port", core::SchedKind::kAifo, core::Scheme::kRedPerPort,
     MarkSide::kEnqueue},
};

core::FctExperiment grid_config(const GridCase& c) {
  core::FctExperiment cfg;
  cfg.scheme = c.scheme;
  cfg.sched.kind = c.sched;
  cfg.sched.num_sp = 1;
  cfg.load = 0.6;
  cfg.num_flows = 40;
  cfg.seed = 11;
  cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = 51 * sim::kMicrosecond;
  cfg.params.codel_interval = 1024 * sim::kMicrosecond;
  cfg.params.tcn_tmin = 128 * sim::kMicrosecond;
  cfg.params.tcn_tmax = 384 * sim::kMicrosecond;
  cfg.params.tcn_pmax = 1.0;
  cfg.params.seed = cfg.seed;
  cfg.time_limit = 600 * sim::kSecond;
  cfg.collect_metrics = true;
  return cfg;
}

TEST(ObsProperties, PortAccountingHoldsAcrossSchedulersAndAqms) {
  const std::string series_path =
      ::testing::TempDir() + "obs_test_grid_series.jsonl";
  std::size_t never_woken = 0;
  for (const auto& c : kGrid) {
    SCOPED_TRACE(c.label);
    auto cfg = grid_config(c);
    MonotoneChecker monotone;
    cfg.extra_observer = &monotone;
    // Sampling on, with a ring long enough to keep every tick.
    cfg.timeseries.interval = 1000 * sim::kMicrosecond;
    cfg.timeseries.max_samples = 1 << 20;
    cfg.series_out = series_path;
    const auto report = core::run_fct_experiment(cfg);
    ASSERT_TRUE(report.metrics_collected);
    EXPECT_GT(monotone.events(), 0u);
    const Indexed m(report.metrics);

    // Cross-view: every port queue's series, summed over all ticks, equals
    // the snapshot's counters and the trace stream, and the switch ports'
    // marks equal the Port::counters() total in the report.
    std::uint64_t ticks = 0;
    const auto series = read_series(series_path, ticks);
    EXPECT_GT(ticks, 0u);
    EXPECT_EQ(series.size(), report.series_channels);
    std::uint64_t switch_series_marks = 0;
    std::map<std::string, std::uint64_t> port_series_marks;
    for (const auto& [channel, sums] : series) {
      SCOPED_TRACE(channel);
      EXPECT_EQ(sums.points, ticks);  // every tick, woken or not
      const std::string port = channel.substr(0, channel.rfind(".q"));
      EXPECT_EQ(sums.deq, m.counter("port." + channel + ".deq_packets"));
      const auto trace = monotone.tally(channel);
      EXPECT_EQ(sums.deq, trace.deq);
      EXPECT_EQ(sums.marks, trace.marks);
      EXPECT_EQ(sums.tx_bytes, trace.tx_bytes);
      port_series_marks["port." + port] += sums.marks;
      if (!ends_with(port, ".nic")) switch_series_marks += sums.marks;
      if (m.counter("port." + channel + ".enq_packets") == 0) {
        // A channel that never woke still serializes its all-zero run.
        EXPECT_TRUE(sums.all_zero);
        ++never_woken;
      }
    }
    for (const auto& [port, marks] : port_series_marks) {
      EXPECT_EQ(marks, m.counter(port + ".marks.enqueue") +
                           m.counter(port + ".marks.dequeue"))
          << port;
    }
    EXPECT_EQ(switch_series_marks, report.switch_marks);

    std::uint64_t total_deq = 0;
    std::uint64_t total_marks = 0;
    std::size_t queue_prefixes = 0;
    std::map<std::string, std::uint64_t> port_deq;  // port prefix -> deq
    for (const auto& [name, enq] : m.counters) {
      if (!ends_with(name, ".enq_packets")) continue;
      ++queue_prefixes;
      const auto prefix = name.substr(0, name.size() - 12);  // strip suffix
      const auto deq = m.counter(prefix + ".deq_packets");
      // enq counts only ADMITTED packets (the tail-drop path rejects before
      // the enqueue counter), and the run drains (every flow completes, no
      // time-limit cut), so every admitted packet eventually dequeues. The
      // drop counter sits on top of enq: rejected arrivals, never enqueued.
      EXPECT_EQ(enq, deq) << prefix;
      // Dequeue-side sojourn histogram: exactly one sample per dequeue.
      EXPECT_EQ(m.hist_count(prefix + ".sojourn_ns"), deq) << prefix;
      total_deq += deq;
      const auto port_prefix = prefix.substr(0, prefix.rfind(".q"));
      port_deq[port_prefix] += deq;
    }
    EXPECT_GT(queue_prefixes, 0u);
    EXPECT_GT(total_deq, 0u);

    for (const auto& [port_prefix, deq] : port_deq) {
      const auto marks_enq = m.counter(port_prefix + ".marks.enqueue");
      const auto marks_deq = m.counter(port_prefix + ".marks.dequeue");
      total_marks += marks_enq + marks_deq;
      if (c.side == MarkSide::kDequeue) {
        EXPECT_EQ(marks_enq, 0u) << port_prefix;
        EXPECT_LE(marks_deq, deq) << port_prefix;
      } else {
        EXPECT_EQ(marks_deq, 0u) << port_prefix;
      }
      // One mark-latency sample per mark, regardless of side.
      EXPECT_EQ(m.hist_count(port_prefix + ".mark_sojourn_ns"),
                marks_enq + marks_deq)
          << port_prefix;
      // Inter-dequeue gaps: one sample per dequeue after the port's first.
      if (deq > 0) {
        EXPECT_EQ(m.hist_count(port_prefix + ".interdeq_gap_ns"), deq - 1)
            << port_prefix;
      }
      // Buffer-drop rollup equals the per-queue attribution.
      std::uint64_t q_drops = 0;
      for (const auto& [name, v] : m.counters) {
        if (name.rfind(port_prefix + ".q", 0) == 0 &&
            ends_with(name, ".drop_packets")) {
          q_drops += v;
        }
      }
      EXPECT_EQ(m.counter(port_prefix + ".drops.buffer"), q_drops)
          << port_prefix;
    }
    // The port-side mark total agrees with the experiment report's own
    // aggregation (switch marks; host NICs never mark in these scenarios).
    EXPECT_EQ(total_marks, report.switch_marks);

    // AQM self-accounting: every marker evaluated at least as often as it
    // marked, and its mark total matches the ports it served.
    std::uint64_t aqm_marks = 0;
    bool saw_aqm = false;
    for (const auto& [name, v] : m.counters) {
      if (name.rfind("aqm.", 0) != 0 || !ends_with(name, ".marks")) continue;
      saw_aqm = true;
      const auto evals =
          m.counter(name.substr(0, name.size() - 6) + ".evals");
      EXPECT_LE(v, evals) << name;
      aqm_marks += v;
    }
    EXPECT_TRUE(saw_aqm);
    EXPECT_EQ(aqm_marks, total_marks);
  }
  EXPECT_GT(never_woken, 0u);  // the all-zero path above was exercised
  std::remove(series_path.c_str());
}

TEST(ObsProperties, OnePortsViewsAgreeQueueByQueue) {
  // One SP+DWRR port under a 20us TCN marker with metrics and sampling on:
  // bursts build backlog (dequeue marks and a tail drop), queue 3 never
  // sees a packet. Port::counters(), the probe's cells, the snapshot and
  // the series summed over every tick must tell the same story.
  net::PacketUidScope uid_scope;
  net::PacketPool pool;
  net::PacketPool::Scope pool_scope(pool);
  MetricsRegistry registry;
  MetricsRegistry::Scope metrics_scope(registry);
  obs::TimeSeriesConfig ts_cfg;
  ts_cfg.interval = 10 * sim::kMicrosecond;
  ts_cfg.max_samples = 1 << 16;
  obs::TimeSeries series(ts_cfg);
  obs::TimeSeries::Scope series_scope(series);

  sim::Simulator sim;
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kSpDwrr;
  sched.num_queues = 4;
  sched.num_sp = 1;
  net::PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.num_queues = 4;
  cfg.buffer_bytes = 9'000;
  net::Port port(sim, "sw0.p0", cfg, core::make_scheduler_factory(sched)(),
                 std::make_unique<aqm::TcnMarker>(20 * sim::kMicrosecond));
  test::CaptureNode sink;
  port.connect(&sink, 0);
  for (const sim::Time at : {0, 5'000, 12'000, 40'000}) {
    sim.schedule_at(at, [&] {
      for (std::uint64_t i = 0; i < 4; ++i) {
        port.enqueue(test::make_test_packet(1500, 0, i), i % 3);
      }
    });
  }
  series.start(sim);
  sim.run();

  const Indexed m(registry.snapshot());
  const net::Port::Counters totals = port.counters();
  EXPECT_GT(totals.marks, 0u);
  EXPECT_GT(totals.drops, 0u);
  net::Port::Counters sums;
  for (std::size_t q = 0; q < 4; ++q) {
    SCOPED_TRACE(q);
    const obs::TimeSeries::Channel& ch = series.channel(q);
    const std::string key = "port." + ch.name();
    std::uint64_t deq = 0, marks = 0, tx_bytes = 0;
    const auto points = ch.points();
    EXPECT_EQ(points.size(), series.ticks());
    for (const obs::SeriesPoint& p : points) {
      deq += p.deq_packets;
      marks += p.marks;
      tx_bytes += p.tx_bytes;
    }
    const obs::QueueCells& cells = port.probe().cells[q];
    EXPECT_EQ(deq, cells.tx_packets);
    EXPECT_EQ(deq, m.counter(key + ".deq_packets"));
    EXPECT_EQ(cells.enq_packets, m.counter(key + ".enq_packets"));
    EXPECT_EQ(cells.drops, m.counter(key + ".drop_packets"));
    EXPECT_EQ(marks, cells.marks_enqueue + cells.marks_dequeue);
    EXPECT_EQ(tx_bytes, cells.tx_bytes);
    sums.tx_packets += deq;
    sums.tx_bytes += tx_bytes;
    sums.marks += marks;
    sums.drops += cells.drops;
    if (q == 3) {
      EXPECT_EQ(cells.enq_packets, 0u);
      for (const obs::SeriesPoint& p : points) {
        EXPECT_EQ(p.depth_bytes + p.deq_packets + p.marks + p.tx_bytes, 0u);
      }
    }
  }
  EXPECT_EQ(sums.tx_packets, totals.tx_packets);
  EXPECT_EQ(sums.tx_bytes, totals.tx_bytes);
  EXPECT_EQ(sums.marks, totals.marks);
  EXPECT_EQ(sums.drops, totals.drops);
  EXPECT_EQ(totals.marks, m.counter("port.sw0.p0.marks.enqueue") +
                              m.counter("port.sw0.p0.marks.dequeue"));
  EXPECT_EQ(totals.drops, m.counter("port.sw0.p0.drops.buffer"));
}

TEST(ObsProperties, AifoSchedDropsAreDistinctFromBufferDrops) {
  // AIFO admission rejections are SCHEDULING drops: they land on the
  // drops.sched counter and FctReport::sched_drops, never on drops.buffer
  // (shared-buffer congestion) or the per-queue drop attribution, and the
  // marker never evaluates a rejected packet.
  auto cfg = grid_config(kGrid[0]);
  cfg.sched.kind = core::SchedKind::kAifo;
  cfg.sched.aifo_window = 16;
  cfg.sched.aifo_k = 0.0;           // strictest admission: headroom >= quantile
  cfg.star.buffer_bytes = 12'000;   // tight buffer so the gate engages
  cfg.load = 0.9;
  const auto report = core::run_fct_experiment(cfg);
  ASSERT_TRUE(report.metrics_collected);
  ASSERT_GT(report.sched_drops, 0u);
  const Indexed m(report.metrics);

  // Only switch ports run AIFO; host NICs ("port.<host>.nic") are plain
  // drop-tail FIFOs whose buffer drops are NOT in FctReport::switch_drops.
  std::uint64_t sched_total = 0;
  std::uint64_t buffer_total = 0;
  std::uint64_t q_drops = 0;
  for (const auto& [name, v] : m.counters) {
    if (name.rfind("port.sw", 0) != 0) continue;
    if (ends_with(name, ".drops.sched")) sched_total += v;
    if (ends_with(name, ".drops.buffer")) buffer_total += v;
    if (ends_with(name, ".drop_packets")) q_drops += v;
  }
  // The metric rollup matches the report's own aggregation on both axes,
  // and the buffer attribution is untouched by the admission gate.
  EXPECT_EQ(sched_total, report.sched_drops);
  EXPECT_EQ(buffer_total, report.switch_drops);
  EXPECT_EQ(buffer_total, q_drops);

  // Admitted packets still balance: enq counts only admitted arrivals and
  // the run drains, so every enqueue dequeues even while the gate rejects.
  for (const auto& [name, enq] : m.counters) {
    if (!ends_with(name, ".enq_packets")) continue;
    const auto prefix = name.substr(0, name.size() - 12);
    EXPECT_EQ(enq, m.counter(prefix + ".deq_packets")) << prefix;
  }
}

TEST(ObsProperties, CollectingMetricsChangesNoResult) {
  auto cfg = grid_config(kGrid[0]);
  cfg.collect_metrics = false;
  const auto off = core::run_fct_experiment(cfg);
  cfg.collect_metrics = true;
  const auto on = core::run_fct_experiment(cfg);
  EXPECT_FALSE(off.metrics_collected);
  EXPECT_TRUE(on.metrics_collected);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.sim_end, on.sim_end);
  EXPECT_EQ(off.flows_completed, on.flows_completed);
  EXPECT_EQ(off.switch_drops, on.switch_drops);
  EXPECT_EQ(off.switch_marks, on.switch_marks);
  EXPECT_DOUBLE_EQ(off.summary.avg_all_us, on.summary.avg_all_us);
  EXPECT_DOUBLE_EQ(off.summary.p99_small_us, on.summary.p99_small_us);
}

TEST(ObsProperties, SweepMetricsByteIdenticalAcrossJobs) {
  runner::SweepSpec spec;
  spec.name = "obs-test";
  spec.base = grid_config(kGrid[0]);
  spec.base.num_flows = 25;
  spec.schemes = {{"tcn", core::Scheme::kTcn},
                  {"codel", core::Scheme::kCodel}};
  spec.loads = {0.4, 0.7};
  spec.seeds = {1, 2};

  runner::SweepOptions opt1;
  opt1.jobs = 1;
  const auto res1 = runner::run_sweep(spec, opt1);
  runner::SweepOptions opt4;
  opt4.jobs = 4;
  const auto res4 = runner::run_sweep(spec, opt4);
  ASSERT_TRUE(res1.ok());
  ASSERT_TRUE(res4.ok());
  EXPECT_EQ(runner::metrics_to_json(res1, "obs-test"),
            runner::metrics_to_json(res4, "obs-test"));
  EXPECT_EQ(runner::to_json(res1, "obs-test", /*include_timing=*/false),
            runner::to_json(res4, "obs-test", /*include_timing=*/false));
  // Every run actually collected metrics into the merged document.
  const auto doc = runner::metrics_to_json(res1, "obs-test");
  EXPECT_NE(doc.find("\"schema\": \"tcn-metrics-1\""), std::string::npos);
  for (const auto& r : res1.runs) {
    EXPECT_TRUE(r.report.metrics_collected);
    EXPECT_FALSE(r.report.metrics.empty());
  }
}

TEST(ObsProperties, TraceWriterCountsMatchTracer) {
  auto cfg = grid_config(kGrid[0]);
  cfg.num_flows = 10;
  MonotoneChecker counting;
  cfg.extra_observer = &counting;

  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  cfg.trace_out = path;
  const auto report = core::run_fct_experiment(cfg);
  EXPECT_EQ(report.trace_records, counting.events());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t lines = 0;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"schema\":\"tcn-trace-1\"}");
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, report.trace_records);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcn::obs
