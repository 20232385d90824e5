// Unified metrics layer: a per-run registry of named counters, gauges and
// log-bucketed histograms that every layer of the simulator publishes into.
//
// Design rules (the same discipline as net::PortObserver):
//
//   - zero-cost when disabled: instruments resolve their handles ONCE, at
//     construction time, from the thread-local MetricsRegistry::Scope; when
//     no scope is installed the handles stay null and every publish site is
//     a single predictable branch on a null pointer
//   - ports register nothing by name: each hands the registry its
//     obs::PortProbe, snapshot() copies each probe once into a name-free
//     per-port record, and the "port.<name>...." keys are generated only
//     when the snapshot is walked (MetricsSnapshot::for_each_counter /
//     for_each_histogram, which the exporter uses)
//   - per-run isolation: one registry per simulation run, installed
//     thread-locally exactly like net::PacketPool::Scope, so concurrent
//     sweep jobs never contend or mix their metrics
//   - determinism: snapshots iterate name-sorted, all stored values are
//     integers (or doubles rendered shortest-round-trip by the exporter),
//     so the serialized form is byte-identical for any --jobs value
//
// The histogram is HDR-style log-linear: each power-of-two octave is split
// into kSubBuckets linear sub-buckets, giving a bounded relative error of
// 1/kSubBuckets (~3%) at any magnitude while costing one shift + one
// subtract per record. Values below kSubBuckets are exact.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcn::obs {

struct PortProbe;

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins sample with running min/max (peak tracking).
class Gauge {
 public:
  void set(double v) noexcept {
    last_ = v;
    if (sets_ == 0 || v < min_) min_ = v;
    if (sets_ == 0 || v > max_) max_ = v;
    ++sets_;
  }
  [[nodiscard]] double last() const noexcept { return last_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }

 private:
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t sets_ = 0;
};

/// Log-linear (HDR-style) histogram over non-negative 64-bit values.
/// Relative bucket error is bounded by 1/kSubBuckets; exact count, sum,
/// min and max are tracked alongside the buckets, so mean() is exact and
/// only percentile() carries the bucket quantization. Only non-empty
/// buckets are stored, as (index, count) pairs sorted by index: a port's
/// sojourn histograms hit a few dozen buckets spread over many octaves, so
/// dense counts up to the highest bucket would be mostly zeros.
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;  // 32

  /// Flat bucket index of `v`: exact below kSubBuckets, then kSubBuckets
  /// linear sub-buckets per power-of-two octave.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - static_cast<int>(kSubBucketBits);
    const std::uint64_t sub = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<std::size_t>(shift + 1) * kSubBuckets +
           static_cast<std::size_t>(sub - kSubBuckets);
  }

  /// Smallest value mapping to bucket `idx` (inverse of bucket_index).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t idx) noexcept {
    if (idx < kSubBuckets) return idx;
    const std::size_t shift = idx / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + idx % kSubBuckets;
    return sub << shift;
  }

  /// One past the largest value mapping to bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_ceil(std::size_t idx) noexcept {
    return bucket_floor(idx + 1);
  }

  /// Record one sample. Negative inputs (never produced by a correct
  /// simulation) clamp to 0 instead of indexing garbage.
  void record(std::int64_t signed_v) noexcept {
    const std::uint64_t v =
        signed_v < 0 ? 0 : static_cast<std::uint64_t>(signed_v);
    const auto idx = static_cast<std::uint32_t>(bucket_index(v));
    // Consecutive samples of a port mostly land in the same bucket, so the
    // last-hit one is checked before the search.
    if (hint_ >= buckets_.size() || buckets_[hint_].index != idx) {
      hint_ = find_or_insert(idx);
    }
    ++buckets_[hint_].count;
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// p in [0, 100]. Returns the midpoint of the bucket holding the p-th
  /// sample, clamped to the exact observed [min, max] -- so percentile(0)
  /// == min and percentile(100) == max despite bucket quantization.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    const double rank_f = p / 100.0 * static_cast<double>(count_);
    std::uint64_t rank = static_cast<std::uint64_t>(rank_f);
    if (rank >= count_) rank = count_ - 1;
    std::uint64_t seen = 0;
    for (const Bucket& b : buckets_) {
      seen += b.count;
      if (seen > rank) {
        const std::uint64_t lo = bucket_floor(b.index);
        const std::uint64_t mid = lo + (bucket_ceil(b.index) - lo) / 2;
        return std::clamp(mid, min_, max_);
      }
    }
    return max_;
  }

  /// q in [0, 1]. Like percentile() but interpolates linearly *within* the
  /// bucket holding the fractional rank q*count instead of returning the
  /// bucket midpoint -- buckets are log-spaced, so this is the standard
  /// HDR log-linear quantile estimate, with sub-bucket resolution on
  /// smooth distributions. Clamped to the exact observed [min, max];
  /// quantile(0) == min and quantile(1) == max.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return static_cast<double>(min_);
    if (q >= 1.0) return static_cast<double>(max_);
    const double rank = q * static_cast<double>(count_);  // in (0, count)
    double seen = 0.0;
    for (const Bucket& b : buckets_) {
      const double c = static_cast<double>(b.count);
      if (seen + c >= rank) {
        const double lo = static_cast<double>(bucket_floor(b.index));
        const double hi = static_cast<double>(bucket_ceil(b.index));
        const double v = lo + (rank - seen) / c * (hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

  /// (bucket_floor, count) for every non-empty bucket, ascending.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets()
      const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(buckets_.size());
    for (const Bucket& b : buckets_) {
      out.emplace_back(bucket_floor(b.index), b.count);
    }
    return out;
  }

 private:
  struct Bucket {
    std::uint32_t index;  ///< bucket_index() of the values counted
    std::uint64_t count;  ///< > 0
  };

  /// Position of the bucket with index `idx`, inserted (empty) if absent.
  std::uint32_t find_or_insert(std::uint32_t idx) {
    // Branch-free binary search for the last bucket with index <= idx:
    // sample buckets that miss the hint are unpredictable.
    std::size_t pos = 0;
    for (std::size_t n = buckets_.size(); n > 1;) {
      const std::size_t half = n / 2;
      pos = buckets_[pos + half].index <= idx ? pos + half : pos;
      n -= half;
    }
    if (buckets_.empty() || buckets_[pos].index != idx) {
      if (!buckets_.empty() && buckets_[pos].index < idx) ++pos;
      buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(pos),
                      Bucket{idx, 0});
    }
    return static_cast<std::uint32_t>(pos);
  }

  std::vector<Bucket> buckets_;  // non-empty buckets, ascending index
  std::uint32_t hint_ = 0;       // position of the last-hit bucket
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Plain-data copy of a registry at a point in time: what FctReport carries
/// and the exporters serialize. Named instruments keep their names, sorted
/// within each section. Port probes are kept as name-free records, one name
/// per port; their "port.<name>...." keys are made only by the walkers
/// below, which interleave them with the named instruments in the
/// document's key order. A snapshot parsed back from a document holds every
/// key in the named sections and no ports: both forms walk the same keys.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t sets = 0;
  };
  /// What the document reports of one histogram.
  struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  struct HistogramValue : HistogramSummary {
    std::string name;
  };
  /// One port probe, copied once: the cells and histograms the document
  /// reports under "port.<name>.".
  struct PortValue {
    struct Queue {  ///< "q<i>."
      std::uint64_t deq_packets = 0;
      std::uint64_t drop_packets = 0;
      std::uint64_t enq_packets = 0;
      HistogramSummary sojourn_ns;
    };
    std::string name;
    std::uint64_t drops_buffer = 0;  ///< summed over the queues
    std::uint64_t drops_fault = 0;
    std::uint64_t drops_sched = 0;
    std::uint64_t marks_dequeue = 0;  ///< summed over the queues
    std::uint64_t marks_enqueue = 0;  ///< summed over the queues
    HistogramSummary interdeq_gap_ns;
    HistogramSummary mark_sojourn_ns;
    std::vector<Queue> queues;  ///< by queue index
  };

  std::vector<CounterValue> counters;      ///< named, name-sorted
  std::vector<GaugeValue> gauges;          ///< name-sorted
  std::vector<HistogramValue> histograms;  ///< named, name-sorted
  /// In key order: by name + ".", so port "a-b" comes before port "a".
  std::vector<PortValue> ports;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           ports.empty();
  }

  /// Every counter, named and per port, in the document's key order.
  void for_each_counter(
      const std::function<void(std::string_view, std::uint64_t)>& f) const;
  /// Every histogram, named and per port, in the document's key order.
  void for_each_histogram(
      const std::function<void(std::string_view, const HistogramSummary&)>& f)
      const;
};

/// Name -> instrument map for one simulation run, plus the probes of the
/// ports built under it. Instruments are owned by the registry (map nodes
/// give stable addresses) and live until the registry dies, so handles
/// resolved at construction time stay valid for the whole run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name) { return find(counters_, name); }
  Gauge& gauge(std::string_view name) { return find(gauges_, name); }
  LogHistogram& histogram(std::string_view name) {
    return find(histograms_, name);
  }

  /// Named instruments (port probes not included).
  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Publish a port's probe: its cells and histograms appear in every
  /// snapshot under "port.<name>.". The probe must outlive every
  /// snapshot() call (the snapshots themselves hold copies).
  void attach(PortProbe& probe);

  /// Every instrument, and every port probe copied once.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// RAII scope installing this registry as the thread's publishing target,
  /// nesting exactly like net::PacketPool::Scope (inner shadows, destructor
  /// restores). Install it BEFORE building the topology so ports, markers
  /// and transports resolve their handles.
  class Scope {
   public:
    explicit Scope(MetricsRegistry& reg) noexcept : prev_(tls_slot()) {
      tls_slot() = &reg;
    }
    ~Scope() { tls_slot() = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MetricsRegistry* prev_;
  };

  /// Registry installed on this thread, or nullptr when metrics are off --
  /// the one branch instruments pay at construction time.
  [[nodiscard]] static MetricsRegistry* current() noexcept {
    return tls_slot();
  }

 private:
  template <typename T>
  T& find(std::map<std::string, T, std::less<>>& m, std::string_view name) {
    auto it = m.find(name);
    if (it == m.end()) it = m.emplace(std::string(name), T{}).first;
    return it->second;
  }

  static MetricsRegistry*& tls_slot() noexcept {
    static thread_local MetricsRegistry* current = nullptr;
    return current;
  }

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
  std::vector<const PortProbe*> ports_;
};

}  // namespace tcn::obs
