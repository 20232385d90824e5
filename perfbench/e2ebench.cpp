// e2ebench: whole-run benchmark for the TCN simulator.
//
// Every measured simulation is one core::run_fct_experiment call on one
// thread. perfbench/run.py spawns this binary once per measured run (so each
// run's peak RSS belongs to that run alone) and aggregates. Modes:
//
//   run    one untraced simulation: wall time, peak RSS, simulated digest
//   setup  the same config with a 1 ns simulated-time limit, repeated
//          in-process; median wall time of build + tear down
//   count  one simulation with a counting port observer: exact hop count
//   trace  per-layer numbers: untraced base runs interleaved with the obs
//          toggle, one traced run that captures a window of port events,
//          then isolated replays of that window through each layer's public
//          API (CalendarQueue, Port, Switch::receive, Scheduler, Marker)
//
// Every mode prints exactly one JSON object on stdout. Wall times are host
// time; FCTs, events, hops and every other count are simulated outputs and
// deterministic for a given workload, size and seed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/schemes.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/switch.hpp"
#include "net/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"

namespace {

using namespace tcn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

struct WorkloadDef {
  const char* name;
  std::vector<std::string> cli;  ///< tcnsim flags (core::parse_cli)
  std::size_t flows;             ///< flows per run at scale 1
  bool obs;                      ///< invariants + sampling + metrics on
};

// The flags are the public tcnsim surface, so each workload is also one
// reproducible `tcnsim` command line.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // Fig. 6 point: 9-host 1G star, DWRR x4, web search, persistent
      // connections; one bottleneck port does the queueing and marking.
      {"star_dwrr",
       {"--topology", "star", "--sched", "dwrr", "--scheme", "tcn",
        "--transport", "dctcp", "--load", "0.7"},
       1500,
       false},
      // Fig. 10 point: 144-host 10G leaf-spine, SP1/DWRR7 + PIAS, the four
      // workloads, one cold connection per flow.
      {"leafspine_spdwrr",
       {"--topology", "leafspine", "--sched", "sp-dwrr", "--pias", "--scheme",
        "tcn", "--transport", "dctcp", "--load", "0.6"},
       300,
       false},
      // Open-loop tenants through the traffic engine and FlowSlab, SP-PIFO,
      // with invariant checking, time-series sampling and metrics on.
      {"openloop_sppifo_obs",
       {"--topology", "leafspine", "--sched", "sp-pifo", "--scheme", "tcn",
        "--transport", "dctcp", "--load", "0.6", "--traffic",
        "poisson:web:websearch:0.7;mmpp:batch:datamining:0.3:-:4:0.25:10",
        "--check-invariants", "--sample-interval-us", "1000", "--sample-ring",
        "32"},
       2000,
       true},
  };
  return defs;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Set every obs layer (invariant checker, time-series sampler, metrics
/// registry) on or off through the public config.
void set_obs(core::FctExperiment& cfg, bool on) {
  cfg.check_invariants = on;
  cfg.timeseries.interval = on ? sim::kMillisecond : 0;
  cfg.timeseries.max_samples = 32;
  cfg.collect_metrics = on;
}

core::FctExperiment make_config(const WorkloadDef& w, std::uint64_t seed,
                                double scale) {
  std::vector<std::string> args = w.cli;
  const auto flows = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(w.flows) * scale));
  args.insert(args.end(), {"--flows", std::to_string(flows), "--seed",
                           std::to_string(seed)});
  core::FctExperiment cfg = core::parse_cli(args);
  set_obs(cfg, w.obs);
  return cfg;
}

/// Queue count the experiment configures on every switch port (mirrors
/// run_fct_experiment: strict queues ahead of the service queues).
core::SchedConfig port_sched(const core::FctExperiment& cfg) {
  const auto k = cfg.sched.kind;
  const bool hybrid =
      k == core::SchedKind::kSpDwrr || k == core::SchedKind::kSpWfq;
  const bool rank_priority =
      (k == core::SchedKind::kSpPifo || k == core::SchedKind::kAifo) &&
      cfg.sched.rank == core::RankProgram::kPriority;
  core::SchedConfig s = cfg.sched;
  s.num_queues = (hybrid || rank_priority ? cfg.sched.num_sp : 0) +
                 (cfg.num_service_queues > 0 ? cfg.num_service_queues
                                             : cfg.num_services);
  return s;
}

struct Fabric {
  topo::SchedulerFactory sched_factory;
  topo::MarkerFactory marker_factory;
};

Fabric fabric_factories(const core::FctExperiment& cfg) {
  return {core::make_scheduler_factory(port_sched(cfg)),
          core::make_marker_factory(cfg.scheme, cfg.params)};
}

topo::Network build_fabric(sim::Simulator& sim, const core::FctExperiment& cfg,
                           const Fabric& f) {
  const std::size_t queues = port_sched(cfg).num_queues;
  if (cfg.topology == core::FctExperiment::Topology::kStarConverge) {
    topo::StarConfig star = cfg.star;
    star.num_queues = queues;
    return topo::build_star(sim, star, f.sched_factory, f.marker_factory);
  }
  topo::LeafSpineConfig ls = cfg.leaf_spine;
  ls.num_queues = queues;
  return topo::build_leaf_spine(sim, ls, f.sched_factory, f.marker_factory);
}

// ------------------------------------------------------------------ output

class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(k, buf);
  }
  void u64(const std::string& k, std::uint64_t v) {
    add(k, std::to_string(v));
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + v + "\"");
  }
  void raw(const std::string& k, const std::string& v) { add(k, v); }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

/// FNV-1a over every simulated output a perf-only change must leave
/// identical: the FCT summary, flow counts, events, drops by class, marks
/// and the simulated end time.
std::string digest(const core::FctReport& r) {
  const auto& s = r.summary;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%zu %.17g %zu %.17g %.17g %zu %.17g %llu %llu | %zu %zu %llu "
                "%llu %llu %llu %llu %lld",
                s.count, s.avg_all_us, s.small_count, s.avg_small_us,
                s.p99_small_us, s.large_count, s.avg_large_us,
                static_cast<unsigned long long>(s.timeouts),
                static_cast<unsigned long long>(s.small_timeouts),
                r.flows_started, r.flows_completed,
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.switch_drops),
                static_cast<unsigned long long>(r.fault_drops),
                static_cast<unsigned long long>(r.sched_drops),
                static_cast<unsigned long long>(r.switch_marks),
                static_cast<long long>(r.sim_end));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = buf; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// The report fields every mode prints: digest plus the paper's headline
/// outputs (sim time) and the exact counts the digest covers.
void put_report(JsonOut& out, const core::FctReport& r) {
  out.str("digest", digest(r));
  out.u64("flows_started", r.flows_started);
  out.u64("flows_completed", r.flows_completed);
  out.u64("events", r.events);
  out.num("small_avg_fct_us", r.summary.avg_small_us);
  out.num("small_p99_fct_us", r.summary.p99_small_us);
  out.u64("timeouts", r.summary.timeouts);
  out.u64("marks", r.switch_marks);
  out.u64("drops_buffer", r.switch_drops);
  out.u64("drops_sched", r.sched_drops);
  out.u64("drops_fault", r.fault_drops);
  out.num("sim_end_s", static_cast<double>(r.sim_end) / 1e9);
}

/// Peak resident set of this process image in MiB: VmHWM, which exec
/// resets, so a freshly spawned process reports only its own peak (unlike
/// ru_maxrss, which keeps the spawning parent's high-water mark).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// --------------------------------------------------------- port observer

enum class Kind : std::uint8_t { kEnq, kDeq, kDrop, kSchedDrop, kFaultDrop };

/// One captured port event (enqueue/dequeue/drop), with the mark that
/// preceded it folded in.
struct Rec {
  sim::Time t;
  sim::Time sojourn;
  std::uint64_t flow;
  std::uint64_t seq;
  std::uint64_t queue_bytes;
  std::uint64_t port_bytes;
  std::uint32_t size;
  std::uint16_t port;
  std::uint8_t queue;
  std::uint8_t dscp;
  Kind kind;
  bool marked;
};

struct PortTally {
  std::string name;
  bool nic = false;
  std::uint64_t arrivals = 0;  ///< enqueues + every drop class
  std::uint64_t dequeues = 0;  ///< hops: packets leaving onto the link
  std::uint64_t drops = 0;
  std::uint64_t sched_drops = 0;
};

/// Counts hops per port over the whole run and keeps the first `cap` port
/// events (the same prefix of every port's stream) for the replays.
class CaptureObserver final : public net::PortObserver {
 public:
  explicit CaptureObserver(std::size_t cap) : cap_(cap) { recs_.reserve(cap); }

  void on_event(const net::TraceRecord& r) override {
    if (r.event == net::TraceEvent::kMark) {
      // A mark record immediately precedes its packet's enqueue/dequeue.
      pending_mark_ = true;
      return;
    }
    const std::uint16_t port = port_index(r.port);
    PortTally& tally = ports_[port];
    Kind kind = Kind::kEnq;
    switch (r.event) {
      case net::TraceEvent::kEnqueue:
        ++tally.arrivals;
        break;
      case net::TraceEvent::kDequeue:
        kind = Kind::kDeq;
        ++tally.dequeues;
        break;
      case net::TraceEvent::kDrop:
        kind = Kind::kDrop;
        ++tally.arrivals;
        ++tally.drops;
        break;
      case net::TraceEvent::kSchedDrop:
        kind = Kind::kSchedDrop;
        ++tally.arrivals;
        ++tally.sched_drops;
        break;
      case net::TraceEvent::kFaultDrop:
        kind = Kind::kFaultDrop;
        break;
      case net::TraceEvent::kMark:
        break;
    }
    if (recs_.size() < cap_) {
      recs_.push_back(Rec{r.t, r.sojourn, r.flow, r.seq, r.queue_bytes,
                          r.port_bytes, r.size, port,
                          static_cast<std::uint8_t>(r.queue), r.dscp, kind,
                          pending_mark_});
    }
    pending_mark_ = false;
  }

  [[nodiscard]] const std::vector<Rec>& recs() const { return recs_; }
  [[nodiscard]] const std::vector<PortTally>& ports() const { return ports_; }

 private:
  std::uint16_t port_index(std::string_view name) {
    // Port names live in the Port (stable storage for the whole run), so
    // the character pointer identifies the port.
    const auto it = index_.find(name.data());
    if (it != index_.end()) return it->second;
    const auto idx = static_cast<std::uint16_t>(ports_.size());
    index_.emplace(name.data(), idx);
    PortTally t;
    t.name = std::string(name);
    t.nic = t.name.ends_with(".nic");
    ports_.push_back(std::move(t));
    return idx;
  }

  std::size_t cap_;
  std::vector<Rec> recs_;
  std::vector<PortTally> ports_;
  std::unordered_map<const char*, std::uint16_t> index_;
  bool pending_mark_ = false;
};

// ------------------------------------------------------------------- spans

/// Spans kept in memory around the calls into each layer and printed with
/// the result when the mode ends; run.py nests them under the process span.
class Spans {
 public:
  /// Time `fn` inside a span named `name`.
  template <typename F>
  auto scoped(const std::string& name, F&& fn) {
    const std::size_t id = begin(name);
    auto result = fn();
    end(id);
    return result;
  }
  std::size_t begin(const std::string& name) {
    spans_.push_back({name, seconds_since(t0_), -1.0});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_[id].end = seconds_since(t0_); }

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (const Span& s : spans_) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                    out.size() > 1 ? ", " : "", s.name.c_str(), s.start, s.end);
      out += buf;
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
  };
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------- modes

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  std::size_t reps = 1;    ///< sample: timed runs; setup: max set-ups
  double budget_s = 1.0;   ///< setup: stop after this much wall time
};

/// Trace mode: untraced base runs (each paired with an obs-toggled run),
/// and the port events kept for the replays (the first ones of the run;
/// ~56 B each).
constexpr std::size_t kBaseReps = 3;
constexpr std::size_t kCaptureCap = 400'000;

core::FctReport timed_run(const core::FctExperiment& cfg, double& wall) {
  const auto t0 = Clock::now();
  core::FctReport r = core::run_fct_experiment(cfg);
  wall = seconds_since(t0);
  return r;
}

int mode_setup(const Args& a) {
  auto cfg = make_config(find_workload(a.workload), a.seed, a.scale);
  cfg.time_limit = 1;  // build, arm, stop after 1 ns, tear down
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < a.reps &&
         (samples.size() < 5 || seconds_since(start) < a.budget_s)) {
    double wall = 0.0;
    (void)timed_run(cfg, wall);
    samples.push_back(wall);
  }
  JsonOut out;
  out.num("setup_s", median(samples));
  out.u64("reps", samples.size());
  out.print();
  return 0;
}

struct HopCounts {
  std::uint64_t hops = 0, switch_hops = 0, nic_hops = 0;
  std::uint64_t switch_arrivals = 0, switch_enqueues = 0;
  std::uint64_t drops = 0, sched_drops = 0;
};

HopCounts tally(const CaptureObserver& obs) {
  HopCounts h;
  for (const auto& p : obs.ports()) {
    h.hops += p.dequeues;
    (p.nic ? h.nic_hops : h.switch_hops) += p.dequeues;
    if (!p.nic) {
      h.switch_arrivals += p.arrivals;
      h.switch_enqueues += p.arrivals - p.drops - p.sched_drops;
    }
    h.drops += p.drops;
    h.sched_drops += p.sched_drops;
  }
  return h;
}

int mode_sample(const Args& a) {
  auto cfg = make_config(find_workload(a.workload), a.seed, a.scale);
  // The first timed run alone sets the peak RSS; the repeats add timing
  // samples of the same input.
  std::vector<double> walls(1);
  const core::FctReport r = timed_run(cfg, walls[0]);
  const double rss = peak_rss_mb();
  bool agree = true;
  for (std::size_t i = 1; i < a.reps; ++i) {
    walls.push_back(0.0);
    agree = agree && digest(timed_run(cfg, walls.back())) == digest(r);
  }
  // The hop count (and the traced-vs-untraced digest check) come from one
  // more, observed run of the same config after the measurement.
  CaptureObserver obs(0);
  cfg.extra_observer = &obs;
  agree = agree && digest(core::run_fct_experiment(cfg)) == digest(r);
  JsonOut out;
  std::string list;
  for (const double w : walls) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.9g", list.empty() ? "" : ", ", w);
    list += buf;
  }
  out.raw("walls_s", "[" + list + "]");
  out.num("peak_rss_mb", rss);
  out.u64("hops", tally(obs).hops);
  out.u64("digests_agree", agree ? 1 : 0);
  put_report(out, r);
  out.print();
  return 0;
}

// ----------------------------------------------------------------- replays

/// Static facts about every port in the capture, from a fabric built with
/// the workload's own topo::build_* call.
struct PortInfo {
  net::PortConfig cfg;
  bool nic = false;
  int host = -1;         ///< NIC: owning host; switch port: host it faces
  int switch_idx = -1;   ///< switch ports only
};

std::vector<PortInfo> port_infos(const core::FctExperiment& cfg,
                                 const Fabric& f,
                                 const std::vector<PortTally>& tallies) {
  sim::Simulator sim;
  topo::Network net = build_fabric(sim, cfg, f);
  std::map<std::string, PortInfo, std::less<>> by_name;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto& nic = net.host(h).nic();
    by_name[nic.name()] = PortInfo{nic.config(), true, static_cast<int>(h), -1};
  }
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    auto& sw = net.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      auto& port = sw.port(p);
      const auto* host = dynamic_cast<const net::Host*>(port.peer());
      by_name[port.name()] =
          PortInfo{port.config(), false,
                   host != nullptr ? static_cast<int>(host->address()) : -1,
                   static_cast<int>(s)};
    }
  }
  std::vector<PortInfo> out;
  for (const auto& t : tallies) {
    const auto it = by_name.find(t.name);
    if (it == by_name.end()) {
      throw std::runtime_error("capture names unknown port " + t.name);
    }
    out.push_back(it->second);
  }
  return out;
}

std::uint64_t effective_rate(const net::PortConfig& c) {
  return static_cast<std::uint64_t>(static_cast<double>(c.rate_bps) *
                                    c.rate_limit_fraction);
}

bool is_data(const Rec& r) { return r.size > net::kHeaderBytes; }

net::PacketPtr make_packet_from(const Rec& r, bool ect) {
  net::PacketPtr p = net::make_packet();
  p->type = is_data(r) ? net::PacketType::kData : net::PacketType::kAck;
  p->flow = r.flow;
  p->seq = r.seq;
  p->size = r.size;
  p->payload = is_data(r) ? r.size - net::kHeaderBytes : 0;
  p->dscp = r.dscp;
  p->ecn = ect ? net::Ecn::kEct0 : net::Ecn::kNotEct;
  return p;
}

template <typename F>
double median_time(std::size_t reps, F&& once) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reps; ++i) v.push_back(once());
  return median(v);
}

struct SchedReplay {
  double ns_per_packet = 0.0;
  double match_share = 0.0;
};

/// Drive admit/on_enqueue/select/on_dequeue of a fresh scheduler per switch
/// port over the captured stream; select must reproduce the recorded queue.
SchedReplay replay_sched(const std::vector<Rec>& recs,
                         const std::vector<PortInfo>& info, const Fabric& f) {
  SchedReplay out;
  std::uint64_t selects = 0, matches = 0, packets = 0;
  const double secs = median_time(3, [&] {
    net::PacketPool pool;
    net::PacketPool::Scope scope(pool);
    struct State {
      std::unique_ptr<net::Scheduler> sched;
      std::vector<net::PacketQueue> queues;
      std::uint64_t bytes = 0;
    };
    std::vector<State> ports(info.size());
    for (std::size_t i = 0; i < info.size(); ++i) {
      if (info[i].nic) continue;
      ports[i].sched = f.sched_factory();
      ports[i].queues =
          std::vector<net::PacketQueue>(info[i].cfg.num_queues);
      ports[i].sched->bind(&ports[i].queues, effective_rate(info[i].cfg));
    }
    selects = matches = packets = 0;
    const auto t0 = Clock::now();
    for (const Rec& r : recs) {
      State& st = ports[r.port];
      if (!st.sched) continue;
      const std::uint64_t limit = info[r.port].cfg.buffer_bytes;
      switch (r.kind) {
        case Kind::kEnq: {
          net::PacketPtr p = make_packet_from(r, false);
          (void)st.sched->admit(r.queue, *p, r.t, st.bytes, limit);
          net::Packet& ref = *p;
          st.bytes += r.size;
          st.queues[r.queue].push(std::move(p));
          st.sched->on_enqueue(r.queue, ref, r.t);
          ++packets;
          break;
        }
        case Kind::kSchedDrop: {
          net::PacketPtr p = make_packet_from(r, false);
          (void)st.sched->admit(r.queue, *p, r.t, st.bytes, limit);
          ++packets;
          break;
        }
        case Kind::kDeq: {
          ++selects;
          if (st.sched->select(r.t) == r.queue) ++matches;
          // Follow the recorded queue; an empty one means the stream and
          // the replay diverged, which the match share already shows.
          if (st.queues[r.queue].empty()) break;
          net::PacketPtr p = st.queues[r.queue].pop();
          st.bytes -= p->size;
          st.sched->on_dequeue(r.queue, *p, r.t);
          break;
        }
        default:
          break;
      }
    }
    return seconds_since(t0);
  });
  out.ns_per_packet = packets > 0 ? secs * 1e9 / static_cast<double>(packets)
                                  : 0.0;
  out.match_share = selects > 0 ? static_cast<double>(matches) /
                                      static_cast<double>(selects)
                                : 1.0;
  return out;
}

struct AqmReplay {
  double ns_per_decision = 0.0;
  double match_share = 0.0;
};

/// Replay every marker decision (enqueue and dequeue side) at the switch
/// ports with the recorded occupancies and sojourns. A packet is markable
/// when it is data and not already CE from an earlier hop; a retransmission
/// leaving a NIC is a fresh ECT packet. Replayed decision && markable must
/// equal the recorded mark.
AqmReplay replay_aqm(const std::vector<Rec>& recs,
                     const std::vector<PortInfo>& info, const Fabric& f) {
  struct Decision {
    const Rec* rec;
    bool ect;
  };
  // ECT inference (untimed): CE state per in-flight (flow, seq, size).
  std::vector<Decision> decisions;
  {
    struct KeyHash {
      std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
          const noexcept {
        return std::hash<std::uint64_t>{}(k.first * 0x9e3779b97f4a7c15ULL ^
                                          k.second);
      }
    };
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, KeyHash> ce;
    for (const Rec& r : recs) {
      const std::pair<std::uint64_t, std::uint64_t> key{
          r.flow, (r.seq << 16) ^ r.size};
      if (info[r.port].nic) {
        if (r.kind == Kind::kDeq && is_data(r)) ce.erase(key);
        continue;
      }
      if (r.kind != Kind::kEnq && r.kind != Kind::kDeq) continue;
      const bool ect = is_data(r) && ce.count(key) == 0;
      decisions.push_back({&r, ect});
      if (r.marked) ce.insert(key);
    }
  }
  std::vector<std::unique_ptr<net::Scheduler>> scheds(info.size());
  std::vector<std::unique_ptr<net::Marker>> markers(info.size());
  std::uint64_t matches = 0;
  const double secs = median_time(3, [&] {
    for (std::size_t i = 0; i < info.size(); ++i) {
      if (info[i].nic) continue;
      scheds[i] = f.sched_factory();
      markers[i] = f.marker_factory(*scheds[i], info[i].cfg);
    }
    matches = 0;
    net::Packet pkt;
    const auto t0 = Clock::now();
    for (const Decision& d : decisions) {
      const Rec& r = *d.rec;
      const net::MarkContext ctx{.now = r.t,
                                 .queue = r.queue,
                                 .queue_bytes = r.queue_bytes,
                                 .port_bytes = r.port_bytes,
                                 .link_rate_bps =
                                     effective_rate(info[r.port].cfg)};
      pkt.flow = r.flow;
      pkt.seq = r.seq;
      pkt.size = r.size;
      pkt.dscp = r.dscp;
      pkt.ecn = d.ect ? net::Ecn::kEct0 : net::Ecn::kNotEct;
      pkt.enqueue_ts = r.t - r.sojourn;
      net::Marker& m = *markers[r.port];
      const bool mark =
          r.kind == Kind::kEnq ? m.on_enqueue(ctx, pkt) : m.on_dequeue(ctx, pkt);
      if ((mark && d.ect) == r.marked) ++matches;
    }
    return seconds_since(t0);
  });
  AqmReplay out;
  const double n = static_cast<double>(decisions.size());
  out.ns_per_decision = n > 0 ? secs * 1e9 / n : 0.0;
  out.match_share = n > 0 ? static_cast<double>(matches) / n : 1.0;
  return out;
}

/// Sink at the far end of a replayed port's link.
class SinkNode final : public net::Node {
 public:
  void receive(net::PacketPtr, std::size_t) override {}
  [[nodiscard]] std::string_view name() const override { return "sink"; }
};

/// Feed the busiest switch port's captured arrivals, at their recorded
/// times, into a standalone net::Port on its own simulator.
double replay_port(const std::vector<Rec>& recs,
                   const std::vector<PortInfo>& info,
                   const std::vector<PortTally>& tallies, const Fabric& f) {
  std::size_t busiest = info.size();
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (info[i].nic) continue;
    if (busiest == info.size() ||
        tallies[i].dequeues > tallies[busiest].dequeues) {
      busiest = i;
    }
  }
  std::vector<const Rec*> arrivals;
  for (const Rec& r : recs) {
    if (r.port == busiest && r.kind != Kind::kDeq && r.kind != Kind::kFaultDrop) {
      arrivals.push_back(&r);
    }
  }
  if (arrivals.empty()) return 0.0;
  const double secs = median_time(3, [&] {
    net::PacketPool pool;
    net::PacketPool::Scope scope(pool);
    sim::Simulator sim;
    const net::PortConfig& pc = info[busiest].cfg;
    auto sched = f.sched_factory();
    auto marker = f.marker_factory(*sched, pc);
    net::Port port(sim, "replay", pc, std::move(sched), std::move(marker));
    SinkNode sink;
    port.connect(&sink, 0);
    // Each arrival schedules the next, so the pending set holds only the
    // port's own events plus one arrival -- the port in isolation.
    struct Feeder {
      sim::Simulator& sim;
      net::Port& port;
      const std::vector<const Rec*>& arrivals;
      std::size_t next = 0;
      void arm() {
        sim.schedule_at(arrivals[next]->t, [this] { arrive(); });
      }
      void arrive() {
        const Rec& r = *arrivals[next];
        port.enqueue(make_packet_from(r, is_data(r)), r.queue);
        if (++next < arrivals.size()) arm();
      }
    } feeder{sim, port, arrivals};
    feeder.arm();
    const auto t0 = Clock::now();
    sim.run();
    return seconds_since(t0);
  });
  return secs * 1e9 / static_cast<double>(arrivals.size());
}

/// Call Switch::receive on a fresh topo::build_* fabric with the captured
/// switch arrivals (destination, size, class); egress links are left
/// unconnected and the simulator drains the ports between batches outside
/// the timed region. The time includes the egress Port::enqueue.
double replay_switch(const std::vector<Rec>& recs,
                     const std::vector<PortInfo>& info,
                     const core::FctExperiment& cfg, const Fabric& f) {
  // Flow endpoints from the capture: data leaves its source's NIC and
  // reaches the destination's host-facing port; ACKs the reverse.
  std::unordered_map<std::uint64_t, int> src, dst;
  for (const Rec& r : recs) {
    const PortInfo& pi = info[r.port];
    if (pi.host < 0) continue;
    if (pi.nic && r.kind == Kind::kDeq) {
      (is_data(r) ? src : dst)[r.flow] = pi.host;
    } else if (!pi.nic && r.kind == Kind::kEnq) {
      (is_data(r) ? dst : src)[r.flow] = pi.host;
    }
  }
  struct Arrival {
    const Rec* rec;
    std::uint32_t src, dst;
  };
  std::vector<Arrival> arrivals;
  for (const Rec& r : recs) {
    const PortInfo& pi = info[r.port];
    if (pi.nic || r.kind == Kind::kDeq || r.kind == Kind::kFaultDrop) continue;
    const auto s = src.find(r.flow);
    const auto d = dst.find(r.flow);
    if (s == src.end() || d == dst.end()) continue;
    const bool data = is_data(r);
    arrivals.push_back({&r, static_cast<std::uint32_t>(data ? s->second : d->second),
                        static_cast<std::uint32_t>(data ? d->second : s->second)});
  }
  if (arrivals.empty()) return 0.0;
  constexpr std::size_t kBatch = 64;
  const double secs = median_time(3, [&] {
    net::PacketPool pool;
    net::PacketPool::Scope scope(pool);
    sim::Simulator sim;
    topo::Network net = build_fabric(sim, cfg, f);
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      auto& sw = net.switch_at(s);
      for (std::size_t p = 0; p < sw.num_ports(); ++p) sw.connect(p, nullptr, 0);
    }
    double timed = 0.0;
    for (std::size_t b = 0; b < arrivals.size(); b += kBatch) {
      const std::size_t end = std::min(arrivals.size(), b + kBatch);
      sim.run(arrivals[b].rec->t);
      const auto t0 = Clock::now();
      for (std::size_t i = b; i < end; ++i) {
        const Arrival& a = arrivals[i];
        net::PacketPtr p = make_packet_from(*a.rec, is_data(*a.rec));
        p->src = a.src;
        p->dst = a.dst;
        p->sport = static_cast<std::uint16_t>(1024 + (a.rec->flow & 0x7fff));
        p->dport = 80;
        net.switch_at(static_cast<std::size_t>(info[a.rec->port].switch_idx))
            .receive(std::move(p), 0);
      }
      timed += seconds_since(t0);
    }
    return timed;
  });
  return secs * 1e9 / static_cast<double>(arrivals.size());
}

/// Replay the captured hops through a sim::CalendarQueue: each dequeue
/// pushes its serialization-done and link-arrival at their real times and
/// the next dequeue at its recorded time. Re-armed timer entries (the RTO
/// population of the real run) top the queue up to the run's peak pending
/// depth. Returns ns per pop.
double replay_calendar(const std::vector<Rec>& recs,
                       const std::vector<PortInfo>& info,
                       std::uint64_t peak_pending, sim::Time rto) {
  struct Hop {
    sim::Time t, tx, prop;
  };
  std::vector<Hop> hops;
  for (const Rec& r : recs) {
    if (r.kind != Kind::kDeq) continue;
    const auto& c = info[r.port].cfg;
    hops.push_back({r.t, sim::transmission_time(r.size, effective_rate(c)),
                    c.prop_delay});
  }
  if (hops.empty()) return 0.0;
  const sim::Time t_end = hops.back().t;
  enum : std::uint32_t { kDequeue, kTxDone, kArrive, kTimer };
  // One pass; with `timers` > 0 the timer population rides along. Returns
  // (pops, peak depth, seconds).
  struct Pass {
    std::uint64_t pops;
    std::size_t peak;
    double secs;
  };
  const auto pass = [&](std::size_t timers) {
    sim::CalendarQueue q;
    std::uint64_t seq = 1;
    // The queue orders by (at, seq) only and never reads slot/gen, so they
    // carry the hop index and the event kind.
    const auto push = [&](sim::Time at, std::uint32_t kind, std::uint32_t idx) {
      q.push(sim::EventEntry{at, seq++, idx, kind});
    };
    for (std::size_t i = 0; i < timers; ++i) {
      push(hops.front().t + rto * static_cast<sim::Time>(i) /
                                static_cast<sim::Time>(timers),
           kTimer, 0);
    }
    push(hops.front().t, kDequeue, 0);
    Pass p{0, 0, 0.0};
    const auto t0 = Clock::now();
    while (q.peek() != nullptr) {
      p.peak = std::max(p.peak, q.size());
      const sim::EventEntry e = q.pop();
      ++p.pops;
      if (e.gen == kDequeue) {
        const Hop& h = hops[e.slot];
        push(h.t + h.tx, kTxDone, e.slot);
        push(h.t + h.tx + h.prop, kArrive, e.slot);
        if (e.slot + 1 < hops.size()) push(hops[e.slot + 1].t, kDequeue, e.slot + 1);
      } else if (e.gen == kTimer && e.at < t_end) {
        push(e.at + rto, kTimer, 0);
      }
    }
    p.secs = seconds_since(t0);
    return p;
  };
  const Pass dry = pass(0);
  const std::size_t timers =
      peak_pending > dry.peak ? static_cast<std::size_t>(peak_pending - dry.peak)
                              : 0;
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    const Pass p = pass(timers);
    ns.push_back(p.secs * 1e9 / static_cast<double>(p.pops));
  }
  return median(ns);
}

std::uint64_t counter_sum(const obs::MetricsSnapshot& m, std::string_view prefix,
                          std::string_view suffix) {
  std::uint64_t sum = 0;
  for (const auto& c : m.counters) {
    if (c.name.starts_with(prefix) && c.name.ends_with(suffix)) sum += c.value;
  }
  return sum;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

int mode_trace(const Args& a) {
  const WorkloadDef& w = find_workload(a.workload);
  const core::FctExperiment base = make_config(w, a.seed, a.scale);
  core::FctExperiment toggled = base;
  set_obs(toggled, !w.obs);
  Spans spans;

  // Untraced base runs interleaved with the obs toggle (ABAB), so both
  // medians see the same host conditions.
  std::vector<double> base_walls, toggled_walls;
  std::string base_digest;
  bool consistent = true;
  for (std::size_t i = 0; i < kBaseReps; ++i) {
    double wall = 0.0;
    const std::string d =
        spans.scoped("run", [&] { return digest(timed_run(base, wall)); });
    if (base_digest.empty()) base_digest = d;
    consistent = consistent && d == base_digest;
    base_walls.push_back(wall);
    spans.scoped("run.obs_toggled",
                 [&] { return timed_run(toggled, wall).events; });
    toggled_walls.push_back(wall);
  }
  const double untraced_s = median(base_walls);
  const double obs_on_s = w.obs ? untraced_s : median(toggled_walls);
  const double obs_off_s = w.obs ? median(toggled_walls) : untraced_s;

  // The traced run: capture observer + metrics registry.
  CaptureObserver capture(kCaptureCap);
  core::FctExperiment traced = base;
  traced.extra_observer = &capture;
  traced.collect_metrics = true;
  double traced_s = 0.0;
  const core::FctReport r = spans.scoped(
      "run.traced", [&] { return timed_run(traced, traced_s); });
  consistent = consistent && digest(r) == base_digest;

  const Fabric fab = fabric_factories(base);
  const double build_s = median_time(20, [&] {
    sim::Simulator sim;
    const std::size_t id = spans.begin("topo.build");
    const auto t0 = Clock::now();
    topo::Network net = build_fabric(sim, base, fab);
    const double secs = seconds_since(t0);
    spans.end(id);
    return secs;
  });

  const HopCounts hc = tally(capture);
  const auto info = port_infos(base, fab, capture.ports());
  const auto& recs = capture.recs();
  const SchedReplay sr = spans.scoped(
      "sched.replay", [&] { return replay_sched(recs, info, fab); });
  const AqmReplay ar = spans.scoped(
      "aqm.replay", [&] { return replay_aqm(recs, info, fab); });
  const double port_ns = spans.scoped("net.port.replay", [&] {
    return replay_port(recs, info, capture.ports(), fab);
  });
  const double switch_ns = spans.scoped("net.switch.replay", [&] {
    return replay_switch(recs, info, base, fab);
  });
  const double cal_ns = spans.scoped("sim.replay", [&] {
    return replay_calendar(recs, info, r.sim_peak_pending, base.tcp.rto_min);
  });

  const obs::MetricsSnapshot& m = r.metrics;
  const std::uint64_t aqm_evals = counter_sum(m, "aqm.", ".evals");
  const double events = static_cast<double>(r.events);
  const double hops = static_cast<double>(hc.hops);

  JsonOut out;
  out.str("digest", digest(r));
  out.u64("consistent", consistent ? 1 : 0);
  out.u64("flows_started", r.flows_started);
  out.u64("flows_completed", r.flows_completed);
  out.u64("captured", recs.size());
  out.u64("sim.events", r.events);
  out.num("sim.events_per_hop", share(events, hops));
  out.num("sim.events_per_s", share(events, untraced_s));
  out.u64("sim.peak_pending", r.sim_peak_pending);
  out.u64("sim.calendar_resizes", r.sim_calendar_resizes);
  out.num("sim.replay_ns_per_event", cal_ns);
  out.u64("net.hops", hc.hops);
  out.u64("net.switch_hops", hc.switch_hops);
  out.u64("net.nic_hops", hc.nic_hops);
  out.u64("net.pool_fresh", r.pool_fresh);
  out.num("net.pool_reuse_share",
          share(static_cast<double>(r.pool_reused),
                static_cast<double>(r.pool_fresh + r.pool_reused)));
  out.u64("net.drops_buffer", hc.drops);
  out.u64("net.drops_sched", hc.sched_drops);
  out.num("net.port.replay_ns_per_packet", port_ns);
  out.num("net.switch.replay_ns_per_receive", switch_ns);
  out.num("sched.replay_ns_per_packet", sr.ns_per_packet);
  out.num("sched.replay_match_share", sr.match_share);
  out.u64("aqm.evals", aqm_evals);
  out.u64("aqm.marks", r.switch_marks);
  out.num("aqm.mark_share", share(static_cast<double>(r.switch_marks), hops));
  out.num("aqm.replay_ns_per_decision", ar.ns_per_decision);
  out.num("aqm.replay_match_share", ar.match_share);
  out.u64("transport.flows_started", r.flows_started);
  out.u64("transport.flows_completed", r.flows_completed);
  out.u64("transport.timeouts", counter_sum(m, "tcp.timeouts", ""));
  out.u64("transport.fast_recoveries",
          counter_sum(m, "tcp.fast_recoveries", ""));
  out.u64("transport.cwnd_reductions",
          counter_sum(m, "tcp.cwnd_reductions", ""));
  out.u64("traffic.arrivals", r.traffic_arrivals);
  out.u64("traffic.active_peak", r.traffic_active_peak);
  out.num("traffic.slab_reuse_share",
          share(static_cast<double>(r.slab_reused),
                static_cast<double>(r.slab_fresh + r.slab_reused)));
  out.num("topo.build_s", build_s);
  out.u64("obs.invariant_events", r.invariant_events);
  out.u64("obs.series_ticks", r.series_ticks);
  out.num("obs.overhead_share", share(obs_on_s - obs_off_s, obs_off_s));
  out.num("obs.off_run_s", obs_off_s);
  out.num("obs.on_run_s", obs_on_s);
  out.num("bench.trace_overhead_share", share(traced_s - untraced_s, untraced_s));
  out.num("bench.untraced_run_s", untraced_s);
  out.num("bench.traced_run_s", traced_s);
  // Isolated-replay estimate of where the run's wall time goes. The
  // switch term includes the egress enqueue, so the sum may overlap.
  const double attributed_ns =
      events * cal_ns +
      static_cast<double>(hc.switch_arrivals) * switch_ns +
      static_cast<double>(hc.switch_enqueues) * sr.ns_per_packet +
      static_cast<double>(aqm_evals) * ar.ns_per_decision;
  out.num("bench.attributed_share", share(attributed_ns * 1e-9, untraced_s));
  out.num("bench.flows_per_s",
          share(static_cast<double>(r.flows_completed), untraced_s));
  out.raw("spans", spans.json());
  out.print();
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: e2ebench MODE [flags]");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--scale") {
      a.scale = std::stod(v);
    } else if (flag == "--reps") {
      a.reps = std::stoull(v);
    } else if (flag == "--budget-s") {
      a.budget_s = std::stod(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "sample") return mode_sample(a);
    if (a.mode == "setup") return mode_setup(a);
    if (a.mode == "trace") return mode_trace(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
