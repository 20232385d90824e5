// Hop-path equivalence test: whole experiments whose every observable output
// is pinned by digest in tests/golden/hop_path_digest.txt.
//
// Four scenarios x three seeds: a star under DWRR; a leaf-spine under
// SP-DWRR with PIAS; an open-loop leaf-spine under SP-PIFO with invariant
// checking, time-series sampling and metrics on; and a leaf-spine with a
// host-facing link outage plus Bernoulli loss. Each run records FNV-1a
// digests of its tcn-trace-1 stream, its tcn-series-1 JSONL and a summary
// line (FCTs, drops by class, marks, sim end, invariant and stability
// results), plus the number of events the simulator would execute without
// the receive-stack fold: events + packets delivered to hosts. A fifth,
// full-size run pins the metrics snapshot and series dump of the
// 12x12x12 fabric (tests/golden/fullsize_obs_digest.txt): the small
// fabrics keep port and queue indices to one digit.
//
// The pinned file was written by the tree before the fold existed (it ran
// one event per link arrival and one per receive-stack delay), so this test
// proves the fold changes nothing but the event count, and that it saves
// exactly one event per packet delivered to a host. To print the digests of
// the current tree in the file's format:
//
//   TCN_HOP_DIGEST_OUT=/tmp/hop_path_digest.txt ./build/tests/hop_path_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "obs/export.hpp"

namespace tcn {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Scenario {
  const char* name;
  std::vector<std::string> cli;
  bool small_leaf_spine;
};

// Small enough that all twelve runs take a few seconds.
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> defs = {
      {"star_dwrr",
       {"--topology", "star", "--sched", "dwrr", "--scheme", "tcn",
        "--transport", "dctcp", "--load", "0.7", "--flows", "40"},
       false},
      {"leafspine_spdwrr_pias",
       {"--topology", "leafspine", "--sched", "sp-dwrr", "--pias", "--scheme",
        "tcn", "--transport", "dctcp", "--load", "0.6", "--flows", "40",
        "--workload", "websearch,cache"},
       true},
      {"openloop_sppifo_obs",
       {"--topology", "leafspine", "--sched", "sp-pifo", "--scheme", "tcn",
        "--transport", "dctcp", "--load", "0.6", "--flows", "60",
        "--traffic",
        "poisson:web:websearch:0.7;mmpp:batch:datamining:0.3:-:4:0.25:10",
        "--check-invariants", "--sample-interval-us", "1000", "--sample-ring",
        "8"},
       true},
      {"leafspine_outage_loss",
       {"--topology", "leafspine", "--sched", "dwrr", "--scheme", "tcn",
        "--transport", "dctcp", "--load", "0.6", "--flows", "40", "--workload",
        "websearch,cache", "--faults",
        // Each seed has a packet propagating to a host when one of the
        // host links goes down; seeds 1 and 2 go down at its exact arrival
        // time. The leaf1 uplink outage makes ECMP steer around it.
        "linkdown:leaf0-h0:1.7995:3;linkdown:leaf0-h2:2.200652:3;"
        "linkdown:leaf0-h3:2.299467:3;linkdown:leaf1.p4:2.4:5;"
        "loss:leaf*:0.005",
        "--check-invariants",
        "--sample-interval-us", "200"},
       true},
  };
  return defs;
}

std::string summary_line(const core::FctReport& r) {
  const stats::FctSummary& s = r.summary;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "count=%zu avg=%.17g small=%zu avg_small=%.17g p99_small=%.17g "
      "large=%zu avg_large=%.17g timeouts=%llu small_timeouts=%llu "
      "started=%zu completed=%zu drops=%llu marks=%llu fault_drops=%llu "
      "sched_drops=%llu sim_end=%lld inv_events=%llu inv_violations=%llu "
      "series_channels=%llu series_ticks=%llu stab_channel=%s "
      "osc=%.17g soj_cv=%.17g burst=%.17g regime=%d trace_records=%llu",
      s.count, s.avg_all_us, s.small_count, s.avg_small_us, s.p99_small_us,
      s.large_count, s.avg_large_us,
      static_cast<unsigned long long>(s.timeouts),
      static_cast<unsigned long long>(s.small_timeouts), r.flows_started,
      r.flows_completed, static_cast<unsigned long long>(r.switch_drops),
      static_cast<unsigned long long>(r.switch_marks),
      static_cast<unsigned long long>(r.fault_drops),
      static_cast<unsigned long long>(r.sched_drops),
      static_cast<long long>(r.sim_end),
      static_cast<unsigned long long>(r.invariant_events),
      static_cast<unsigned long long>(r.invariant_violations),
      static_cast<unsigned long long>(r.series_channels),
      static_cast<unsigned long long>(r.series_ticks),
      r.stability_channel.c_str(), r.stability.oscillation_score,
      r.stability.sojourn_cv, r.stability.mark_burstiness,
      static_cast<int>(r.stability.regime),
      static_cast<unsigned long long>(r.trace_records));
  std::string line = buf;
  if (r.metrics_collected) line += obs::metrics_to_json(r.metrics);
  return line;
}

struct Digest {
  std::string trace, series, summary;
  std::uint64_t unfolded_events = 0;
};

Digest run_digest(const Scenario& sc, std::uint64_t seed) {
  std::vector<std::string> args = sc.cli;
  args.insert(args.end(), {"--seed", std::to_string(seed)});
  core::FctExperiment cfg = core::parse_cli(args);
  if (sc.small_leaf_spine) {
    cfg.leaf_spine.num_leaves = 4;
    cfg.leaf_spine.num_spines = 4;
    cfg.leaf_spine.hosts_per_leaf = 4;
  }
  cfg.collect_metrics = cfg.check_invariants;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tcn_hop_path_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  cfg.trace_out = (dir / "trace.jsonl").string();
  if (cfg.timeseries.enabled()) cfg.series_out = (dir / "series.jsonl").string();

  const core::FctReport r = core::run_fct_experiment(cfg);
  Digest d;
  d.trace = hex(fnv1a(read_file(cfg.trace_out)));
  d.series = cfg.series_out.empty()
                 ? std::string("-")
                 : hex(fnv1a(read_file(cfg.series_out)));
  d.summary = hex(fnv1a(summary_line(r)));
  // The fold saves exactly one event per packet delivered to a host.
  d.unfolded_events = r.events + r.host_deliveries;
  std::filesystem::remove_all(dir);
  return d;
}

std::string key(const Scenario& sc, std::uint64_t seed) {
  return std::string(sc.name) + " seed=" + std::to_string(seed);
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// key -> "trace=.. series=.. summary=.. events=N" from the pinned file.
std::map<std::string, std::string> load_pinned() {
  std::ifstream in(std::string(GOLDEN_DIR) + "/hop_path_digest.txt");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<scenario> seed=<n> trace=..."
    const auto sp1 = line.find(' ');
    const auto sp2 = line.find(' ', sp1 + 1);
    out[line.substr(0, sp2)] = line.substr(sp2 + 1);
  }
  return out;
}

std::string fields(const Digest& d) {
  return "trace=" + d.trace + " series=" + d.series + " summary=" + d.summary +
         " events=" + std::to_string(d.unfolded_events);
}

TEST(HopPath, OutputsMatchTheUnfoldedSimulator) {
  const char* out_path = std::getenv("TCN_HOP_DIGEST_OUT");
  std::string out =
      "# tcn hop-path digests: <scenario> seed=<n> trace=<fnv1a64 of the\n"
      "# tcn-trace-1 stream> series=<fnv1a64 of the tcn-series-1 JSONL, - when\n"
      "# sampling is off> summary=<fnv1a64 of the FCT/drop/mark/sim-end/\n"
      "# invariant/stability summary line> events=<events of the unfolded\n"
      "# simulator: one per link arrival and one per receive-stack delay>\n";
  const auto pinned = load_pinned();
  if (out_path == nullptr) {
    ASSERT_FALSE(pinned.empty());
  }
  for (const Scenario& sc : scenarios()) {
    for (const std::uint64_t seed : kSeeds) {
      const Digest d = run_digest(sc, seed);
      out += key(sc, seed) + " " + fields(d) + "\n";
      if (out_path != nullptr) continue;
      const auto it = pinned.find(key(sc, seed));
      ASSERT_NE(it, pinned.end()) << key(sc, seed);
      EXPECT_EQ(fields(d), it->second) << key(sc, seed);
    }
  }
  if (out_path != nullptr) obs::write_text_file(out_path, out);
}

// Full-size fabric: the 12x12x12 leaf-spine (two-digit leaf, spine, host
// and port indices) with 13 queues per switch port (PIAS + 12 services, so
// two-digit queue indices too), metrics and sampling on. Every metric and
// series channel name sorts bytewise -- "leaf0.p10" before "leaf0.p2",
// "h10" before "h2", "q10" before "q2" -- and the pinned digests, taken
// from the tree before the port probe existed, hold that order. To print
// the current tree's digests in the file's format, run the test with
// TCN_FULLSIZE_DIGEST_OUT=/tmp/fullsize_obs_digest.txt set:
//
//   ./build/tests/hop_path_test --gtest_filter='*FullSize*'
TEST(HopPath, FullSizeMetricsAndSeriesMatchThePinnedDigests) {
  core::FctExperiment cfg = core::parse_cli(
      {"--topology", "leafspine", "--sched", "sp-dwrr", "--pias",
       "--services", "12", "--scheme", "tcn", "--transport", "dctcp",
       "--load", "0.8", "--flows", "120", "--sample-interval-us", "1000",
       "--sample-ring", "4", "--seed", "1"});
  cfg.collect_metrics = true;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tcn_fullsize_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  cfg.series_out = (dir / "series.jsonl").string();
  const core::FctReport r = core::run_fct_experiment(cfg);
  const std::string line =
      "leafspine_12x12x12 seed=1 metrics=" +
      hex(fnv1a(obs::metrics_to_json(r.metrics))) +
      " series=" + hex(fnv1a(read_file(cfg.series_out))) + "\n";
  std::filesystem::remove_all(dir);

  if (const char* out_path = std::getenv("TCN_FULLSIZE_DIGEST_OUT")) {
    obs::write_text_file(
        out_path,
        "# tcn full-size obs digests: metrics=<fnv1a64 of the tcn-metrics-1\n"
        "# snapshot> series=<fnv1a64 of the tcn-series-1 JSONL>\n" +
            line);
    return;
  }
  std::ifstream in(std::string(GOLDEN_DIR) + "/fullsize_obs_digest.txt");
  std::string pinned;
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') pinned = l + "\n";
  }
  ASSERT_FALSE(pinned.empty());
  EXPECT_EQ(line, pinned);
}

}  // namespace
}  // namespace tcn
