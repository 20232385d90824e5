// Shared helpers for the figure-reproduction benches: the one CLI parser
// every fig*/ablation* binary uses, and the normalized-FCT table printer
// driven by the parallel sweep runner (src/runner). Every dynamic-workload
// figure is a scheme x load grid of independent core::FctExperiment runs,
// executed by runner::run_sweep across --jobs worker threads and aggregated
// by job index, so the printed tables and the optional BENCH_*.json are
// byte-identical for any job count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "traffic/spec.hpp"

namespace tcn::bench {

struct Args {
  std::size_t flows = 2000;
  std::vector<double> loads = {0.3, 0.5, 0.7, 0.9};
  std::uint64_t seed = 1;
  /// Worker threads for the sweep; 0 = one per hardware thread.
  std::size_t jobs = 0;
  /// Write structured results (schema tcn-bench-1) here; empty = no JSON,
  /// "-" = stdout.
  std::string json;
  /// Collect per-run metrics and write the merged tcn-metrics-1 document
  /// here; empty = observability off, "-" = stdout. Byte-identical for any
  /// --jobs (merge is by job index).
  std::string metrics_out;
  /// Fault-axis cells (--fault-grid) crossed into every figure grid.
  std::vector<std::pair<std::string, fault::FaultPlan>> fault_grid;
  /// Traffic-axis cells (--traffic-grid) crossed into every figure grid;
  /// "none" is the closed-loop baseline cell.
  std::vector<std::pair<std::string, traffic::TrafficSpec>> traffic_grid;
  /// What a failed run does to the sweep (--on-failure).
  runner::FailurePolicy on_failure = runner::FailurePolicy::kCancelAll;
  /// Max attempts per job; nonzero implies the retry policy (--retries).
  std::size_t retries = 0;
  /// tcn-journal-1 checkpoint path (--journal); empty = no journal.
  std::string journal;
  /// Journal to restore completed runs from (--resume); extends it in place
  /// unless --journal names a different file.
  std::string resume;

  static Args parse(int argc, char** argv, const Args& defaults) {
    Args a = defaults;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      try {
        if (flag == "--flows") {
          a.flows = core::to_u64(flag, next());
        } else if (flag == "--seed") {
          a.seed = core::to_u64(flag, next());
        } else if (flag == "--jobs") {
          a.jobs = core::to_u64(flag, next());
        } else if (flag == "--json") {
          a.json = next();
        } else if (flag == "--metrics-out") {
          a.metrics_out = next();
        } else if (flag == "--fault-grid") {
          a.fault_grid = fault::parse_fault_grid(next());
        } else if (flag == "--traffic-grid") {
          a.traffic_grid = traffic::parse_traffic_grid(next());
        } else if (flag == "--on-failure") {
          a.on_failure = runner::failure_policy_from_name(next());
        } else if (flag == "--retries") {
          a.retries = core::to_u64(flag, next());
          if (a.retries == 0) {
            std::fprintf(stderr, "--retries: must be >= 1\n");
            std::exit(2);
          }
          a.on_failure = runner::FailurePolicy::kRetry;
        } else if (flag == "--journal") {
          a.journal = next();
        } else if (flag == "--resume") {
          a.resume = next();
        } else if (flag == "--loads") {
          a.loads = core::to_double_list(flag, next());
        } else if (flag == "--help" || flag == "-h") {
          std::printf(
              "usage: %s [--flows N] [--loads l1,l2,...] [--seed S]\n"
              "          [--jobs N] [--json PATH] [--metrics-out PATH]\n"
              "          [--fault-grid c1|c2|...] [--traffic-grid "
              "c1|c2|...]\n"
              "          [--on-failure P]\n"
              "          [--retries N] [--journal PATH] [--resume PATH]\n"
              "  --jobs N    parallel sweep workers (0 = one per core; "
              "output\n"
              "              is byte-identical for any value)\n"
              "  --json PATH write per-run structured results (tcn-bench-1)\n"
              "  --metrics-out PATH\n"
              "              collect per-run observability metrics and "
              "write\n"
              "              the merged tcn-metrics-1 snapshot\n"
              "  --fault-grid c1|c2|...\n"
              "              sweep a fault axis; each cell is a --faults "
              "list\n"
              "              (\"none\" = fault-free)\n"
              "  --traffic-grid c1|c2|...\n"
              "              sweep an open-loop traffic axis; each cell is "
              "a\n"
              "              --traffic spec (\"none\" = closed loop)\n"
              "  --on-failure cancel_all|record_and_continue|retry\n"
              "  --retries N max attempts per job (implies retry policy)\n"
              "  --journal PATH\n"
              "              append a tcn-journal-1 checkpoint per "
              "completed\n"
              "              run (fsync'd; survives kill -9)\n"
              "  --resume PATH\n"
              "              restore completed runs from a journal, run "
              "the\n"
              "              rest; output is byte-identical to an\n"
              "              uninterrupted sweep\n",
              argv[0]);
          std::exit(0);
        } else {
          std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
          std::exit(2);
        }
      } catch (const std::exception& e) {
        // Every parser above names the flag (or its value) in the message.
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    }
    return a;
  }
};

struct SchemeRun {
  std::string name;
  core::Scheme scheme;
};

/// Progress printer for SweepOptions::on_done (stderr, completion order --
/// progress lines are the one output allowed to vary with --jobs).
inline runner::SweepOptions sweep_options(const Args& args) {
  runner::SweepOptions opt;
  opt.jobs = args.jobs;
  opt.failure_policy = args.on_failure;
  if (args.retries > 0) opt.retry.max_attempts = args.retries;
  opt.journal_out = args.journal;
  // --resume with no --journal extends the same journal in place, so a
  // sweep can be killed and resumed any number of times. Loading the
  // journal itself is the caller's job (the JournalData must outlive the
  // sweep).
  if (!args.resume.empty() && opt.journal_out.empty()) {
    opt.journal_out = args.resume;
  }
  opt.on_done = [](const runner::RunRecord& r) {
    if (r.skipped) return;
    if (!r.ok) {
      std::fprintf(stderr, "  [%s load=%.0f%%] FAILED: %s\n",
                   r.job.label.c_str(), r.job.cfg.load * 100,
                   r.error.c_str());
      return;
    }
    std::fprintf(stderr,
                 "  [%s load=%.0f%%] done (%zu/%zu flows, %.0f ms, "
                 "%.2fM ev/s)\n",
                 r.job.label.c_str(), r.job.cfg.load * 100,
                 r.report.flows_completed, r.job.cfg.num_flows, r.wall_ms,
                 r.events_per_sec / 1e6);
  };
  return opt;
}

/// Prints the figure's four normalized panels plus the timeout table from
/// sweep records laid out load-major then scheme (SweepSpec::expand order
/// with a single seed and flow count). `first` is the index of the slice's
/// first record inside `runs` (nonzero when several figures share one
/// suite-wide sweep).
inline void print_fct_tables(const char* title,
                             const std::vector<SchemeRun>& schemes,
                             const std::vector<double>& loads,
                             const std::vector<runner::RunRecord>& runs,
                             std::size_t first, std::size_t flows,
                             std::uint64_t seed) {
  std::printf("=== %s ===\n", title);
  std::printf("flows/run=%zu seed=%llu\n\n", flows,
              static_cast<unsigned long long>(seed));

  const std::size_t num_schemes = schemes.size();
  auto rec = [&](std::size_t li, std::size_t si) -> const runner::RunRecord& {
    return runs[first + li * num_schemes + si];
  };

  auto panel = [&](const char* name, auto metric) {
    std::printf("-- %s (normalized to %s; >1 means worse) --\n", name,
                schemes[0].name.c_str());
    std::printf("%6s", "load");
    for (const auto& s : schemes) std::printf(" %12s", s.name.c_str());
    std::printf(" %14s\n", (schemes[0].name + " (us)").c_str());
    for (std::size_t li = 0; li < loads.size(); ++li) {
      std::printf("%5.0f%%", loads[li] * 100);
      const double ref = metric(rec(li, 0).report.summary);
      for (std::size_t si = 0; si < num_schemes; ++si) {
        const double v = metric(rec(li, si).report.summary);
        if (ref > 0) {
          std::printf(" %12.3f", v / ref);
        } else {
          std::printf(" %12s", "-");
        }
      }
      std::printf(" %14.1f\n", ref);
    }
    std::printf("\n");
  };

  panel("overall avg FCT",
        [](const stats::FctSummary& s) { return s.avg_all_us; });
  panel("small flows (0,100KB] avg FCT",
        [](const stats::FctSummary& s) { return s.avg_small_us; });
  panel("small flows 99th percentile FCT",
        [](const stats::FctSummary& s) { return s.p99_small_us; });
  panel("large flows (10MB,inf) avg FCT",
        [](const stats::FctSummary& s) { return s.avg_large_us; });

  std::printf("-- TCP timeouts of small flows / switch drops --\n");
  std::printf("%6s", "load");
  for (const auto& s : schemes) std::printf(" %18s", s.name.c_str());
  std::printf("\n");
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::printf("%5.0f%%", loads[li] * 100);
    for (std::size_t si = 0; si < num_schemes; ++si) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu/%llu",
                    static_cast<unsigned long long>(
                        rec(li, si).report.summary.small_timeouts),
                    static_cast<unsigned long long>(
                        rec(li, si).report.switch_drops));
      std::printf(" %18s", buf);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Build the scheme x load SweepSpec a figure bench runs.
inline runner::SweepSpec fct_sweep_spec(const char* name,
                                        core::FctExperiment base,
                                        const std::vector<SchemeRun>& schemes,
                                        const Args& args) {
  base.num_flows = args.flows;
  base.seed = args.seed;
  base.collect_metrics = !args.metrics_out.empty();
  runner::SweepSpec spec;
  spec.name = name;
  spec.base = std::move(base);
  spec.loads = args.loads;
  spec.faults = args.fault_grid;
  spec.traffics = args.traffic_grid;
  for (const auto& s : schemes) spec.schemes.emplace_back(s.name, s.scheme);
  return spec;
}

/// Load the --resume journal into `data` and point `opt` at it (no-op when
/// --resume was not given). `data` must outlive the sweep. Exits with a
/// message on a missing or mismatched journal.
inline void apply_resume(const Args& args, const char* sweep_name,
                         runner::SweepOptions& opt,
                         runner::JournalData& data) {
  opt.journal_name = sweep_name;
  if (args.resume.empty()) return;
  try {
    data = runner::load_journal(args.resume);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--resume: %s\n", e.what());
    std::exit(2);
  }
  opt.resume = &data;
  std::fprintf(stderr, "%s: resuming from %s, %zu of %zu run(s) journaled%s\n",
               sweep_name, args.resume.c_str(), data.entries.size(),
               data.total_jobs,
               data.torn_tail ? " (torn tail dropped)" : "");
}

/// Runs `base` for every (scheme x load) across --jobs workers and prints
/// the figure's panels; writes BENCH json when --json was given. Returns an
/// exit code (nonzero when any run failed).
inline int run_fct_sweep(const char* name, const char* title,
                         core::FctExperiment base,
                         const std::vector<SchemeRun>& schemes,
                         const Args& args) {
  const auto spec = fct_sweep_spec(name, std::move(base), schemes, args);
  auto opt = sweep_options(args);
  runner::JournalData journal_data;
  apply_resume(args, name, opt, journal_data);
  const auto res = runner::run_sweep(spec, opt);
  if (!res.ok()) {
    std::fprintf(stderr, "%s: %zu run(s) failed, %zu skipped\n", name,
                 res.failed, res.skipped);
    // Still write the JSON: a failed sweep's partial trajectory (with its
    // per-run error kinds) is evidence.
    if (!args.json.empty()) runner::write_json_file(res, name, args.json);
    return 1;
  }
  // A fault or traffic axis changes the grid layout the table printers
  // assume (load-major then scheme); print tables only for the plain shape.
  if (args.fault_grid.empty() && args.traffic_grid.empty()) {
    print_fct_tables(title, schemes, args.loads, res.runs, 0, args.flows,
                     args.seed);
  }
  if (!args.json.empty()) runner::write_json_file(res, name, args.json);
  if (!args.metrics_out.empty()) {
    runner::write_metrics_file(res, name, args.metrics_out);
  }
  return 0;
}

/// Common testbed configuration (Sec. 6.1): 9 servers, 1GbE, base RTT 250us,
/// 96KB shared buffer per port, DCTCP with RTOmin 10ms. Standard thresholds:
/// K = 32KB, T = 256us; CoDel tuned to target 51.2us / interval 1024us.
inline core::FctExperiment testbed_base() {
  core::FctExperiment cfg;
  cfg.topology = core::FctExperiment::Topology::kStarConverge;
  cfg.star.num_hosts = 9;
  cfg.star.link_rate_bps = 1'000'000'000;
  cfg.star.buffer_bytes = 96'000;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = static_cast<sim::Time>(51.2 * sim::kMicrosecond);
  cfg.params.codel_interval = 1024 * sim::kMicrosecond;
  cfg.tcp.cc = transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 10;
  cfg.num_services = 4;
  cfg.service_workloads = {workload::Kind::kWebSearch};
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

/// Common large-scale configuration (Sec. 6.2): 144-host leaf-spine, 10G,
/// 300KB shared buffer, 8 queues, DCTCP (init window 16, RTOmin 5ms),
/// K = 65 packets ~= 97.5KB, T = 78us; 7 services cycling the 4 workloads.
inline core::FctExperiment leafspine_base() {
  core::FctExperiment cfg;
  cfg.topology = core::FctExperiment::Topology::kLeafSpine;
  cfg.leaf_spine = topo::LeafSpineConfig{};  // paper defaults
  cfg.params.rtt_lambda = 78 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 65 * 1'500;
  cfg.params.codel_target = static_cast<sim::Time>(17 * sim::kMicrosecond);
  cfg.params.codel_interval = 341 * sim::kMicrosecond;  // ~4x base RTT
  cfg.tcp.cc = transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 5 * sim::kMillisecond;
  cfg.tcp.rto_init = 5 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 16;
  cfg.num_services = 7;
  cfg.service_workloads = {workload::Kind::kWebSearch,
                           workload::Kind::kDataMining,
                           workload::Kind::kHadoop, workload::Kind::kCache};
  cfg.pias = true;
  // ns-2 convention: every flow is its own TCP connection.
  cfg.persistent_connections = false;
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

}  // namespace tcn::bench
