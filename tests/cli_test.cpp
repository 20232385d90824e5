// Tests for the tcnsim command-line parser: defaults per topology, flag
// handling, derived parameters, and error messages.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"

namespace tcn::core {
namespace {

FctExperiment parse(std::initializer_list<const char*> args) {
  return parse_cli(std::vector<std::string>(args.begin(), args.end()));
}

TEST(Cli, StarDefaultsMatchTestbed) {
  const auto cfg = parse({});
  EXPECT_EQ(cfg.topology, FctExperiment::Topology::kStarConverge);
  EXPECT_EQ(cfg.scheme, Scheme::kTcn);
  EXPECT_EQ(cfg.sched.kind, SchedKind::kDwrr);
  EXPECT_EQ(cfg.params.rtt_lambda, 256 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.red_threshold_bytes, 32'000u);
  EXPECT_EQ(cfg.tcp.rto_min, 10 * sim::kMillisecond);
  EXPECT_EQ(cfg.num_services, 4u);
  EXPECT_TRUE(cfg.persistent_connections);
  EXPECT_EQ(cfg.star.num_hosts, 9u);
}

TEST(Cli, LeafSpineDefaultsMatchSimulation) {
  const auto cfg = parse({"--topology", "leafspine"});
  EXPECT_EQ(cfg.topology, FctExperiment::Topology::kLeafSpine);
  EXPECT_EQ(cfg.params.rtt_lambda, 78 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.red_threshold_bytes, 65u * 1'500u);
  EXPECT_EQ(cfg.tcp.rto_min, 5 * sim::kMillisecond);
  EXPECT_EQ(cfg.tcp.init_cwnd_pkts, 16u);
  EXPECT_EQ(cfg.num_services, 7u);
  EXPECT_EQ(cfg.service_workloads.size(), 4u);
  EXPECT_FALSE(cfg.persistent_connections);
}

TEST(Cli, SchemeAndSchedulerNames) {
  EXPECT_EQ(parse_scheme("tcn"), Scheme::kTcn);
  EXPECT_EQ(parse_scheme("mq-ecn"), Scheme::kMqEcn);
  EXPECT_EQ(parse_scheme("red-dequeue"), Scheme::kRedDequeue);
  EXPECT_THROW(parse_scheme("wat"), std::invalid_argument);
  EXPECT_EQ(parse_sched("sp-wfq"), SchedKind::kSpWfq);
  EXPECT_EQ(parse_sched("pifo"), SchedKind::kPifoStfq);
  EXPECT_EQ(parse_sched("sp-pifo"), SchedKind::kSpPifo);
  EXPECT_EQ(parse_sched("aifo"), SchedKind::kAifo);
  EXPECT_THROW(parse_sched("wat"), std::invalid_argument);
  EXPECT_EQ(parse_workload("hadoop"), workload::Kind::kHadoop);
  EXPECT_THROW(parse_workload("wat"), std::invalid_argument);
}

TEST(Cli, SchedSpecParsesApproximateRankSchedulers) {
  const auto sp_default = parse({"--sched", "sp-pifo"});
  EXPECT_EQ(sp_default.sched.kind, SchedKind::kSpPifo);
  EXPECT_EQ(sp_default.sched.sp_pifo_levels, 8u);
  EXPECT_EQ(sp_default.sched.rank, RankProgram::kStfq);

  const auto sp4 = parse({"--sched", "sp-pifo:4"});
  EXPECT_EQ(sp4.sched.kind, SchedKind::kSpPifo);
  EXPECT_EQ(sp4.sched.sp_pifo_levels, 4u);

  const auto aifo_default = parse({"--sched", "aifo"});
  EXPECT_EQ(aifo_default.sched.kind, SchedKind::kAifo);
  EXPECT_EQ(aifo_default.sched.aifo_window, 128u);
  EXPECT_DOUBLE_EQ(aifo_default.sched.aifo_k, 0.1);

  const auto aifo = parse({"--sched", "aifo:64,0.2"});
  EXPECT_EQ(aifo.sched.kind, SchedKind::kAifo);
  EXPECT_EQ(aifo.sched.aifo_window, 64u);
  EXPECT_DOUBLE_EQ(aifo.sched.aifo_k, 0.2);
}

TEST(Cli, SchedSpecRejectsMalformedParameters) {
  // SP-PIFO: levels must parse and be >= 2.
  EXPECT_THROW(parse({"--sched", "sp-pifo:1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "sp-pifo:0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "sp-pifo:x"}), std::invalid_argument);
  // AIFO: needs both window and k, window >= 1, k in [0, 1).
  EXPECT_THROW(parse({"--sched", "aifo:64"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "aifo:0,0.1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "aifo:64,1.5"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "aifo:64,-0.1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "aifo:64,abc"}), std::invalid_argument);
  // Non-parameterized schedulers take no parameters at all.
  EXPECT_THROW(parse({"--sched", "dwrr:3"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sched", "pifo:2"}), std::invalid_argument);
}

TEST(Cli, PiasSwitchesRankSchedulersToPriorityProgram) {
  // PIAS + rank scheduler: the rank program becomes the PIAS priority
  // (rank = queue index) instead of upgrading to a hybrid SP front-end.
  const auto sp = parse({"--sched", "sp-pifo", "--pias"});
  EXPECT_EQ(sp.sched.kind, SchedKind::kSpPifo);
  EXPECT_EQ(sp.sched.rank, RankProgram::kPriority);
  EXPECT_EQ(sp.sched.num_sp, 1u);
  const auto aifo = parse({"--sched", "aifo:32,0.05", "--pias"});
  EXPECT_EQ(aifo.sched.kind, SchedKind::kAifo);
  EXPECT_EQ(aifo.sched.rank, RankProgram::kPriority);
  EXPECT_EQ(aifo.sched.aifo_window, 32u);
}

TEST(Cli, NumericFlags) {
  const auto cfg = parse({"--load", "0.85", "--flows", "1234", "--seed", "42",
                          "--rtt-lambda-us", "100", "--red-k-bytes", "12500"});
  EXPECT_DOUBLE_EQ(cfg.load, 0.85);
  EXPECT_EQ(cfg.num_flows, 1234u);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.params.rtt_lambda, 100 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.red_threshold_bytes, 12'500u);
}

TEST(Cli, WorkloadList) {
  const auto cfg = parse({"--workload", "cache,hadoop"});
  ASSERT_EQ(cfg.service_workloads.size(), 2u);
  EXPECT_EQ(cfg.service_workloads[0], workload::Kind::kCache);
  EXPECT_EQ(cfg.service_workloads[1], workload::Kind::kHadoop);
}

TEST(Cli, PiasUpgradesToHybridScheduler) {
  const auto dwrr = parse({"--sched", "dwrr", "--pias"});
  EXPECT_EQ(dwrr.sched.kind, SchedKind::kSpDwrr);
  EXPECT_TRUE(dwrr.pias);
  const auto wfq = parse({"--sched", "wfq", "--pias"});
  EXPECT_EQ(wfq.sched.kind, SchedKind::kSpWfq);
  const auto already = parse({"--sched", "sp-dwrr", "--pias"});
  EXPECT_EQ(already.sched.kind, SchedKind::kSpDwrr);
}

TEST(Cli, TransportAndTcpOptions) {
  const auto cfg = parse({"--transport", "ecnstar", "--sack", "--delayed-ack",
                          "--rto-min-us", "5000"});
  EXPECT_EQ(cfg.tcp.cc, transport::CongestionControl::kEcnStar);
  EXPECT_TRUE(cfg.tcp.sack);
  EXPECT_TRUE(cfg.tcp.delayed_ack);
  EXPECT_EQ(cfg.tcp.rto_min, 5 * sim::kMillisecond);
}

TEST(Cli, DerivedCodelAndProbParameters) {
  const auto cfg = parse({"--rtt-lambda-us", "250"});
  EXPECT_EQ(cfg.params.codel_target, 50 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.codel_interval, 1000 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.tcn_tmin, 125 * sim::kMicrosecond);
  EXPECT_EQ(cfg.params.tcn_tmax, 375 * sim::kMicrosecond);
}

TEST(Cli, Errors) {
  EXPECT_THROW(parse({"--load"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--flows", "12x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--wat"}), std::invalid_argument);
  EXPECT_THROW(parse({"--topology", "ring"}), std::invalid_argument);
  EXPECT_THROW(parse({"--workload", ""}), std::invalid_argument);
}

// Throws std::invalid_argument, and the message names `flag`.
template <typename Parse>
void expect_rejected_naming(const std::string& flag, Parse parse_value) {
  try {
    parse_value();
    FAIL() << flag << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
  }
}

TEST(Cli, ListFlagsRejectTrailingJunkAndEmptyLists) {
  for (const std::string bad : {"0.5,0.6x", "0.5,abc", "", ","}) {
    expect_rejected_naming("--loads",
                           [&] { return to_double_list("--loads", bad); });
  }
  for (const std::string bad : {"1,2x", "abc", "", ",", "-1"}) {
    expect_rejected_naming("--seeds",
                           [&] { return to_u64_list("--seeds", bad); });
  }
  expect_rejected_naming("--flows", [] { return to_u64("--flows", "20x"); });
  expect_rejected_naming("--flows", [] { return to_u64("--flows", " 20"); });
  expect_rejected_naming("--sample-interval-us",
                         [] { return to_double("--sample-interval-us", ""); });
  EXPECT_EQ(to_double_list("--loads", "0.1,0.5"),
            (std::vector<double>{0.1, 0.5}));
  EXPECT_EQ(to_u64_list("--buffers", "24000,,96000"),
            (std::vector<std::uint64_t>{24'000, 96'000}));
  EXPECT_EQ(split_list("--schemes", "tcn,codel"),
            (std::vector<std::string>{"tcn", "codel"}));
}

TEST(Cli, UsageMentionsEveryFlag) {
  const auto usage = cli_usage();
  for (const char* flag :
       {"--topology", "--scheme", "--sched", "--load", "--flows",
        "--workload", "--pias", "--transport", "--sack", "--delayed-ack",
        "--seed", "--rtt-lambda-us", "--red-k-bytes", "--metrics-out",
        "--trace-out", "--check-invariants", "--faults", "--fault-grid",
        "--fail-on-invariant", "--wall-budget-ms", "--event-budget",
        "--sim-time-budget-s", "--pending-budget", "--on-failure",
        "--retries", "--journal", "--resume", "--traffic",
        "--traffic-grid", "--time-limit-s"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  // The --sched grammar advertises the parameterized rank schedulers.
  EXPECT_NE(usage.find("sp-pifo[:levels]"), std::string::npos);
  EXPECT_NE(usage.find("aifo[:window,k]"), std::string::npos);
}

TEST(Cli, BudgetFlags) {
  const auto cfg = parse({"--wall-budget-ms", "1500", "--event-budget",
                          "1000000", "--sim-time-budget-s", "2.5",
                          "--pending-budget", "50000"});
  EXPECT_EQ(cfg.wall_budget_ms, 1500.0);
  EXPECT_EQ(cfg.event_budget, 1'000'000u);
  EXPECT_EQ(cfg.sim_time_budget, sim::Time{2'500'000'000});
  EXPECT_EQ(cfg.pending_event_budget, 50'000u);
  const auto off = parse({});
  EXPECT_EQ(off.wall_budget_ms, 0.0);
  EXPECT_EQ(off.event_budget, 0u);
  EXPECT_EQ(off.sim_time_budget, sim::Time{0});
  EXPECT_EQ(off.pending_event_budget, 0u);
  EXPECT_EQ(off.time_limit, 600 * sim::kSecond);
  // The horizon (a normal stop) is adjustable for long open-loop runs.
  EXPECT_EQ(parse({"--time-limit-s", "30000"}).time_limit,
            30'000 * sim::kSecond);
  EXPECT_THROW(parse({"--time-limit-s", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--wall-budget-ms", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--wall-budget-ms", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--sim-time-budget-s", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--event-budget", "abc"}), std::invalid_argument);
}

TEST(Cli, FailOnInvariantImpliesChecking) {
  const auto cfg = parse({"--fail-on-invariant"});
  EXPECT_TRUE(cfg.check_invariants);
  EXPECT_TRUE(cfg.fail_on_invariant);
  const auto off = parse({"--check-invariants"});
  EXPECT_TRUE(off.check_invariants);
  EXPECT_FALSE(off.fail_on_invariant);
}

TEST(Cli, ObservabilityFlags) {
  const auto cfg =
      parse({"--metrics-out", "m.json", "--trace-out", "t.jsonl"});
  EXPECT_EQ(cfg.metrics_out, "m.json");
  EXPECT_EQ(cfg.trace_out, "t.jsonl");
  EXPECT_FALSE(cfg.collect_metrics);  // implied by metrics_out at run time
  const auto off = parse({});
  EXPECT_TRUE(off.metrics_out.empty());
  EXPECT_TRUE(off.trace_out.empty());
  EXPECT_THROW(parse({"--metrics-out"}), std::invalid_argument);
  EXPECT_THROW(parse({"--metrics-out", ""}), std::invalid_argument);
  EXPECT_THROW(parse({"--trace-out", ""}), std::invalid_argument);
}

TEST(Cli, UnwritableMetricsPathThrowsWithPath) {
  auto cfg = parse({"--flows", "5", "--load", "0.3"});
  cfg.metrics_out = "/nonexistent-dir-tcn/metrics.json";
  try {
    run_fct_experiment(cfg);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-tcn/metrics.json"),
              std::string::npos);
  }
}

TEST(Cli, UnwritableTracePathFailsBeforeRunning) {
  auto cfg = parse({"--flows", "5", "--load", "0.3"});
  cfg.trace_out = "/nonexistent-dir-tcn/trace.jsonl";
  try {
    run_fct_experiment(cfg);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-tcn/trace.jsonl"),
              std::string::npos);
  }
}

TEST(Cli, TrafficFlagPopulatesOpenLoopSpec) {
  const auto cfg = parse(
      {"--traffic",
       "poisson:web:websearch:0.7:3;mmpp:batch:cache:0.3;diurnal:60:0.5:1.5"});
  ASSERT_TRUE(cfg.traffic.enabled());
  ASSERT_EQ(cfg.traffic.tenants.size(), 2u);
  EXPECT_EQ(cfg.traffic.tenants[0].name, "web");
  EXPECT_EQ(cfg.traffic.tenants[0].dscp, 3);
  EXPECT_EQ(cfg.traffic.tenants[1].arrival,
            traffic::TenantSpec::Arrival::kMmpp);
  EXPECT_TRUE(cfg.traffic.diurnal.enabled());
  // Default is closed loop.
  EXPECT_FALSE(parse({}).traffic.enabled());
  EXPECT_THROW(parse({"--traffic", ""}), std::invalid_argument);
  EXPECT_THROW(parse({"--traffic", "bogus:x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--traffic"}), std::invalid_argument);
}

TEST(Cli, OpenLoopConfigActuallyRuns) {
  auto cfg = parse({"--flows", "100", "--load", "0.4", "--traffic",
                    "poisson:web:cache:1"});
  const auto report = run_fct_experiment(cfg);
  EXPECT_TRUE(report.traffic_open_loop);
  EXPECT_EQ(report.flows_completed, 100u);
  const auto text = format_report(cfg, report);
  EXPECT_NE(text.find("open loop"), std::string::npos);
  EXPECT_NE(text.find("flow slab"), std::string::npos);
}

TEST(Cli, ParsedConfigActuallyRuns) {
  auto cfg = parse({"--flows", "30", "--load", "0.4", "--workload", "cache"});
  const auto report = run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_completed, 30u);
  const auto text = format_report(cfg, report);
  EXPECT_NE(text.find("avg FCT"), std::string::npos);
  EXPECT_NE(text.find("TCN"), std::string::npos);
}

}  // namespace
}  // namespace tcn::core
