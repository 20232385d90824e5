// bench/atlas: the stability atlas. Sweeps marking threshold x load x
// buffer for TCN vs CoDel vs RED vs PIE across schedulers on the 9-host
// testbed star with time-series sampling on, prints a regime heatmap per
// (scheme, sched, buffer) slice, and writes the tcn-atlas-1 JSON document.
//
//   atlas --flows 500 --jobs 4 --json ATLAS.json
//   atlas --thresholds-us 64,256 --loads 0.5,0.9 --buffers 24000,96000
//         --schemes tcn,codel --scheds dwrr --flows 200 --jobs 2
//
// The JSON carries no host-timing fields, so two runs with different
// --jobs are byte-identical files (CI cmp's jobs=1 against jobs=4).
// Journaling/resume work exactly as in the figure benches.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "atlas.hpp"

namespace {

using namespace tcn;

core::Scheme scheme_from_token(const std::string& t) {
  if (t == "tcn") return core::Scheme::kTcn;
  if (t == "tcn-prob") return core::Scheme::kTcnProb;
  if (t == "codel") return core::Scheme::kCodel;
  if (t == "mq-ecn") return core::Scheme::kMqEcn;
  if (t == "red") return core::Scheme::kRedPerQueue;
  if (t == "red-port") return core::Scheme::kRedPerPort;
  if (t == "red-dequeue") return core::Scheme::kRedDequeue;
  if (t == "pie") return core::Scheme::kPie;
  if (t == "ideal-rate") return core::Scheme::kIdealRate;
  if (t == "none") return core::Scheme::kNone;
  std::fprintf(stderr, "--schemes: unknown scheme '%s'\n", t.c_str());
  std::exit(2);
}

core::SchedKind sched_from_token(const std::string& t) {
  if (t == "fifo") return core::SchedKind::kFifo;
  if (t == "sp") return core::SchedKind::kSp;
  if (t == "dwrr") return core::SchedKind::kDwrr;
  if (t == "wrr") return core::SchedKind::kWrr;
  if (t == "wfq") return core::SchedKind::kWfq;
  if (t == "sp-dwrr") return core::SchedKind::kSpDwrr;
  if (t == "sp-wfq") return core::SchedKind::kSpWfq;
  if (t == "pifo") return core::SchedKind::kPifoStfq;
  if (t == "sp-pifo") return core::SchedKind::kSpPifo;
  if (t == "aifo") return core::SchedKind::kAifo;
  std::fprintf(stderr, "--scheds: unknown scheduler '%s'\n", t.c_str());
  std::exit(2);
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [axis flags] [sweep flags]\n"
      "axis flags (defaults cover the acceptance grid):\n"
      "  --schemes s1,s2,...      AQMs: tcn tcn-prob codel mq-ecn red\n"
      "                           red-port red-dequeue pie ideal-rate none\n"
      "                           (default tcn,codel,red,pie)\n"
      "  --scheds s1,s2,...       schedulers: fifo sp dwrr wrr wfq sp-dwrr\n"
      "                           sp-wfq pifo sp-pifo aifo\n"
      "                           (default dwrr,wfq,sp-pifo,aifo)\n"
      "  --thresholds-us t1,...   marking threshold axis T in us; every AQM\n"
      "                           gets T mapped to its native knob\n"
      "                           (default 64,256,1024)\n"
      "  --loads l1,l2,...        offered load axis (default 0.5,0.7,0.9)\n"
      "  --buffers b1,b2,...      per-port buffer bytes axis\n"
      "                           (default 24000,48000,96000)\n"
      "  --sample-interval-us F   time-series sampling interval\n"
      "                           (default 100)\n"
      "sweep flags:\n"
      "  --flows N                flows per cell (default 500)\n"
      "  --seed S                 base RNG seed (default 1)\n"
      "  --jobs N                 sweep workers (0 = one per core; output\n"
      "                           is byte-identical for any value)\n"
      "  --json PATH              write the tcn-atlas-1 document\n"
      "  --on-failure cancel_all|record_and_continue|retry\n"
      "  --retries N              max attempts per cell (implies retry)\n"
      "  --journal PATH           tcn-journal-1 checkpoint per cell\n"
      "  --resume PATH            restore journaled cells, run the rest\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::AtlasAxes axes = bench::default_atlas_axes();
  double interval_us = 100.0;
  std::size_t flows = 500;
  std::uint64_t seed = 1;
  std::size_t jobs = 0;
  std::string json_path;
  runner::SweepOptions opt;
  std::string resume_path;
  bool on_failure_set = false;

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
      if (flag == "--schemes") {
        axes.schemes.clear();
        for (const auto& t : core::split_list(flag, next())) {
          axes.schemes.push_back({t, scheme_from_token(t)});
        }
      } else if (flag == "--scheds") {
        axes.scheds.clear();
        for (const auto& t : core::split_list(flag, next())) {
          axes.scheds.emplace_back(t, sched_from_token(t));
        }
      } else if (flag == "--thresholds-us") {
        axes.thresholds_us = core::to_double_list(flag, next());
      } else if (flag == "--loads") {
        axes.loads = core::to_double_list(flag, next());
      } else if (flag == "--buffers") {
        axes.buffer_bytes = core::to_u64_list(flag, next());
      } else if (flag == "--sample-interval-us") {
        interval_us = core::to_double(flag, next());
        if (interval_us <= 0) {
          std::fprintf(stderr, "--sample-interval-us: must be > 0\n");
          return 2;
        }
      } else if (flag == "--flows") {
        flows = core::to_u64(flag, next());
      } else if (flag == "--seed") {
        seed = core::to_u64(flag, next());
      } else if (flag == "--jobs") {
        jobs = core::to_u64(flag, next());
      } else if (flag == "--json") {
        json_path = next();
      } else if (flag == "--on-failure") {
        opt.failure_policy = runner::failure_policy_from_name(next());
        on_failure_set = true;
      } else if (flag == "--retries") {
        opt.retry.max_attempts = core::to_u64(flag, next());
        if (opt.retry.max_attempts == 0) {
          std::fprintf(stderr, "--retries: must be >= 1\n");
          return 2;
        }
        if (!on_failure_set) opt.failure_policy = runner::FailurePolicy::kRetry;
      } else if (flag == "--journal") {
        opt.journal_out = next();
      } else if (flag == "--resume") {
        resume_path = next();
      } else if (flag == "--help" || flag == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return 2;
      }
    } catch (const std::exception& e) {
      // Every parser above names the flag (or its value) in the message.
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (axes.cells() == 0) {
    std::fprintf(stderr, "atlas: empty grid (every axis needs >= 1 value)\n");
    return 2;
  }

  core::FctExperiment base = bench::testbed_base();
  base.num_flows = flows;
  base.seed = seed;
  base.timeseries.interval =
      static_cast<sim::Time>(interval_us * sim::kMicrosecond);

  auto jobs_vec = bench::atlas_jobs(axes, base);
  std::fprintf(stderr, "atlas: %zu cells (%zu sched x %zu scheme x %zu "
               "threshold x %zu load x %zu buffer), %zu flows/cell\n",
               jobs_vec.size(), axes.scheds.size(), axes.schemes.size(),
               axes.thresholds_us.size(), axes.loads.size(),
               axes.buffer_bytes.size(), flows);

  opt.jobs = jobs;
  opt.journal_name = "atlas";
  if (!resume_path.empty() && opt.journal_out.empty()) {
    opt.journal_out = resume_path;
  }
  runner::JournalData journal_data;
  if (!resume_path.empty()) {
    try {
      journal_data = runner::load_journal(resume_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--resume: %s\n", e.what());
      return 2;
    }
    opt.resume = &journal_data;
    std::fprintf(stderr, "atlas: resuming from %s, %zu of %zu cell(s) "
                 "journaled%s\n",
                 resume_path.c_str(), journal_data.entries.size(),
                 journal_data.total_jobs,
                 journal_data.torn_tail ? " (torn tail dropped)" : "");
  }
  opt.on_done = [](const runner::RunRecord& r) {
    if (r.skipped) return;
    if (!r.ok) {
      std::fprintf(stderr, "  [%s] FAILED: %s\n", r.job.label.c_str(),
                   r.error.c_str());
      return;
    }
    std::fprintf(stderr, "  [%s] %s osc=%.3f (%.0f ms)\n",
                 r.job.label.c_str(),
                 std::string(obs::regime_name(r.report.stability.regime))
                     .c_str(),
                 r.report.stability.oscillation_score, r.wall_ms);
  };

  try {
    const auto res = runner::run_jobs(std::move(jobs_vec), opt);
    bench::print_atlas_summary(axes, res);
    if (res.failed > 0 || res.skipped > 0) {
      std::fprintf(stderr, "atlas: %zu cell(s) failed, %zu skipped\n",
                   res.failed, res.skipped);
    }
    if (!json_path.empty()) {
      const std::string doc =
          bench::atlas_to_json(axes, res, flows, seed, interval_us);
      if (json_path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
      } else {
        std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
        out.write(doc.data(),
                  static_cast<std::streamsize>(doc.size()));
        out.flush();
        if (!out) {
          std::fprintf(stderr, "atlas: write failed for '%s'\n",
                       json_path.c_str());
          return 2;
        }
        std::fprintf(stderr, "atlas: wrote %s (%zu bytes)\n",
                     json_path.c_str(), doc.size());
      }
    }
    return res.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlas: %s\n", e.what());
    return 2;
  }
}
