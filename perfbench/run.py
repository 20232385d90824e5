#!/usr/bin/env python3
"""Whole-run benchmark for the TCN simulator.

Builds perfbench/e2ebench from the repository sources (CMake, Release, into
.bench_build/perfbench under the repository root), then measures one
workload:

  python3 perfbench/run.py --workload star_dwrr --seed 1 --seconds 36 --trace 0

--trace 0 reports the end-to-end metrics from untraced runs. Each sample is
a fresh e2ebench process that simulates one input (sub-seed seed*1000+i,
i = 0, 1, 2, ... until --seconds have passed) REPEATS times; the first run
alone sets the process's peak RSS. The same process then repeats the input
with a counting port observer for the exact hop count, and every repeat must
give one digest. A set-up process follows each sample, so set-up time sees
the same host conditions as the runs.

--trace 1 runs e2ebench's trace mode on the first sub-seed and reports the
per-layer metrics (counts, replay timings, overhead shares).

Human-readable lines (the digest and the paper's headline outputs of every
input) come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Spans of the processes this run
started are written to .bench_build/spans/ when it ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")
EXE = os.path.join(BUILD_DIR, "e2ebench")

# Flows per simulated input, as a fraction of e2ebench's full-size workload
# (1500 star flows, 300 leaf-spine flows, 2000 open-loop arrivals).
SCALE = {
    "star_dwrr": 0.2,
    "leafspine_spdwrr": 0.3,
    "openloop_sppifo_obs": 0.05,
}

SUBSEEDS_PER_SEED = 1000
MIN_SAMPLES = 3
REPEATS = 2             # timed runs of each input, in its own process
SETUP_BUDGET_S = 0.1    # in-process set-up repetitions after each sample
RUN_DEADLINE_S = 170    # every process of one run ends within this


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build e2ebench; raise on any failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


class Runner:
    """Starts e2ebench processes one at a time and keeps a span per process
    (nesting the spans a trace process reports) in memory."""

    def __init__(self, workload, scale):
        self.workload = workload
        self.scale = scale
        self.t0 = time.monotonic()
        self.deadline = self.t0 + RUN_DEADLINE_S
        self.spans = []

    def run(self, mode, seed, *extra):
        """Run one e2ebench process; return its JSON, or None if it failed."""
        cmd = [EXE, mode, "--workload", self.workload, "--seed", str(seed),
               "--scale", str(self.scale)] + [str(x) for x in extra]
        start = time.monotonic() - self.t0
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"{mode} seed={seed}: timed out")
            return None
        finally:
            self.spans.append({"name": mode, "seed": seed, "start_s": start,
                               "end_s": time.monotonic() - self.t0,
                               "parent": None})
        if proc.returncode != 0:
            log(f"{mode} seed={seed}: exit {proc.returncode}: "
                f"{proc.stderr.strip()}")
            return None
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            log(f"{mode} seed={seed}: unparsable output")
            return None
        parent = len(self.spans) - 1
        for s in out.pop("spans", []):
            # Child spans are relative to their process; shift them into
            # this run's clock under the process span.
            self.spans.append({"name": s["name"], "seed": seed,
                               "start_s": start + s["start_s"],
                               "end_s": start + s["end_s"], "parent": parent})
        return out

    def write_spans(self, tag):
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"{self.workload}-{tag}.json")
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=0)


def sample_ok(s):
    """An input is correct when every flow it started completed and all its
    runs (timed repeats and the observed run) produced one digest."""
    return (s is not None and s["flows_completed"] == s["flows_started"]
            and s["digests_agree"] == 1)


def headline(workload, seed, s):
    return (f"{workload} seed={seed} digest={s['digest']} "
            f"flows={s['flows_completed']}/{s['flows_started']} "
            f"small_avg_fct_us={s['small_avg_fct_us']:.3f} "
            f"small_p99_fct_us={s['small_p99_fct_us']:.3f} "
            f"timeouts={s['timeouts']} marks={s['marks']} "
            f"drops_buffer={s['drops_buffer']} drops_sched={s['drops_sched']} "
            f"drops_fault={s['drops_fault']} sim_end_s={s['sim_end_s']:.6f}")


def measure(runner, seed, seconds):
    """Alternate sample and set-up processes until `seconds` have passed."""
    samples, setups, failed, attempted = [], [], 0, 0
    start = time.monotonic()
    i = 0
    while i < MIN_SAMPLES or time.monotonic() - start < seconds:
        sub = seed * SUBSEEDS_PER_SEED + i
        i += 1
        attempted += 2
        s = runner.run("sample", sub, "--reps", REPEATS)
        setup = runner.run("setup", sub, "--reps", 100000,
                           "--budget-s", SETUP_BUDGET_S)
        if setup is None:
            failed += 1
        else:
            setups.append(setup["setup_s"])
        if not sample_ok(s):
            failed += 1
            continue
        samples.append(s)
        print(headline(runner.workload, sub, s))
    if not samples or not setups:
        return {}, attempted, failed
    walls = [w for s in samples for w in s["walls_s"]]
    flows = sum(s["flows_completed"] * len(s["walls_s"]) for s in samples)
    metrics = {
        "ns_per_hop": statistics.median(
            w * 1e9 / s["hops"] for s in samples for w in s["walls_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
    }
    print(f"{runner.workload}: {len(samples)} inputs x {REPEATS} timed runs, "
          f"{flows} flows in {sum(walls):.3f} s, "
          f"flows_per_s={flows / sum(walls):.2f} 1/s, "
          + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
    return metrics, attempted, failed


def trace(runner, seed):
    sub = seed * SUBSEEDS_PER_SEED
    t = runner.run("trace", sub)
    if t is None:
        return {}, 1, 1
    ok = (t["consistent"] == 1 and t["flows_completed"] == t["flows_started"]
          and t["sched.replay_match_share"] == 1.0
          and t["aqm.replay_match_share"] == 1.0)
    print(f"{runner.workload} traced seed={sub} digest={t['digest']} "
          f"captured_events={t['captured']} digest_consistent={t['consistent']} "
          f"sched_match={t['sched.replay_match_share']} "
          f"aqm_match={t['aqm.replay_match_share']}")
    return t, 1, 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCALE))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; held-out seed: 2)")
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale-factor", type=float, default=1.0,
                    help="multiply the per-input size (tests run reduced)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    runner = Runner(args.workload, SCALE[args.workload] * args.scale_factor)
    if args.trace:
        raw, attempted, failed = trace(runner, args.seed)
        declared = spec["per_layer"]
    else:
        raw, attempted, failed = measure(runner, args.seed, args.seconds)
        declared = spec["end_to_end"]
    runner.write_spans(f"seed{args.seed}-trace{args.trace}")
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in raw}
    correct = failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
