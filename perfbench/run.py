#!/usr/bin/env python3
"""The repository benchmark: end-to-end runs of jwins_run and a traced
per-layer replay, for four workloads (perfbench/README.md).

  python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                           [--trace 0|1]

Run from anywhere inside a source tree; the script builds the program from
that tree into .bench_build/ first (perfbench/CMakeLists.txt).

--trace 0 (end to end): repeats jwins_run of the workload, one process per
run, for about --seconds. Every run is checked (benchlib.check_result); the
first run of the batch is reported separately as the cold run and the rest
give median and quartiles. The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}.

--trace 1 (per layer): a few untraced runs for the phase split and counters
the result JSON emits, then layer_replay for per-call layer timings, then
replay coverage per phase. The last line holds the per-layer metrics.

--workload all runs every workload, interleaved round-robin (no two runs of
one workload back to back) until each has used its --seconds, and prints
every workload's table.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
JWINS_RUN = BUILD / "jwins" / "cli" / "jwins_run"
REPLAY = BUILD / "layer_replay"
SPAWN_RSS = BUILD / "spawn_rss"

MIN_RUNS = 4          # the cold run plus three timed runs
LAUNCH_LIMIT_S = 140  # never start a run past this, whatever --seconds says
DEADLINE_S = 165      # a run or replay still going by then is killed


def log(text=""):
    print(text, flush=True)


def fail(text):
    sys.stderr.write(f"error: {text}\n")
    sys.exit(2)


def lanes():
    """Experiment threads: 4, capped at the CPUs this process may use."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no jwins source tree to build")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(lanes()),
                  "--target", "jwins_run", "layer_replay", "spawn_rss"])
    # The compiler's temporary files stay inside the tree too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as build_log:
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=build_log,
                                  stderr=subprocess.STDOUT)
            if done.returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def scenario_name(workload):
    """The scenario's `name`: jwins_run writes its results under it."""
    text = (ROOT / workload.scenario).read_text()
    match = re.search(r"^\s*name\s*=\s*(\S+)", text, re.MULTILINE)
    if not match:
        fail(f"{workload.scenario} has no name")
    return match.group(1)


def run_once(workload, seed, timeout_s):
    """One jwins_run process under spawn_rss, which kills it after
    `timeout_s`. Returns exit code, process wall, peak RSS, whether it timed
    out, when its first result file was created, and the parsed result JSON
    (None if absent)."""
    out = BUILD / "runs" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    results = out / scenario_name(workload)
    results.mkdir(parents=True)
    report = out / "spawn.json"
    cmd = [str(SPAWN_RSS), str(report), f"{timeout_s:.1f}", str(results),
           str(JWINS_RUN), str(ROOT / workload.scenario),
           *bl.run_args(workload, seed, lanes()), f"--out={out}"]
    with open(out / "console.txt", "w") as console:
        done = subprocess.run(cmd, cwd=ROOT, stdout=console,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        fail(f"spawn_rss exited {done.returncode}; see {out / 'console.txt'}")
    spawn = json.loads(report.read_text())
    result = None
    for path in sorted(results.glob("run000_*.json")):
        try:
            result = json.loads(path.read_text())
        except ValueError:
            result = None
    return {"exit_code": spawn["exit_code"], "wall_s": spawn["wall_s"],
            "rss_kib": spawn["maxrss_kib"],
            "first_create_s": spawn["first_create_s"],
            "timed_out": spawn["timed_out"], "result": result}


def run_batches(workloads, seeds, seconds, min_runs=MIN_RUNS):
    """Runs the workloads round-robin, one run of each in turn, so no two
    runs of one workload are back to back. A workload stops once it has
    `min_runs` runs and its next run would end past `seconds` of its own
    time; it never starts a run past LAUNCH_LIMIT_S of it, and a run still
    going at DEADLINE_S is killed and fails. Returns name -> samples."""
    samples = {w.name: [] for w in workloads}
    used = {w.name: 0.0 for w in workloads}
    active = list(workloads)
    while active:
        for w in list(active):
            start = time.perf_counter()
            samples[w.name].append(
                run_once(w, seeds[w.name], DEADLINE_S - used[w.name]))
            used[w.name] += time.perf_counter() - start
            next_run = statistics.median(s["wall_s"] for s in samples[w.name])
            if (used[w.name] + next_run > LAUNCH_LIMIT_S
                    or (len(samples[w.name]) >= min_runs
                        and used[w.name] + next_run > seconds)):
                active.remove(w)
    return samples


def fmt(value):
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.6g}"


def print_end_to_end(workload, seed, report, reference):
    log(f"== {workload.name}  seed={seed}  threads={lanes()}  "
        f"runs={report.attempted}  failed={report.failed}")
    for index, reason in report.failures:
        log(f"   run {index} FAILED: {reason}")
    log(f"   {'metric':<16}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'n':>4}{'cold run':>14}")
    for name, (unit, _) in {**bl.END_TO_END, **bl.REPORTED}.items():
        values = [m[name] for m in report.timed]
        med, q1, q3 = bl.spread(values) if values else (math.nan,) * 3
        cold = report.cold[name] if report.cold else math.nan
        log(f"   {name:<16}{unit:<10}{fmt(med):>12}{fmt(q1):>12}{fmt(q3):>12}"
            f"{len(values):>4}{fmt(cold):>14}")
    rate = report.failure_rate
    log(f"   {'failure_rate':<16}{'fraction':<10}{fmt(rate):>12}{fmt(rate):>12}"
        f"{fmt(rate):>12}{report.attempted:>4}")
    log("   (median and quartiles over the timed runs; the cold run is the "
        "batch's first and is not in them)")
    log(f"   final_accuracy reference {reference:.6g}: a run more than "
        f"{bl.ACCURACY_DROP:.0%} below it fails")


def end_to_end_metrics(report):
    metrics = {}
    for name, (unit, _) in bl.END_TO_END.items():
        values = [m[name] for m in report.timed]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def record(name, payload):
    path = BUILD / "results" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def sample_record(sample):
    return {k: sample[k] for k in ("exit_code", "wall_s", "rss_kib",
                                   "first_create_s", "timed_out")}


def summarize(workload, seed, samples):
    """Checks one workload's batch, prints its table and records it.
    Returns the report and the end-to-end metrics."""
    reference = reference_accuracy(workload, seed)
    report = bl.evaluate_samples(samples, workload, reference)
    print_end_to_end(workload, seed, report, reference)
    metrics = end_to_end_metrics(report)
    record(f"{workload.name}-seed{seed}-e2e", {
        "workload": workload.name, "seed": seed, "threads": lanes(),
        "runs": [sample_record(s) for s in samples],
        "failures": report.failures, "cold": report.cold,
        "timed": report.timed, "metrics": metrics})
    return report, metrics


def reference_accuracy(workload, seed):
    baseline = json.loads((HERE / "BASELINE.json").read_text())
    return bl.reference_accuracy(
        baseline["final_accuracy_by_seed"][workload.name], seed)


def run_replay(workload, seed, budget_s, timeout_s):
    cmd = [str(REPLAY), str(ROOT / workload.scenario),
           *bl.run_args(workload, seed, lanes()),
           "--budget-s", f"{budget_s:.2f}"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"layer_replay still running after {timeout_s:.0f} s; killed")
    if done.returncode != 0:
        fail(f"layer_replay exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def traced(workload, seed, seconds):
    start = time.perf_counter()
    samples = run_batches([workload], {workload.name: seed}, 0.4 * seconds,
                          min_runs=2)[workload.name]
    report = bl.evaluate_samples(samples, workload,
                                 reference_accuracy(workload, seed))
    failed = {i for i, _ in report.failures}
    good = [s for i, s in enumerate(samples) if i not in failed]
    warm = good[1:] or good
    if not warm:
        return report, None
    per_run = [bl.phase_metrics(s["result"]) for s in warm]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    elapsed = time.perf_counter() - start
    budget = max(1.0, 0.8 * (seconds - elapsed))
    replay = run_replay(workload, seed, budget, DEADLINE_S - elapsed)
    metrics.update(bl.replay_metrics(replay))
    cover = [bl.coverage(replay, s["result"], lanes(), workload)
             for s in warm]
    for k in cover[0]:
        metrics[k] = statistics.median(c[k] for c in cover)

    log(f"== {workload.name}  seed={seed}  traced  runs={report.attempted}  "
        f"failed={report.failed}  replay={replay['replay_rounds']} rounds x "
        f"{replay['replay_nodes']} nodes, degree {replay['degree']}, "
        f"{replay['params']} params")
    for index, reason in report.failures:
        log(f"   run {index} FAILED: {reason}")
    for name, (unit, _) in bl.PER_LAYER.items():
        if name.endswith(".calls_per_node_round"):
            continue
        extra = ""
        if name.endswith("_us"):
            calls = metrics[name[:-3] + ".calls_per_node_round"]
            extra = f"   x {calls:.4g} calls/node-round"
        log(f"   {name:<34}{fmt(metrics[name]):>14} {unit:<8}{extra}")
    for text, holds in bl.design_checks(workload, metrics):
        log(f"   design: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    record(f"{workload.name}-seed{seed}-trace", {
        "workload": workload.name, "seed": seed, "threads": lanes(),
        "runs": [sample_record(s) for s in samples],
        "failures": report.failures, "replay": replay, "metrics": metrics})
    return report, {n: {"value": metrics[n], "unit": u}
                    for n, (u, _) in bl.PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*bl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of each workload's batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()

    names = list(bl.WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [bl.WORKLOADS[n] for n in names]
    seeds = {w.name: args.seed if args.seed is not None else w.preset_seed
             for w in workloads}
    if not args.trace:
        batches = run_batches(workloads, seeds, args.seconds)
    metrics, attempted, failed = {}, 0, 0
    for w in workloads:
        if args.trace:
            report, layer = traced(w, seeds[w.name], args.seconds)
        else:
            report, layer = summarize(w, seeds[w.name], batches[w.name])
        attempted, failed = attempted + report.attempted, \
            failed + report.failed
        prefix = f"{w.name}." if args.workload == "all" else ""
        for k, v in (layer or {}).items():
            metrics[prefix + k] = v
    complete = bool(metrics) and all(
        "value" in v and math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
