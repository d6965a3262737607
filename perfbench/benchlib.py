"""Pure parts of the repository benchmark: workload table, output check,
metric derivation and summaries. run.py does the processes and I/O; this
module only computes, so test_benchlib.py can drive it with fixture JSONs.
"""

import statistics
from dataclasses import dataclass, field

# Fixed per-message envelope of net::Message (kEnvelopeBytes): sender,
# round and body length. traffic.bytes_sent counts it on every message.
ENVELOPE_BYTES = 12

PHASES = ("train", "share", "aggregate", "evaluate")

# A run fails when its final_accuracy is more than this share below the
# accuracy BASELINE.json records for its workload and seed, so a change that
# buys bytes with accuracy cannot pass (final_accuracy has no bound).
ACCURACY_DROP = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # path relative to the repository root
    sets: dict               # --set overrides on top of the preset
    rounds: int              # rounds requested (always passed as --set)
    nodes: int
    preset_seed: int
    # Runs the event loop: the ledger check applies (sent = delivered +
    # dropped + in flight) and train/share/aggregate run on one thread.
    event_loop: bool = False
    random_sampling: bool = False  # the preset's algorithm is random-sampling
    # What the workload exists to stress: these per-round phase metrics
    # together take at least `dominant_share` of its round.
    dominant: tuple = ()
    dominant_share: float = 0.0
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jwins_movielens_96", "scenarios/compare_algorithms.scenario",
            {"algorithm": "jwins", "nodes": "96"}, rounds=60, nodes=96,
            preset_seed=7, dominant=("sim.share_ms", "sim.aggregate_ms"),
            dominant_share=0.6,
            why="communication-heavy JWINS round: DWT, top-k, Elias/XOR "
                "codec, network and averaging dominate"),
        Workload(
            "jwins_cifar_96", "scenarios/quickstart.scenario",
            {"nodes": "96", "eval_every": "10", "eval_sample_limit": "192",
             "eval_node_limit": "8"}, rounds=20, nodes=96, preset_seed=42,
            dominant=("sim.train_ms",), dominant_share=0.8,
            why="same JWINS path dominated by CNN training; a compression "
                "gain must not move it"),
        Workload(
            "scale_100k", "scenarios/scale_100k.scenario", {}, rounds=3,
            nodes=100000, preset_seed=7, random_sampling=True,
            why="100k random-sampling nodes on compact state: seeded index "
                "regeneration and NodeStateStore, no DWT or top-k"),
        Workload(
            "async_free_10k", "scenarios/scale_100k.scenario",
            {"nodes": "10000", "node_state": "full", "algorithm": "jwins",
             "topology": "regular", "engine": "async", "async_mode": "free",
             "latency_dist": "uniform:2:40",
             "bandwidth_dist": "lognormal:100:0.75",
             "straggler_fraction": "0.3", "straggler_slowdown": "4"},
            rounds=2, nodes=10000, preset_seed=7, event_loop=True,
            dominant=("sim.engine_self_ms",), dominant_share=0.5,
            why="10k JWINS nodes on the free-mode event engine, whose own "
                "time and memory dominate the round"),
    )
}

# End-to-end metrics with a bound in BENCHMARK.json: name -> (unit, better).
END_TO_END = {
    "round_wall_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "bytes_per_node": ("bytes", "lower"),
}

# End-to-end metrics printed in every summary but not bounded:
# final_accuracy is exact per seed but differs by 12-31% (quartile spread
# over median) between seeds, wider than any bound the benchmark may set;
# the per-seed reference check (ACCURACY_DROP) guards it instead.
# failure_rate is 0 on a correct tree; the result line carries it as the
# attempted/failed pair.
REPORTED = {
    "final_accuracy": ("fraction", "higher"),
}


def run_args(workload, seed, threads):
    """The --set overrides of one run, in a stable order."""
    sets = dict(workload.sets)
    sets["rounds"] = str(workload.rounds)
    sets["seed"] = str(seed)
    sets["threads"] = str(threads)
    args = []
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    return args


def check_result(result, workload):
    """Output check of one run's result JSON. Returns the list of failed
    checks (empty = the run is correct)."""
    errors = []
    if result is None:
        return ["no result JSON"]
    rounds = result.get("rounds_run")
    if rounds != workload.rounds:
        errors.append(f"rounds_run {rounds} != {workload.rounds} requested")
    t = result.get("traffic", {})
    try:
        wire = (t["payload_bytes_sent"] + t["metadata_bytes_sent"]
                + ENVELOPE_BYTES * t["messages_sent"])
        if t["bytes_sent"] != wire:
            errors.append(
                f"bytes_sent {t['bytes_sent']} != payload + metadata + "
                f"envelope {wire}")
    except (KeyError, TypeError):
        errors.append("traffic block incomplete")
    accuracies = [result.get("final_accuracy")]
    accuracies += [p.get("test_accuracy") for p in result.get("series", [])]
    if not all(isinstance(a, (int, float)) and 0.0 <= a <= 1.0
               for a in accuracies):
        errors.append("accuracy outside [0, 1]")
    if workload.event_loop:
        ee = result.get("event_engine")
        st = result.get("sim_time")
        if ee is None or st is None:
            errors.append("event_engine / sim_time block missing")
        else:
            accounted = (ee["messages_delivered"]
                         + st["messages_dropped"]["total"]
                         + ee["messages_in_flight"])
            if t.get("messages_sent") != accounted:
                errors.append(
                    f"ledger: sent {t.get('messages_sent')} != delivered + "
                    f"dropped + in flight {accounted}")
    wall = result.get("wall_seconds")
    if not wall or not all(isinstance(wall.get(k), (int, float))
                           for k in PHASES + ("total",)):
        errors.append("wall_seconds block incomplete")
    return errors


def sample_metrics(sample, workload):
    """End-to-end metrics of one correct run. `sample` holds the process
    wall (wall_s), its peak RSS (rss_kib), the time from process start to
    the creation of its first result file (first_create_s) and the parsed
    result JSON."""
    result = sample["result"]
    total = result["wall_seconds"]["total"]
    return {
        "round_wall_ms": 1000.0 * total / result["rounds_run"],
        # Process start until the first result file is opened, minus the
        # in-run wall: scenario parsing, workload and topology generation,
        # node construction, and the teardown of the Experiment and its
        # workload, which config::execute does before any result is written.
        "setup_s": sample["first_create_s"] - total,
        "peak_rss_mib": sample["rss_kib"] / 1024.0,
        "final_accuracy": result["final_accuracy"],
        "bytes_per_node": result["traffic"]["bytes_sent"] / workload.nodes,
    }


def phase_metrics(result):
    """Per-round phase split and counters the result JSON already emits."""
    rounds = result["rounds_run"]
    wall = result["wall_seconds"]
    t = result["traffic"]
    ee = result.get("event_engine", {})
    out = {f"sim.{p}_ms": 1000.0 * wall[p] / rounds for p in PHASES}
    out["sim.engine_self_ms"] = 1000.0 * (
        wall["total"] - sum(wall[p] for p in PHASES)) / rounds
    out["sim.events_processed"] = ee.get("events_processed", 0)
    out["sim.max_queue_depth"] = ee.get("max_queue_depth", 0)
    out["net.edge_records_high_water"] = ee.get("edge_records_high_water", 0)
    out["net.messages_per_round"] = t["messages_sent"] / rounds
    out["net.payload_bytes_per_round"] = t["payload_bytes_sent"] / rounds
    out["net.metadata_bytes_per_round"] = t["metadata_bytes_sent"] / rounds
    out["algo.mean_alpha"] = result["mean_alpha"]
    out["sim.final_accuracy"] = result["final_accuracy"]
    return out


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)   # (sample index, reason)
    cold: dict = None        # metrics of the first run, when it passed
    timed: list = field(default_factory=list)      # metrics of later runs

    @property
    def failure_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def evaluate_samples(samples, workload, reference_accuracy=None):
    """Checks every run of one batch and splits the correct ones into the
    cold first run and the timed rest. A run fails when it times out, exits
    non-zero, fails check_result, falls more than ACCURACY_DROP below
    `reference_accuracy` (the seed's accuracy in BASELINE.json, when known),
    or disagrees with the batch's first correct run on final_accuracy or
    bytes_sent (every run of a batch uses one seed)."""
    report = Report(attempted=len(samples))
    reference = None
    for i, sample in enumerate(samples):
        if sample["timed_out"]:
            errors = [f"timed out after {sample['wall_s']:.0f} s"]
        elif sample["exit_code"] != 0:
            errors = [f"exit code {sample['exit_code']}"]
        else:
            errors = check_result(sample["result"], workload)
            if sample["first_create_s"] < 0:
                errors.append("no result file created")
        if not errors and reference_accuracy is not None:
            accuracy = sample["result"]["final_accuracy"]
            if accuracy < (1.0 - ACCURACY_DROP) * reference_accuracy:
                errors = [f"final_accuracy {accuracy} more than "
                          f"{ACCURACY_DROP:.0%} below the seed's reference "
                          f"{reference_accuracy}"]
        if not errors:
            r = sample["result"]
            key = (r["final_accuracy"], r["traffic"]["bytes_sent"])
            if reference is None:
                reference = key
            elif key != reference:
                errors = [f"determinism: (final_accuracy, bytes_sent) {key} "
                          f"!= first run's {reference}"]
        if errors:
            report.failed += 1
            report.failures.append((i, "; ".join(errors)))
            continue
        metrics = sample_metrics(sample, workload)
        if i == 0:
            report.cold = metrics
        else:
            report.timed.append(metrics)
    return report


def reference_accuracy(by_seed, seed):
    """The reference final_accuracy of one workload at `seed`, from its
    BASELINE.json table (seed string -> accuracy); for a seed the table does
    not hold, the lowest accuracy it holds."""
    return by_seed.get(str(seed), min(by_seed.values()))


def spread(values):
    """(median, first quartile, third quartile) as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def coverage(replay, result, threads, workload):
    """Per phase: the replay's microseconds per node-round times the run's
    node-rounds, over the run's phase wall times the threads that phase ran
    on. The event loop steps train, share and aggregate one node at a time;
    evaluation always runs on the thread pool. Phases without a wall of
    their own (share under compact state) read 0."""
    node_rounds = workload.nodes * result["rounds_run"]
    out = {}
    for phase in PHASES:
        wall = result["wall_seconds"][phase]
        lanes = 1 if workload.event_loop and phase != "evaluate" else threads
        per_nr = replay["phase_us_per_node_round"].get(phase, 0.0)
        out[f"coverage.{phase}"] = (
            per_nr * 1e-6 * node_rounds / (wall * lanes) if wall > 0 else 0.0)
    return out


# Layers the replay (layer_replay.cpp) times, named after src/ modules.
REPLAY_LAYERS = (
    "nn.local_train", "nn.evaluate",
    "core.rank_accumulate", "core.dwt_transform", "core.dwt_inverse",
    "core.rank_finish",
    "compress.topk", "compress.random_indices", "compress.gather",
    "core.payload_encode", "core.payload_decode",
    "net.send", "net.drain", "core.partial_average",
    "sim.node_state_view", "sim.node_state_slot", "sim.node_state_store",
    "graph.mixing_weights",
)

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    **{f"sim.{p}_ms": ("ms", "lower") for p in PHASES},
    "sim.engine_self_ms": ("ms", "lower"),
    "sim.events_processed": ("count", "lower"),
    "sim.max_queue_depth": ("count", "lower"),
    "net.edge_records_high_water": ("count", "lower"),
    "net.messages_per_round": ("count", "lower"),
    "net.payload_bytes_per_round": ("bytes", "lower"),
    "net.metadata_bytes_per_round": ("bytes", "lower"),
    "algo.mean_alpha": ("fraction", "lower"),
    "sim.final_accuracy": ("fraction", "higher"),
    **{m: spec for layer in REPLAY_LAYERS for m, spec in (
        (f"{layer}_us", ("us", "lower")),
        (f"{layer}.calls_per_node_round", ("1/node-round", "lower")))},
    "core.payload_bytes": ("bytes", "lower"),
    "sim.node_state_bytes": ("bytes", "lower"),
    "data.workload_build_s": ("s", "lower"),
    "graph.topology_build_s": ("s", "lower"),
    "sim.experiment_build_s": ("s", "lower"),
    **{f"coverage.{p}": ("ratio", "higher") for p in PHASES},
}


def design_checks(workload, metrics):
    """What the workload was chosen to show, read off its traced metrics:
    (description, holds) pairs."""
    checks = [(
        "compress.random_indices_us non-zero only under random sampling",
        (metrics["compress.random_indices_us"] > 0) == workload.random_sampling)]
    if workload.dominant:
        round_ms = sum(metrics[f"sim.{p}_ms"] for p in PHASES + ("engine_self",))
        share = sum(metrics[n] for n in workload.dominant) / round_ms
        checks.append((f"{' + '.join(workload.dominant)} = {share:.0%} of the "
                       f"round (expected >= {workload.dominant_share:.0%})",
                       share >= workload.dominant_share))
    return checks


def replay_metrics(replay):
    """Per-layer metrics of one layer_replay JSON. A layer the workload
    never calls reads 0 for both its time and its calls."""
    out = {}
    for layer in REPLAY_LAYERS:
        entry = replay["layers"].get(layer + "_us", {})
        out[f"{layer}_us"] = entry.get("median_us", 0.0)
        out[f"{layer}.calls_per_node_round"] = entry.get(
            "calls_per_node_round", 0.0)
    for name in ("core.payload_bytes", "sim.node_state_bytes",
                 "data.workload_build_s", "graph.topology_build_s",
                 "sim.experiment_build_s"):
        out[name] = replay["values"].get(name, 0.0)
    return out
