"""Self-tests of the benchmark's output check, metric derivation and
failure counting, on fixture result JSONs in perfbench/fixtures/.

  python3 perfbench/test_benchlib.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

MOVIELENS = bl.WORKLOADS["jwins_movielens_96"]
ASYNC = bl.WORKLOADS["async_free_10k"]


def fixture(name):
    return json.loads((HERE / "fixtures" / f"{name}.json").read_text())


def sample(result, exit_code=0, wall_s=0.5, rss_kib=12 * 1024,
           first_create_s=0.45, timed_out=False):
    return {"exit_code": exit_code, "wall_s": wall_s, "rss_kib": rss_kib,
            "first_create_s": first_create_s, "timed_out": timed_out,
            "result": result}


class OutputCheck(unittest.TestCase):
    def test_real_results_pass(self):
        self.assertEqual(bl.check_result(fixture("sync_ok"), MOVIELENS), [])
        self.assertEqual(bl.check_result(fixture("async_ok"), ASYNC), [])

    def test_broken_ledger_fails(self):
        errors = bl.check_result(fixture("async_broken_ledger"), ASYNC)
        self.assertEqual(len(errors), 1)
        self.assertIn("ledger", errors[0])

    def test_bytes_without_envelope_fails(self):
        errors = bl.check_result(fixture("sync_bytes_mismatch"), MOVIELENS)
        self.assertEqual(len(errors), 1)
        self.assertIn("bytes_sent", errors[0])

    def test_ledger_checked_only_where_asked(self):
        # The sync workloads emit no event_engine block and need none.
        result = fixture("async_broken_ledger")
        self.assertFalse(any("ledger" in e for e in
                             bl.check_result(result, MOVIELENS)))

    def test_missing_event_engine_block_fails_async(self):
        result = fixture("async_ok")
        del result["event_engine"]
        self.assertTrue(bl.check_result(result, ASYNC))

    def test_short_run_fails(self):
        result = fixture("sync_ok")
        result["rounds_run"] = 59
        self.assertIn("rounds_run", bl.check_result(result, MOVIELENS)[0])

    def test_accuracy_out_of_range_fails(self):
        for bad in (-0.01, 1.5, None):
            result = fixture("sync_ok")
            result["series"][2]["test_accuracy"] = bad
            self.assertEqual(bl.check_result(result, MOVIELENS),
                             ["accuracy outside [0, 1]"])
        result = fixture("sync_ok")
        result["final_accuracy"] = 1.01
        self.assertTrue(bl.check_result(result, MOVIELENS))

    def test_missing_result_or_wall_fails(self):
        self.assertEqual(bl.check_result(None, MOVIELENS), ["no result JSON"])
        result = fixture("sync_ok")
        del result["wall_seconds"]
        self.assertTrue(bl.check_result(result, MOVIELENS))


class Metrics(unittest.TestCase):
    def test_engine_self_and_per_round(self):
        result = fixture("async_ok")
        wall = result["wall_seconds"]
        m = bl.phase_metrics(result)
        phases = wall["train"] + wall["share"] + wall["aggregate"] + \
            wall["evaluate"]
        self.assertAlmostEqual(m["sim.engine_self_ms"],
                               1000 * (wall["total"] - phases) / 2)
        self.assertAlmostEqual(m["sim.train_ms"], 1000 * wall["train"] / 2)
        self.assertAlmostEqual(m["sim.evaluate_ms"],
                               1000 * wall["evaluate"] / 2)
        self.assertEqual(m["net.messages_per_round"], 120000 / 2)
        self.assertEqual(m["sim.events_processed"], 160000)
        self.assertEqual(m["net.edge_records_high_water"], 41910)
        # The four phases plus self time rebuild the round.
        per_round = sum(m[f"sim.{p}_ms"] for p in bl.PHASES)
        self.assertAlmostEqual(per_round + m["sim.engine_self_ms"],
                               1000 * wall["total"] / 2)

    def test_sync_has_no_event_counters(self):
        m = bl.phase_metrics(fixture("sync_ok"))
        self.assertEqual(m["sim.events_processed"], 0)
        self.assertEqual(m["sim.max_queue_depth"], 0)
        self.assertGreaterEqual(m["sim.engine_self_ms"], 0.0)
        self.assertAlmostEqual(m["net.payload_bytes_per_round"],
                               66677132 / 60)

    def test_end_to_end_normalisation(self):
        result = fixture("sync_ok")
        total = result["wall_seconds"]["total"]
        # setup_s ends where the result files start: the 5 ms between the
        # first file's creation and the process exit are not in it.
        m = bl.sample_metrics(sample(result, wall_s=total + 0.015,
                                     first_create_s=total + 0.01,
                                     rss_kib=12800), MOVIELENS)
        self.assertAlmostEqual(m["round_wall_ms"], 1000 * total / 60)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        self.assertAlmostEqual(m["peak_rss_mib"], 12.5)
        self.assertEqual(m["final_accuracy"], result["final_accuracy"])
        self.assertEqual(m["bytes_per_node"], 70711836 / 96)

    def test_coverage(self):
        result = fixture("sync_ok")
        wall = result["wall_seconds"]
        replay = {"phase_us_per_node_round": {"train": 10.0, "share": 20.0}}
        c = bl.coverage(replay, result, 4, MOVIELENS)
        self.assertAlmostEqual(c["coverage.train"],
                               10e-6 * 96 * 60 / (wall["train"] * 4))
        self.assertAlmostEqual(c["coverage.share"],
                               20e-6 * 96 * 60 / (wall["share"] * 4))
        self.assertEqual(c["coverage.aggregate"], 0.0)
        result["wall_seconds"]["share"] = 0.0
        self.assertEqual(
            bl.coverage(replay, result, 4, MOVIELENS)["coverage.share"], 0.0)

    def test_coverage_event_loop_phases_run_on_one_thread(self):
        result = fixture("async_ok")
        wall = result["wall_seconds"]
        replay = {"phase_us_per_node_round": {"train": 10.0, "evaluate": 1.0}}
        c = bl.coverage(replay, result, 4, ASYNC)
        self.assertAlmostEqual(c["coverage.train"],
                               10e-6 * 10000 * 2 / wall["train"])
        self.assertAlmostEqual(c["coverage.evaluate"],
                               1e-6 * 10000 * 2 / (wall["evaluate"] * 4))

    def test_design_checks(self):
        m = bl.phase_metrics(fixture("async_ok"))
        m["compress.random_indices_us"] = 0.0
        checks = bl.design_checks(ASYNC, m)
        self.assertEqual([holds for _, holds in checks], [True, True])
        self.assertIn("sim.engine_self_ms", checks[1][0])
        m["compress.random_indices_us"] = 3.0
        self.assertFalse(bl.design_checks(ASYNC, m)[0][1])
        # The sync fixture spends almost no time in engine self time.
        sync = bl.phase_metrics(fixture("sync_ok"))
        sync["compress.random_indices_us"] = 0.0
        self.assertFalse(bl.design_checks(ASYNC, sync)[1][1])
        self.assertTrue(bl.design_checks(MOVIELENS, sync)[1][1])

    def test_spread(self):
        self.assertEqual(bl.spread([3.0]), (3.0, 3.0, 3.0))
        med, q1, q3 = bl.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)

    def test_run_args_pass_seed_rounds_threads(self):
        args = bl.run_args(MOVIELENS, seed=11, threads=3)
        pairs = dict(a.split("=", 1) for a in args[1::2])
        self.assertEqual(args[0::2], ["--set"] * len(pairs))
        self.assertEqual(pairs["seed"], "11")
        self.assertEqual(pairs["rounds"], "60")
        self.assertEqual(pairs["threads"], "3")
        self.assertEqual(pairs["algorithm"], "jwins")


class FailureCounting(unittest.TestCase):
    def test_failures_are_counted_and_dropped(self):
        ok = fixture("sync_ok")
        samples = [sample(ok), sample(ok, wall_s=0.6),
                   sample(None, exit_code=1),
                   sample(fixture("sync_bytes_mismatch")),
                   sample(ok, wall_s=0.7)]
        report = bl.evaluate_samples(samples, MOVIELENS)
        self.assertEqual((report.attempted, report.failed), (5, 2))
        self.assertAlmostEqual(report.failure_rate, 0.4)
        self.assertEqual([i for i, _ in report.failures], [2, 3])
        self.assertIn("exit code 1", report.failures[0][1])
        self.assertIsNotNone(report.cold)
        self.assertEqual(len(report.timed), 2)

    def test_timeout_and_missing_result_file_fail(self):
        ok = fixture("sync_ok")
        report = bl.evaluate_samples(
            [sample(ok), sample(None, exit_code=137, wall_s=165.0,
                                timed_out=True),
             sample(ok, first_create_s=-1.0), sample(ok)], MOVIELENS)
        self.assertEqual([i for i, _ in report.failures], [1, 2])
        self.assertIn("timed out after 165 s", report.failures[0][1])
        self.assertIn("no result file", report.failures[1][1])
        self.assertEqual(len(report.timed), 1)

    def test_accuracy_below_reference_fails(self):
        ok = fixture("sync_ok")
        accuracy = ok["final_accuracy"]
        # Within ACCURACY_DROP of the reference: correct.
        report = bl.evaluate_samples([sample(ok)] * 2, MOVIELENS,
                                     accuracy / (1 - bl.ACCURACY_DROP / 2))
        self.assertEqual(report.failed, 0)
        # Further below: every run fails, so the batch is not correct.
        report = bl.evaluate_samples([sample(ok)] * 2, MOVIELENS,
                                     accuracy / (1 - 2 * bl.ACCURACY_DROP))
        self.assertEqual(report.failed, 2)
        self.assertIn("below the seed's reference", report.failures[0][1])

    def test_reference_accuracy_falls_back_to_lowest(self):
        by_seed = {"0": 0.4, "1": 0.35, "42": 0.5}
        self.assertEqual(bl.reference_accuracy(by_seed, 42), 0.5)
        self.assertEqual(bl.reference_accuracy(by_seed, 1000), 0.35)

    def test_ledger_failure_counts(self):
        samples = [sample(fixture("async_ok")),
                   sample(fixture("async_broken_ledger"))]
        report = bl.evaluate_samples(samples, ASYNC)
        self.assertEqual(report.failed, 1)
        self.assertEqual(report.timed, [])

    def test_failed_cold_run_is_not_replaced(self):
        ok = fixture("sync_ok")
        report = bl.evaluate_samples([sample(None, exit_code=2), sample(ok),
                                      sample(ok)], MOVIELENS)
        self.assertIsNone(report.cold)
        self.assertEqual((report.failed, len(report.timed)), (1, 2))

    def test_determinism_mismatch_fails(self):
        ok = fixture("sync_ok")
        drifted = copy.deepcopy(ok)
        drifted["final_accuracy"] = ok["final_accuracy"] + 1e-9
        drifted["series"][-1]["test_accuracy"] = drifted["final_accuracy"]
        report = bl.evaluate_samples([sample(ok), sample(drifted),
                                      sample(ok)], MOVIELENS)
        self.assertEqual(report.failed, 1)
        self.assertIn("determinism", report.failures[0][1])

    def test_all_correct(self):
        ok = fixture("sync_ok")
        report = bl.evaluate_samples([sample(ok)] * 3, MOVIELENS)
        self.assertEqual((report.failed, report.failure_rate), (0, 0.0))


class BenchmarkJson(unittest.TestCase):
    def test_matches_benchlib(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bl.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["end_to_end"]}, bl.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["per_layer"]}, bl.PER_LAYER)

    def test_baseline_has_accuracy_references(self):
        baseline = json.loads((HERE / "BASELINE.json").read_text())
        table = baseline["final_accuracy_by_seed"]
        self.assertEqual(set(table), set(bl.WORKLOADS))
        for name, workload in bl.WORKLOADS.items():
            self.assertIn(str(workload.preset_seed), table[name])
            self.assertTrue(all(0.0 < a <= 1.0 for a in table[name].values()))


if __name__ == "__main__":
    unittest.main()
