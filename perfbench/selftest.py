"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with and without tracing at TINY sizes
(verify --range 300, a few hundred mix calls, integers of at
most 2^8 bits) and checks that every metric of BENCHMARK.json comes out
with its unit, and that a corrupted output is counted as failed.
"""

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cnskit  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# at --range 300 two more checks fail by design, since so short a sweep
# reaches too few lengths
TINY = run.Sizes(verify_args=("--range", "300"),
                 verify_failing=frozenset({"length_set", "pair_subsequences",
                                           "additive_bounds"}),
                 verify_min_runs=1, mix_ops=400, bigint_shift=6, bigint_per_size=2,
                 setup_runs=1)


def tiny(workload: str, trace: bool) -> tuple[dict, dict]:
    return run.run_workload(workload, seed=7, seconds=0.2, trace=trace, sizes=TINY)


def flip_lowest_digit(rep):
    digits = (1 - rep.digits[0],) + rep.digits[1:]
    return cnskit.Representation(rep.base, digits)


class MetricNames(unittest.TestCase):
    def assert_metrics(self, result: dict, kind: str) -> None:
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, record = tiny(workload, trace)
                    self.assert_metrics(result, "per_layer" if trace else "end_to_end")
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(record["error_rate"], 0.0)
                    if not trace:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)

    def test_names_match_the_workload_list(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class CorruptedOutputs(unittest.TestCase):
    def test_flipped_convert_digit_counts_as_failed(self):
        convert = cnskit.convert
        with mock.patch.object(cnskit, "convert",
                               lambda z, scheme: flip_lowest_digit(convert(z, scheme))):
            result, record = tiny("encode-mix", False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["error_rate"], 0)

    def test_flipped_bigint_digit_counts_as_failed(self):
        encode_negabase = cnskit.encode_negabase

        def corrupt(z, b):
            rep = encode_negabase(z, b)
            return cnskit.Representation(rep.base, ((rep.digits[0] + 1) % b,) + rep.digits[1:])

        with mock.patch.object(cnskit, "encode_negabase", corrupt):
            result, record = tiny("bigint", False)
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["error_rate"], 0)

    def test_checkers_reject_corrupted_outputs(self):
        p = (2, 2, 1)
        rep = cnskit.cns_encode(820, cnskit.IntPoly(p)).representation
        self.assertTrue(checks.expansion_ok(rep.digits, 820, p))
        self.assertFalse(checks.expansion_ok(flip_lowest_digit(rep).digits, 820, p))
        self.assertTrue(checks.is_cycle_residue((-1, 1), (2, -2, 1)))
        self.assertFalse(checks.is_cycle_residue((0, 0), (2, -2, 1)))
        self.assertFalse(checks.is_cycle_residue((1, 0), (2, -2, 1)))

    def test_wrong_verdict_counts_as_failed(self):
        stdout = "".join(f"PASS {c}\n" for c in checks.SUITE_ORDER)
        report = [{"check_id": c, "passed": True} for c in checks.SUITE_ORDER]
        self.assertTrue(checks.verify_run_ok(0, stdout, report, frozenset()))
        self.assertFalse(checks.verify_run_ok(0, stdout, report))
        self.assertFalse(checks.verify_run_ok(1, stdout, report, frozenset()))


if __name__ == "__main__":
    unittest.main()
