"""Self-tests of the benchmark harness. Run from the repository root:

    python3 bench/selftest.py

They show that tracing only observes the program: call counts repeat
exactly between two traced runs of each workload, stdout is
byte-identical with and without the wrappers, a hand-checked call count
holds, and BENCHMARK.json names exactly the metrics run.py prints.
KnownDefectTest pins the one program defect the workloads steer round.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def deterministic_counts(it: run.Iteration) -> list[dict]:
    """Everything a trace records except times, per invocation."""
    return [{"calls": {name: span[0] for name, span in trace["spans"].items()},
             "counts": trace["counts"], "maxima": trace["maxima"]}
            for trace in it.traces]


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        os.makedirs(run.TRACE_DIR, exist_ok=True)
        cls.digests = run.load_digests()

    def test_counts_repeat_and_stdout_is_unchanged(self) -> None:
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                invocations = workloads.build(workload, run.DEFAULT_SEED)
                digests = self.digests[workload]
                plain = run.run_iteration(invocations, digests, traced=False)
                first = run.run_iteration(invocations, digests, traced=True)
                second = run.run_iteration(invocations, digests, traced=True)
                self.assertEqual([], plain.failures)
                self.assertEqual([], first.failures)
                self.assertEqual([], second.failures)
                self.assertEqual(plain.stdouts, first.stdouts)
                self.assertEqual(len(first.traces), len(invocations))
                self.assertEqual(deterministic_counts(first), deterministic_counts(second))

    def test_order_search_multiply_count(self) -> None:
        # R_4 mod 13 has e = 7 and order 28. Checking that 28 annihilates
        # takes 7 multiplies; the divisors 1, 2, 4, 7, 14, 28 then take
        # 1 + 2 + 3 + 5 + 6 + 7, so 31 in all.
        inv = workloads.Invocation(("order", "right", "4", "13"), workloads.no_check)
        it = run.run_iteration([inv], {}, traced=True)
        self.assertIn(b"order: 28\n", it.stdouts[0])
        self.assertEqual(31, it.traces[0]["spans"]["core.modmat_mul"][0])
        self.assertEqual(1, it.traces[0]["spans"]["modorder.matrix_order_mod"][0])


class KnownDefectTest(unittest.TestCase):
    @unittest.expectedFailure
    def test_tightness_at_entry_point_below_p_plus_1(self) -> None:
        # p = 4157 = 2 mod 5 has e = 297, so R_2 has order 1188, not
        # 2(p+1) = 8316: the tightness claim does not apply, yet the
        # program fails the check. workloads.tightness_holds keeps such
        # primes out of the campaigns; once this passes, drop that filter.
        inv = workloads._campaign(("order-bound",), (2, 2), None, (4157,))
        self.assertEqual([], run.run_iteration([inv], {}, traced=False).failures)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self) -> None:
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(run.END_TO_END,
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual(run.PER_LAYER,
                         {m["name"]: m["unit"] for m in spec["per_layer"]})
        self.assertEqual(list(workloads.WORKLOADS),
                         [w["name"] for w in spec["workloads"]])


if __name__ == "__main__":
    unittest.main()
