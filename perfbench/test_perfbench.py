"""Self-tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They cover the percentile and tail selection, reference-time scaling,
self-time subtraction, the output checks catching a wrong answer, and the
tracer restoring every function it patched.
"""

from __future__ import annotations

import copy
import sys
import unittest
from fractions import Fraction

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(workloads.SRC))


class TestPercentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.percentile(values, 50), 50.0)
        self.assertEqual(run.percentile(values, 99), 99.0)
        self.assertEqual(run.percentile(values, 100), 100.0)
        self.assertEqual(run.percentile([7.0], 50), 7.0)
        self.assertEqual(run.percentile([1.0, 2.0], 50), 1.0)

    def test_tail_leaves_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 201)]
        value, pct = run.tail(values)
        self.assertEqual(value, 190.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 95.0)

    def test_tail_of_small_sample_is_its_minimum_rank(self):
        self.assertEqual(run.tail([3.0, 5.0]), (3.0, 50.0))
        with self.assertRaises(ValueError):
            run.tail([])


class TestReferenceTime(unittest.TestCase):
    def test_latency_is_scaled_by_the_calibration(self):
        self.assertAlmostEqual(run.reference_ms(2_000_000, 1_000_000), 2 * run.CAL_REF_MS)
        self.assertAlmostEqual(run.reference_ms(2_000_000, 2_000_000), run.CAL_REF_MS)

    def test_each_sample_takes_its_ops_median(self):
        result = run.PassResult(latencies_ns=[10, 30, 20, 7, 40], cal_ns=[1, 1, 1, 1, 2],
                                positions=[0, 0, 0, 1, 1])
        ref = run.CAL_REF_MS
        self.assertEqual(run.typical_latencies(result), [20 * ref] * 3 + [13.5 * ref] * 2)

    def test_op_is_scaled_by_the_calibrations_on_either_side(self):
        ticks = iter(range(0, 10_000, 10))
        cals = iter([100, 300, 500])
        op = workloads.Op("op", "k", None, lambda: None, lambda v: None)
        result = run.run_ops([[op]], count=2, clock=lambda: next(ticks),
                             calibration=lambda: next(cals), cal_ref_ms=2.0)
        self.assertEqual(result.latencies_ns, [10, 10])
        self.assertEqual(result.cal_ns, [200, 400])
        self.assertEqual(result.cal_ref_ms, 2.0)
        self.assertAlmostEqual(run.ops_per_s([result], calibrated=True), 2 / ((0.1 + 0.05) / 1e3))

    def test_calibration_takes_time(self):
        self.assertGreater(run.calibrate(), 0)


class TestSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            ("op", 0, 100, -1),
            ("a", 10, 50, 0),
            ("b", 20, 30, 1),
            ("b", 60, 70, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [50, 30, 10, 10])

    def test_overlapping_children_count_once(self):
        spans = [("op", 0, 100, -1), ("a", 10, 60, 0), ("b", 40, 80, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 30)

    def test_aggregate_and_shares(self):
        spans = [("op", 0, 100, -1), ("order_dp.dp_eps", 0, 90, 0),
                 ("order_dp.budget_table", 10, 70, 1), ("model.verify_coverage", 70, 80, 1)]
        agg = tracing.aggregate(spans)
        self.assertEqual(agg["order_dp.dp_eps"], {"calls": 1, "total_ns": 90, "self_ns": 20})
        shares = tracing.layer_shares(agg, ["order_dp", "model"])
        self.assertAlmostEqual(shares["order_dp"], 0.8)
        self.assertAlmostEqual(shares["model"], 0.1)
        self.assertAlmostEqual(shares["unwrapped"], 0.1)
        self.assertEqual(tracing.calls_under(spans, "order_dp.budget_table", "order_dp.dp_eps"), 1)


class TestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bc = workloads.import_package()
        cls.refs = workloads.load_refs()

    def test_wrong_reference_cost_is_caught(self):
        refs = copy.deepcopy(self.refs)
        entry = refs["fixed"]["dp-order"]["fig5.L8"]
        op = next(op for op in workloads.DpOrder(self.bc, 0, refs).ops() if op.key == "fig5.L8")
        value = op.run()
        self.assertIsNone(op.check(value))
        entry["opt_op"] = str(Fraction(entry["opt_op"]) - 1)
        op = next(op for op in workloads.DpOrder(self.bc, 0, refs).ops() if op.key == "fig5.L8")
        self.assertIn("OPT_op", op.check(value))

    def test_injected_wrong_oracle_cost_is_caught(self):
        wl = workloads.ExactOracle(self.bc, 0, self.refs)
        op = next(op for op in wl.ops() if op.key == "fig5.L24")
        y, opt = op.run()
        self.assertIsNone(op.check((y, opt)))
        self.assertIsNotNone(op.check((y, opt + 1)))

    def test_dp_eps_outside_its_guarantee_is_caught(self):
        wl = workloads.DpOrder(self.bc, 0, self.refs)
        ops = [op for op in wl.ops() if op.key.startswith("r0.")]
        opt_op, eps = ops[0], ops[1]
        self.assertIsNone(opt_op.check(opt_op.run()))
        # Report the exact optimum's cost as half of what it is.
        wl.opt_op[opt_op.key] /= 2
        if wl.opt_op[opt_op.key] > 0:
            self.assertIn("outside", eps.check(eps.run()))

    def test_fpt_below_opt_must_find_nothing(self):
        wl = workloads.ExactOracle(self.bc, 0, self.refs)
        below = next(op for op in wl.ops() if op.kind == "fpt.below_opt")
        self.assertIsNotNone(below.check(((Fraction(0),), Fraction(0))))
        self.assertIsNone(below.check(None))

    def test_failed_check_counts_as_failed_op(self):
        ok = workloads.Op("ok", "k", None, lambda: 1, lambda v: None)
        bad = workloads.Op("bad", "k", None, lambda: 1, lambda v: "wrong")
        boom = workloads.Op("boom", "k", None, lambda: 1 / 0, lambda v: None)
        result = run.run_ops([[ok, bad, boom]], count=2)
        self.assertEqual(len(result.latencies_ns), 6)
        self.assertEqual(len(result.failures), 4)


class TestTracer(unittest.TestCase):
    def test_every_patched_function_is_restored(self):
        bc = workloads.import_package()
        before = {name: dict(vars(mod)) for name, mod in bc.items()}
        order_dp_mod, untangle_mod = bc["order_dp"], bc["untangle"]
        with tracing.Tracer(bc) as tr:
            self.assertIsNot(order_dp_mod.verify_coverage, before["order_dp"]["verify_coverage"])
            self.assertIsNot(bc["exact"].greedy_cover, before["exact"]["greedy_cover"])
            self.assertIsNot(untangle_mod.swap_pair, before["untangle"]["swap_pair"])
            self.assertIsNot(bc["package"].untangle, before["package"]["untangle"])
            inst = bc["generators"].gen_fig5(2, 12)
            tr.run_op(lambda: bc["package"].dp_optimal(inst))
        after = {name: dict(vars(mod)) for name, mod in bc.items()}
        for name in before:
            changed = [k for k in before[name] if before[name][k] is not after[name].get(k)]
            self.assertEqual(changed, [], f"{name} still holds patched names")
        names = {span[0] for span in tr.spans()}
        self.assertIn("order_dp.budget_table", names)
        self.assertIn("model.verify_coverage", names)
        self.assertGreater(tr.counters["order_dp.budget_table.cells"], 0)

    def test_calls_outside_an_op_are_not_recorded(self):
        bc = workloads.import_package()
        with tracing.Tracer(bc) as tr:
            bc["order_dp"].greedy_cover(bc["generators"].gen_fig5(2, 12))
        self.assertEqual(tr.spans(), [])


if __name__ == "__main__":
    unittest.main()
