"""Tests of the benchmark's own code: self-time arithmetic, tracing
transparency, seeded inputs, output checks and the comparison rule.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import verify  # noqa: E402
from speed import NOMINAL_KERNEL_S, SpeedClock  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_span_stats_subtracts_direct_children(self):
        # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
        names = [0, 1, 1, 2]
        parents = [-1, 0, 0, 2]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        stats = span_stats(names, parents, starts, ends)
        self.assertEqual(stats[0], [1, 10.0, 3.0])
        self.assertEqual(stats[1], [2, 7.0, 6.0])
        self.assertEqual(stats[2], [1, 1.0, 1.0])

    def test_wrapped_calls_nest_and_self_times_add_up(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer():
            clock.now += 1.0
            traced_leaf()
            traced_leaf()
            clock.now += 0.5

        tracer.wrap("outer", outer)()
        stats = tracer.stats()
        self.assertEqual(stats["outer"], (1, 5.5, 1.5))
        self.assertEqual(stats["leaf"], (2, 4.0, 4.0))
        total_self = sum(v[2] for v in stats.values())
        self.assertAlmostEqual(total_self, stats["outer"][1])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer.stats()["boom"], (1, 1.0, 1.0))
        self.assertEqual(tracer._stack, [-1])


class SpeedClockTest(unittest.TestCase):
    def test_removes_kernel_time_and_rescales_by_nearby_kernel_speed(self):
        speed = SpeedClock()
        speed.starts = [1.0, 2.0, 3.0, 9.0]
        speed.durations = [2 * NOMINAL_KERNEL_S] * 3 + [4 * NOMINAL_KERNEL_S]
        # [0.5, 2.5] holds two samples at half the nominal speed; the one at
        # 9.0 lies outside the window and does not count.
        expected = (2.0 - 4 * NOMINAL_KERNEL_S) / 2
        self.assertAlmostEqual(speed.seconds(0.5, 2.5), expected)
        # A short interval with no sample inside uses the samples near it.
        self.assertAlmostEqual(speed.seconds(1.1, 1.2), 0.1 / 2)

    def test_samples_from_the_timer_signal(self):
        speed = SpeedClock()
        speed.start()
        try:
            t0 = speed.clock()
            while speed.clock() - t0 < 0.1:
                pass
        finally:
            speed.stop()
        self.assertGreaterEqual(len(speed.durations), 3)
        self.assertLess(speed.seconds(t0, t0 + 0.1), 1.0)


class TracingTransparencyTest(unittest.TestCase):
    def test_install_patches_every_binding_and_uninstall_restores(self):
        import gaindex.checks as checks
        import gaindex.cli as cli
        import gaindex.radicals as radicals
        from gaindex.formats import parse_graph6

        before = (checks.run_checks, cli.run_checks, radicals.RadicalNumber.__add__)
        g = parse_graph6("E~~w")  # 6 vertices
        plain = [r.to_dict() for r in checks.run_checks(g)]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.run_checks, before[1])
            self.assertIs(cli.run_checks, checks.run_checks)
            traced = [r.to_dict() for r in checks.run_checks(g)]
        finally:
            tracer.uninstall()
        self.assertEqual(
            json.dumps(plain, sort_keys=True), json.dumps(traced, sort_keys=True)
        )
        after = (checks.run_checks, cli.run_checks, radicals.RadicalNumber.__add__)
        self.assertEqual(before, after)
        metrics = tracer.layer_metrics(graphs=1, classes=0, check_ids=checks.CHECK_IDS)
        self.assertEqual(metrics["graphs.canonical_key.calls"], 0)
        self.assertGreater(metrics["radicals.sign.calls"], 0)
        self.assertEqual(
            sum(metrics[f"checks.{c}.verdicts"] for c in checks.CHECK_IDS), len(plain)
        )


class InputsTest(unittest.TestCase):
    def test_random_graphs_are_seeded_connected_and_in_range(self):
        a = inputs.random_graphs(5, 50)
        self.assertEqual(a, inputs.random_graphs(5, 50))
        self.assertNotEqual(a, inputs.random_graphs(6, 50))
        for n, edges in a:
            self.assertTrue(inputs._connected(n, edges))
        orders = sorted(n for n, _ in a)
        self.assertEqual(orders, sorted(list(range(inputs.N_LOW, inputs.N_HIGH + 1)) * 5))

    def test_graph6_seed_only_permutes(self):
        lines = inputs.graph6_lines()
        self.assertEqual(len(lines), sum(verify.A001349[1:]))
        shuffled = inputs.permuted_graph6(3)
        self.assertNotEqual(shuffled, lines)
        self.assertEqual(sorted(shuffled), sorted(lines))
        self.assertEqual(shuffled, inputs.permuted_graph6(3))


def enum_record(counts=verify.A001349, digest="d"):
    return {"counts": list(counts), "digest": digest}


class EnumCheckTest(unittest.TestCase):
    def test_accepts_oeis_counts_and_reference_digest(self):
        out = verify.check_enum([(0, enum_record())], {"digest": "d"})
        self.assertTrue(out.correct)
        self.assertEqual((out.attempted, out.failed), (7, 0))

    def test_rejects_wrong_count_digest_or_crash(self):
        wrong = list(verify.A001349)
        wrong[-1] -= 1
        self.assertFalse(verify.check_enum([(0, enum_record(wrong))], {"digest": "d"}).correct)
        self.assertFalse(verify.check_enum([(0, enum_record())], {"digest": "e"}).correct)
        crashed = verify.check_enum([(1, None)], {"digest": "d"})
        self.assertEqual((crashed.correct, crashed.failed), (False, 7))


def sweep_record(digest="s", failed=0, violations=0):
    return {"graphs": 3, "failed": failed, "violations": violations, "mismatches": 0,
            "digest": digest}


class SweepCheckTest(unittest.TestCase):
    def test_accepts_clean_identical_processes(self):
        out = verify.check_sweep([(0, sweep_record()), (0, sweep_record())], 3, "s")
        self.assertTrue(out.correct)
        self.assertEqual(out.attempted, 6)

    def test_rejects_violations_divergence_and_reference_mismatch(self):
        bad = verify.check_sweep([(0, sweep_record(failed=1, violations=1))], 3, None)
        self.assertEqual((bad.correct, bad.failed), (False, 1))
        split = [(0, sweep_record("s")), (0, sweep_record("t"))]
        self.assertFalse(verify.check_sweep(split, 3, None).correct)
        self.assertFalse(verify.check_sweep([(0, sweep_record("t"))], 3, "s").correct)


class JsonCheckTest(unittest.TestCase):
    LINES = ["Bw", "C~", "D?{"]

    @classmethod
    def setUpClass(cls):
        from gaindex import cli

        path = BENCH / ".work" / "test-input.g6"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in cls.LINES))
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["check", "-i", str(path), "--format", "json"])
        finally:
            path.unlink()
        assert code == 0
        cls.stdout = buf.getvalue().encode()
        groups: dict = {}
        for row in json.loads(cls.stdout):
            groups.setdefault(row["graph6"], []).append(row)
        cls.reference = {"canonical_sha256": verify.canonical_digest(groups)}

    def check(self, stdout, code=0, lines=None, sha=None):
        return verify.check_json_output(
            [(code, stdout)], lines or self.LINES, self.reference, sha
        )

    def test_accepts_the_real_output(self):
        import hashlib

        out = self.check(self.stdout, sha=hashlib.sha256(self.stdout).hexdigest())
        self.assertTrue(out.correct, out.problems)
        self.assertEqual(out.attempted, 3)

    def test_rejects_a_corrupted_byte(self):
        i = self.stdout.index(b'"holds": true') + len(b'"holds": ')
        corrupted = self.stdout[:i] + b"false" + self.stdout[i + 4 :]
        out = self.check(corrupted)
        self.assertFalse(out.correct)
        self.assertEqual(out.failed, 1)

    def test_rejects_changed_value_reordering_truncation_and_exit_code(self):
        changed = self.stdout.replace(b'"exact": "4"', b'"exact": "5"', 1)
        self.assertNotEqual(changed, self.stdout)
        self.assertFalse(self.check(changed).correct)
        self.assertFalse(self.check(self.stdout, lines=list(reversed(self.LINES))).correct)
        self.assertFalse(self.check(self.stdout[:-100]).correct)
        self.assertFalse(self.check(self.stdout, code=2).correct)
        self.assertFalse(self.check(self.stdout, sha="0" * 64).correct)


class CompareRuleTest(unittest.TestCase):
    SPEC = {"better": "lower", "bound": 0.1}

    def test_better_needs_nine_of_ten_wins_beyond_the_parent_spread(self):
        base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
        change = {s: 8.0 + 0.1 * (s % 3) for s in range(10)}
        self.assertEqual(compare.outcome(base, change, self.SPEC), "better")
        mixed = dict(change)
        mixed[0] = mixed[1] = 11.0
        self.assertNotEqual(compare.outcome(base, mixed, self.SPEC), "better")

    def test_worse_beyond_bound_unchanged_within_and_unresolved_when_noisy(self):
        base = {s: 10.0 + 0.01 * s for s in range(10)}
        self.assertEqual(
            compare.outcome(base, {s: v * 1.2 for s, v in base.items()}, self.SPEC), "worse"
        )
        self.assertEqual(
            compare.outcome(base, {s: v * 1.02 for s, v in base.items()}, self.SPEC),
            "unchanged",
        )
        noisy = {s: 10.0 * (1 + 0.3 * (s % 2)) for s in range(10)}
        self.assertEqual(compare.outcome(noisy, dict(noisy), self.SPEC), "unresolved")


if __name__ == "__main__":
    unittest.main()
