"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, end to end and traced, and checks that
each metric BENCHMARK.json names is printed with its unit; that the counts
which must repeat at a fixed seed do; that every answer checker rejects a
planted wrong answer; and that the benchmark refuses to run where the
package is missing.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import WrongAnswer  # noqa: E402

TINY_SECONDS = "0.5"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(*args: str) -> dict:
    code, lines = bench(*args)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {code}")
    return json.loads(lines[-1])


class Contract(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_lists_match_benchmark_json(self) -> None:
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            [(name, run.layer_unit(name)) for name in run.PER_LAYER],
        )
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS)
        )

    def check_printed(self, res: dict, key: str) -> None:
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_prints_every_metric(self) -> None:
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                base = ("--workload", name, "--seconds", TINY_SECONDS)
                e2e = result(*base, "--trace", "0")
                self.check_printed(e2e, "end_to_end")
                self.assertEqual(e2e["failed"], 0)
                for m in e2e["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.check_printed(result(*base, "--trace", "1"), "per_layer")

    def test_counts_repeat_at_a_fixed_seed(self) -> None:
        exact = ("failed", ".calls", ".count", "_ratio")
        for name in ("solve", "decompose_smooth"):
            with self.subTest(workload=name):
                args = ("--workload", name, "--seconds", "1", "--seed", "3", "--trace", "1")
                first, second = result(*args), result(*args)
                self.assertEqual(first["failed"], second["failed"])
                for metric, m in first["metrics"].items():
                    if metric.endswith(exact) or ".failed." in metric:
                        self.assertEqual(m, second["metrics"][metric], metric)

    def test_solve_screens_out_the_known_failures(self) -> None:
        res = result("--workload", "solve", "--seconds", "1", "--trace", "1")
        self.assertEqual(res["failed"], 0)
        m = {name: v["value"] for name, v in res["metrics"].items()}
        self.assertGreater(m["systems.solve_four.failed"], 0)
        for kind in ("two", "four"):
            layer = f"systems.solve_{kind}"
            self.assertGreaterEqual(m[f"{layer}.screened"], m[f"{layer}.calls"] + m[f"{layer}.failed"])

    def test_refuses_to_run_without_the_package(self) -> None:
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, lines = bench("--workload", "sweep", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class Checkers(unittest.TestCase):
    """Each checker accepts the package's answer and rejects a planted error."""

    def test_solver_component_perturbed(self) -> None:
        w = workloads.Solve(1)
        for kind, rhs in (("two", (3.0, -4.0)), ("four", (1.0, 2.0, 3.0, 4.0))):
            x = (kind, rhs)
            report = w.call(x)
            w.check(x, report)
            for i in range(len(report.solution)):
                bad = list(report.solution)
                bad[i] *= 1 + 1e-3
                with self.assertRaises(WrongAnswer):
                    oracle.check_solution(rhs, tuple(bad), report.tol)

    def test_exact_residual_matches_fractions(self) -> None:
        from fractions import Fraction

        w = workloads.Solve(5)
        gen = w.inputs()
        for _ in range(200):
            x = next(gen)
            report = w.call(x)
            rhs = x[1]
            frac = [Fraction(t) for t in rhs]
            defects = oracle._defects(frac, [Fraction(t) for t in report.solution])
            want = max(abs(t) for t in defects) / (1 + sum(abs(t) for t in frac))
            num, den = oracle.solve_residual(rhs, report.solution)
            self.assertEqual(Fraction(num, den), want)

    def test_decomposition_off_by_one(self) -> None:
        w = workloads.DecomposeSmooth(1)
        n = 2 * 5 * 13 * 9
        for kind in ("two", "four"):
            x = (kind, n, oracle.factor(n))
            rep = w.call(x)
            w.check(x, rep)
            comps = list(rep.components)
            comps[0] += 1
            with self.assertRaises(WrongAnswer):
                oracle.check_squares(n, comps, len(comps))

    def test_wrong_representability(self) -> None:
        w = workloads.DecomposeLarge(1)
        with self.assertRaises(WrongAnswer):
            w.check(("criterion", 21, {3: 1, 7: 1}), True)
        with self.assertRaises(WrongAnswer):
            w.check(("two", 25, {5: 2}), None)
        w.check(("two", 21, {3: 1, 7: 1}), None)

    def test_inputs_carry_their_factorization(self) -> None:
        for name in ("decompose_large", "decompose_smooth"):
            gen = workloads.WORKLOADS[name](2).inputs()
            for _ in range(60):
                _, n, fac = next(gen)
                self.assertEqual(oracle.factor(n), fac)

    def test_sweep_wrong_verdict_and_exit(self) -> None:
        w = workloads.Sweep(1)
        x = (0, 11)
        code, text = w.call(x)
        w.check(x, (code, text))
        doc = json.loads(text)
        doc["verdict"] = "FAIL"
        with self.assertRaises(WrongAnswer):
            w.check(x, (1, json.dumps(doc)))
        with self.assertRaises(WrongAnswer):
            w.check(x, (1, text))

    def test_oracle_factors(self) -> None:
        for n in (1, 2, 97, 2**4 * 3**3 * 1999, 999_999_000_001, 10**12 - 11, 1000003 * 999983):
            fac = oracle.factor(n)
            prod = 1
            for p, e in fac.items():
                self.assertTrue(oracle.is_probable_prime(p))
                prod *= p**e
            self.assertEqual(prod, n)


if __name__ == "__main__":
    unittest.main()
