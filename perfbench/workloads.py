"""The four workloads: seeded inputs, the call into sosq, and its check.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns.  Inputs come from random.Random(seed) alone, so
the same seed yields the same input stream; sosq only sees the values.

Why these four:

* sweep -- CLI verification and stability sweeps, the package's main use;
  sampling, model evaluation, raw composition and bound evaluation do the
  work, and systems/sumsquares are never called.
* solve -- batch calls to the closed-form solvers over the whole double
  range, including the structural-zero branches and the cancellation
  region.  Inputs on which a solver raises (the known defects) are
  screened out while the inputs are made and counted by exception type,
  so every timed call returns an answer.
* decompose_large -- n in [1e11, 1e12]: factorization and the per-prime
  search dominate, folding is trivial.
* decompose_smooth -- ~50-digit products of primes below 2000:
  factorization is cheap, per-prime caches hit, and folding big integers
  through the composition laws dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter

import oracle
from oracle import WrongAnswer

SWEEP_SAMPLES = 2000
# (argv head, expected verdict, expected diagonal classification or None)
SWEEP_MIX = (
    (["verify", "--arity", "2", "--model", "power:c=2"], "PASS", None),
    (["verify", "--arity", "4", "--model", "power:c=2"], "PASS", None),
    (
        ["stability", "--arity", "2", "--model", "power:c=2",
         "--bounds", "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1"],
        "PASS", "MULTIPLICATIVE",
    ),
    (
        ["stability", "--arity", "4", "--model", "power:c=1",
         "--bounds", "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1;"
                     "abs(x)+3;min(x*x+1,100);1;x*x+abs(x)+1"],
        "PASS", "MULTIPLICATIVE",
    ),
    (["verify", "--arity", "2", "--model", "power:c=2,sigma=-1"], "FAIL", None),
)
_EXIT = {"PASS": 0, "FAIL": 1}


class Workload:
    name = ""
    # inputs generated (and checked) per batch, outside the timed calls
    chunk = 1
    # ops per second of --seconds in the traced run's fixed prefix
    trace_rate = 1.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def inputs(self):
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, x, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; called after the timed loop."""

    def counters(self) -> dict:
        return {}


class Sweep(Workload):
    name = "sweep"
    trace_rate = 12.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import sosq.cli

        self.cli = sosq.cli
        self.first: dict[int, tuple] = {}

    def inputs(self):
        i = 0
        while True:
            yield i % len(SWEEP_MIX), self.rng.getrandbits(31)
            i += 1

    @staticmethod
    def argv(x) -> list[str]:
        k, seed = x
        return SWEEP_MIX[k][0] + [
            "--samples", str(SWEEP_SAMPLES), "--seed", str(seed), "--output", "json",
        ]

    def call(self, x):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv(x))
        return code, buf.getvalue()

    def check(self, x, out) -> None:
        k, seed = x
        head, verdict, classification = SWEEP_MIX[k]
        code, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            raise WrongAnswer(f"{head[0]} printed no JSON report: {text[:200]!r}")
        if doc.get("verdict") != verdict or code != _EXIT[verdict]:
            raise WrongAnswer(
                f"{' '.join(self.argv(x))}: verdict {doc.get('verdict')!r} "
                f"exit {code}, expected {verdict} exit {_EXIT[verdict]}"
            )
        config, result = doc.get("config", {}), doc.get("result", {})
        if config.get("seed") != seed or result.get("sample_count") != SWEEP_SAMPLES:
            raise WrongAnswer(f"report does not echo seed {seed} and samples: {config}")
        if classification and result.get("diagonal_classification") != classification:
            raise WrongAnswer(
                f"classification {result.get('diagonal_classification')!r}, "
                f"expected {classification}"
            )
        self.first.setdefault(k, (x, text))

    def finish(self) -> None:
        for x, text in self.first.values():
            again = self.call(x)[1]
            if again != text:
                raise WrongAnswer(f"{' '.join(self.argv(x))} is not byte-reproducible")


def _log_uniform(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)


class Solve(Workload):
    name = "solve"
    chunk = 1000
    trace_rate = 40000.0
    # one call in _STRUCTURED_EVERY per solver takes a structured input
    _STRUCTURED_EVERY = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import sosq.systems

        self.systems = sosq.systems
        # bound before tracing wraps the module attributes: screening is
        # input generation, not an op, and stays out of the traced stats
        self.screen = {"two": sosq.systems.solve_two, "four": sosq.systems.solve_four}
        self.screened: Counter = Counter()
        self.raised: Counter = Counter()  # (kind, exception name)

    def _two(self, k: int) -> tuple[float, float]:
        rng = self.rng
        kind = k % self._STRUCTURED_EVERY
        if kind == 0:  # U0_VPOS
            return 0.0, abs(_log_uniform(rng))
        if kind == 1:  # U0_VNEG
            return 0.0, -abs(_log_uniform(rng))
        if kind == 2:  # |v| >> |u|, v < 0: the cancellation region
            e = rng.uniform(-100, 300)
            return rng.choice((-1.0, 1.0)) * 10.0 ** (e - rng.uniform(8, 200)), -(10.0 ** e)
        return _log_uniform(rng), _log_uniform(rng)

    def _four(self, k: int) -> tuple[float, float, float, float]:
        rng = self.rng
        lu = lambda: _log_uniform(rng)
        kind = k % self._STRUCTURED_EVERY
        if kind == 0:  # A
            return 0.0, -abs(lu()), 0.0, 0.0
        if kind == 1:  # B
            return lu(), abs(lu()), lu(), 0.0
        if kind == 2:  # C
            return lu(), -abs(lu()), lu(), 0.0
        if kind == 3:  # D with b << 0 dominating
            e = rng.uniform(-100, 300)
            small = lambda: rng.choice((-1.0, 1.0)) * 10.0 ** (e - rng.uniform(8, 200))
            return small(), -(10.0 ** e), small(), small()
        return lu(), lu(), lu(), lu()

    def solvable(self, kind: str, rhs) -> bool:
        """Call the solver once on a drawn input; count what it raises."""
        self.screened[kind] += 1
        try:
            self.screen[kind](*rhs)
        except Exception as exc:
            self.raised[kind, type(exc).__name__] += 1
            return False
        return True

    def inputs(self):
        k = 0
        while True:
            for kind, rhs in (("two", self._two(k)), ("four", self._four(k))):
                if self.solvable(kind, rhs):
                    yield kind, rhs
            k += 1

    def call(self, x):
        kind, rhs = x
        if kind == "two":
            return self.systems.solve_two(*rhs)
        return self.systems.solve_four(*rhs)

    def check(self, x, out) -> None:
        _, rhs = x
        oracle.check_solution(rhs, out.solution, out.tol)
        label = out.case_label.value
        if label != oracle.expected_case(rhs):
            raise WrongAnswer(f"case {label} for {rhs!r}, expected {oracle.expected_case(rhs)}")

    def counters(self) -> dict:
        out = {}
        for kind in ("two", "four"):
            layer = f"systems.solve_{kind}"
            raised = {exc: n for (k, exc), n in sorted(self.raised.items()) if k == kind}
            out[f"{layer}.screened"] = self.screened[kind]
            out[f"{layer}.failed"] = sum(raised.values())
            out.update((f"{layer}.failed.{exc}", n) for exc, n in raised.items())
        return out


class Decompose(Workload):
    """Calls rotate through two-square, four-square and the criterion.

    Inputs carry their factorization, known by construction or from the
    benchmark's own factoring, so checks never rely on sosq.
    """

    chunk = 30
    KINDS = ("two", "four", "criterion")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import sosq.sumsquares

        self.sumsquares = sosq.sumsquares
        self.representable = 0
        self.asked = 0

    def call(self, x):
        kind, n, _ = x
        ss = self.sumsquares
        if kind == "two":
            return ss.two_square_decompose(n)
        if kind == "four":
            return ss.four_square_decompose(n)
        return ss.is_sum_of_two_squares(n)

    def check(self, x, out) -> None:
        kind, n, fac = x
        if kind == "four":
            oracle.check_squares(n, out.components, 4)
            return
        if kind == "two":
            oracle.check_two_square(n, fac, out)
            yes = out is not None
        else:
            oracle.check_criterion(n, fac, out)
            yes = out
        self.asked += 1
        self.representable += bool(yes)

    def counters(self) -> dict:
        ratio = self.representable / self.asked if self.asked else 0.0
        return {"sumsquares.representable_ratio": ratio}


def size_class(fac: dict[int, int]) -> tuple[int, bool]:
    """(bit length of the factor a factoring method must find or rule out,
    two-square representable), with bit lengths up to 10 merged."""
    primes = sorted(p for p, e in fac.items() for _ in range(e))
    p2 = primes[-2] if len(primes) > 1 else 1
    return max(10, max(p2, math.isqrt(primes[-1])).bit_length()), oracle.representable(fac)


class DecomposeLarge(Decompose):
    """n uniform in [1e11, 1e12], drawn by quota per size class.

    The cost of a call spans three orders of magnitude and is set by n's
    factor sizes, so a 15 s run (~2000 calls) of plain uniform draws
    varies from seed to seed mostly through how many costly n it drew.
    Each kind's stream therefore takes its n from every size class in the
    class's population share (carrying fractions from block to block), so
    runs differ in their n but not in their mix.  The shares were measured
    on 200,000 uniform draws.
    """

    name = "decompose_large"
    trace_rate = 150.0
    LOW, HIGH = 10**11, 10**12
    BLOCK = 10
    # share of n per size class 10..20, not representable / representable
    _SHARES = (
        (0.1018, 0.08232, 0.09821, 0.10763, 0.1054, 0.092285,
         0.07919, 0.065765, 0.05432, 0.041795, 0.023435),
        (0.004655, 0.00524, 0.00825, 0.012395, 0.01527, 0.014985,
         0.01528, 0.0153, 0.01676, 0.019875, 0.01984),
    )
    SHARES = {
        (bits, rep): share
        for rep, row in zip((False, True), _SHARES)
        for bits, share in enumerate(row, start=10)
    }

    def stratified(self):
        pools: dict[tuple, list] = {key: [] for key in self.SHARES}
        owed = dict.fromkeys(self.SHARES, 0.0)
        while True:
            for key, share in self.SHARES.items():
                owed[key] += share * self.BLOCK
            want = {key: int(owed[key]) for key in owed}
            while any(len(pools[key]) < k for key, k in want.items()):
                n = self.rng.randrange(self.LOW, self.HIGH + 1)
                fac = oracle.factor(n)
                pools[size_class(fac)].append((n, fac))
            block = []
            for key, k in want.items():
                block += pools[key][:k]
                del pools[key][:k]
                owed[key] -= k
            self.rng.shuffle(block)
            yield from block

    def inputs(self):
        streams = [self.stratified() for _ in self.KINDS]
        while True:
            for kind, stream in zip(self.KINDS, streams):
                n, fac = next(stream)
                yield kind, n, fac


class DecomposeSmooth(Decompose):
    """Products of 8-30 primes below 2000 (about 50 digits).

    Two-square calls get n representable by construction: primes that are
    3 (mod 4) enter squared.
    """

    name = "decompose_smooth"
    trace_rate = 4000.0
    _PRIMES = oracle.SMALL_PRIMES

    def inputs(self):
        rng = self.rng
        while True:
            for kind in self.KINDS:
                want = rng.randint(8, 30)
                fac: dict[int, int] = {}
                count = 0
                while count < want:
                    p = rng.choice(self._PRIMES)
                    e = 2 if kind == "two" and p % 4 == 3 else 1
                    fac[p] = fac.get(p, 0) + e
                    count += e
                yield kind, math.prod(p**e for p, e in fac.items()), fac


WORKLOADS = {w.name: w for w in (Sweep, Solve, DecomposeLarge, DecomposeSmooth)}
