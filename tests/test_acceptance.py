"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import time

from oracles import (
    LADDER,
    DiagonalSampler,
    StreamSampler,
    extract_structure,
    is_two_square,
    stream_for,
)
from sosq.cli import main
from sosq.identities import compose_two, compose_four, norm
from sosq.sampling import UniformSampler
from sosq.solutions import (
    Arity,
    MultiplicativeFamily,
    SolutionModel,
    verify_equation_two,
    verify_equation_four,
)
from sosq.stability import (
    BoundSpec,
    check_conclusion_two,
    check_hypothesis_two,
    classify_diagonal,
)
from sosq.systems import CaseFour, solve_two, solve_four
from sosq.sumsquares import (
    four_square_decompose,
    is_sum_of_two_squares,
    two_square_decompose,
)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} | {label}")
    assert ok, label


def test_criterion_1_exact_norm_multiplicativity():
    started = time.perf_counter()
    count = 100_000
    for i in range(count):
        rng = stream_for(29, i)
        p1 = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        p2 = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        assert norm(compose_two(p1, p2)) == norm(p1) * norm(p2)
    for i in range(count):
        rng = stream_for(31, i)
        q1 = tuple(rng.randint(-1000, 1000) for _ in range(4))
        q2 = tuple(rng.randint(-1000, 1000) for _ in range(4))
        assert norm(compose_four(q1, q2)) == norm(q1) * norm(q2)
    elapsed = time.perf_counter() - started
    report(
        elapsed < 10.0,
        f"criterion 1: exact norm law, 10^5 pairs + 10^5 quads in "
        f"[-10^3, 10^3], zero tolerance ({elapsed:.1f}s < 10s)",
    )


def test_criterion_2_solve_two_round_trip():
    worst = worst_norm = 0.0
    for u, v in StreamSampler(37, 10_000, -100.0, 100.0).tuples(2):
        rep = solve_two(u, v)
        worst = max(worst, rep.residual)
        worst_norm = max(worst_norm, rep.norm_residual)
    # stress region: v < -10|u|, where the naive formula cancels
    for i, (u,) in enumerate(StreamSampler(41, 2_000, -1.0, 1.0).tuples(1)):
        v = -(10.0 * abs(u) + 0.001) * (1.0 + 99.0 * i / 2000.0)
        rep = solve_two(u, v)
        worst = max(worst, rep.residual)
        worst_norm = max(worst_norm, rep.norm_residual)
    report(
        worst <= 1e-9 and worst_norm <= 1e-9,
        f"criterion 2: solve_two round-trip, 10^4 samples + cancellation "
        f"stress; residual {worst:.2e} <= 1e-9, norm gap {worst_norm:.2e}",
    )


def test_criterion_3_solve_four_round_trip():
    worst = worst_norm = 0.0
    labels = set()
    for a, b, c, d in StreamSampler(43, 10_000, -100.0, 100.0).tuples(4):
        rep = solve_four(a, b, c, d)
        labels.add(rep.case_label)
        worst = max(worst, rep.residual)
        worst_norm = max(worst_norm, rep.norm_residual)
        if rep.case_label is CaseFour.D:
            assert rep.alpha >= 0.0 and rep.alpha >= -d
    # the measure-zero branches, forced explicitly
    targeted = [(0.0, -2.0, 0.0, 0.0), (1.0, 3.0, -2.0, 0.0),
                (4.0, -1.0, 2.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    for a, b, c, d in targeted:
        rep = solve_four(a, b, c, d)
        labels.add(rep.case_label)
        worst = max(worst, rep.residual)
        worst_norm = max(worst_norm, rep.norm_residual)
        if rep.case_label is CaseFour.D and rep.alpha is not None:
            assert rep.alpha >= 0.0 and rep.alpha >= -d
    report(
        worst <= 1e-6 and worst_norm <= 1e-6 and labels == set(CaseFour),
        f"criterion 3: solve_four round-trip, 10^4 samples + targeted "
        f"branches {sorted(l.value for l in labels)}; residual {worst:.2e} "
        f"<= 1e-6, alpha admissible in branch D",
    )


def test_criterion_4_model_verification():
    ok = True
    details = []
    for c in (0, 1, 2, 3):
        f2 = SolutionModel(Arity.TWO, MultiplicativeFamily.power(c))
        f4 = SolutionModel(Arity.FOUR, MultiplicativeFamily.power(c))
        r2 = verify_equation_two(f2, UniformSampler(47 + c, 10_000), 1e-9)
        r4 = verify_equation_four(f4, UniformSampler(53 + c, 10_000), 1e-9)
        ok = ok and r2.verdict == "PASS" and r4.verdict == "PASS"
        details.append(f"c={c}:{max(r2.max_rel_residual, r4.max_rel_residual):.0e}")
    bad = verify_equation_two(lambda x, y: x + y, UniformSampler(59, 10_000), 1e-9)
    ok = ok and bad.verdict == "FAIL" and len(bad.worst_point) == 4
    report(
        ok,
        "criterion 4: power models c in {0,1,2,3} pass both equations at "
        f"1e-9 over 10^4 samples ({', '.join(details)}); x+y fails with "
        f"worst point recorded",
    )


def test_criterion_5_structure_extraction():
    f = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2))
    structure = extract_structure(f, 2, tol=1e-9)
    table = dict(structure.m_table)
    m_ok = all(
        abs(table[t] - t * t) <= 1e-9 * (1.0 + t * t) for t in LADDER
    )
    defined = [
        s for p, s in structure.sigma_table if p not in set(structure.zero_m_points)
    ]
    sigma_ok = all(abs(s - 1.0) <= 1e-9 for s in defined)
    report(
        m_ok and sigma_ok and structure.consistent,
        "criterion 5: extraction recovers m(t) = t^2 within 1e-9 on the "
        "probe ladder and sigma = +1 wherever defined",
    )


def test_criterion_6_stability():
    norm2f = lambda x, y: x * x + y * y
    zero = BoundSpec.constant(Arity.TWO, 0.0)
    quarter = BoundSpec.constant(Arity.TWO, 0.25)
    exact_sampler = StreamSampler(61, 10_000, -100, 100, integer=True)

    hyp = check_hypothesis_two(norm2f, zero, exact_sampler)
    con = check_conclusion_two(norm2f, zero, exact_sampler)
    exact_ok = hyp.max_excess == 0.0 and con.max_excess == 0.0

    half = lambda x, y: 0.5
    half_hyp = check_hypothesis_two(half, quarter, exact_sampler)
    half_con = check_conclusion_two(half, quarter, exact_sampler)
    half_cls = classify_diagonal(lambda t: half(t, 0.0))
    half_ok = (
        half_hyp.max_excess == 0.0
        and half_con.max_excess == 0.0
        and half_cls.verdict.value == "BOUNDED"
    )

    norm_cls = classify_diagonal(lambda t: norm2f(t, 0.0))
    mult_ok = norm_cls.verdict.value == "MULTIPLICATIVE"

    noisy = lambda x, y: x * x + y * y + 0.125 * (x - y)
    diag_con = check_conclusion_two(noisy, quarter, UniformSampler(67, 5_000))
    diag_hyp = check_hypothesis_two(noisy, quarter, DiagonalSampler(StreamSampler(67, 5_000)))
    diag_ok = (
        diag_con.max_excess == diag_hyp.max_excess
        and diag_con.worst_point + diag_con.worst_point == diag_hyp.worst_point
    )

    report(
        exact_ok and half_ok and mult_ok and diag_ok,
        "criterion 6: exact solutions give zero excess under zero bounds; "
        "f=1/2 under 1/4 bounds gives zero excess and classifies BOUNDED; "
        "norm model classifies MULTIPLICATIVE; conclusion = hypothesis on "
        "the diagonal, exactly",
    )


def test_criterion_7_number_theory():
    started = time.perf_counter()
    disagreements = 0
    for n in range(1, 10_001):
        criterion = is_sum_of_two_squares(n)
        if criterion != is_two_square(n):
            disagreements += 1
        rep = two_square_decompose(n)
        if criterion:
            a, b = rep.components
            assert a * a + b * b == n
        else:
            assert rep is None
    for n in range(10_001):
        comps = four_square_decompose(n).components
        assert sum(c * c for c in comps) == n
    elapsed = time.perf_counter() - started
    report(
        disagreements == 0 and elapsed < 60.0,
        f"criterion 7: criterion vs brute force agree for all n <= 10^4 "
        f"({disagreements} disagreements); all decompositions exact "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_8_cli_determinism(capsys, tmp_path):
    argv = ["verify", "--arity", "2", "--model", "power:c=2",
            "--samples", "2000", "--seed", "7", "--output", "json"]
    out1_path, out2_path = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(argv + ["--out", str(out1_path)])
    code2 = main(argv + ["--out", str(out2_path)])
    capsys.readouterr()
    bytes1, bytes2 = out1_path.read_bytes(), out2_path.read_bytes()
    parsed = json.loads(bytes1)
    report(
        code1 == code2 == 0 and bytes1 == bytes2 and parsed["verdict"] == "PASS",
        "criterion 8: identical seeds give byte-identical JSON verification "
        "reports",
    )
