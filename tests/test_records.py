"""Record semantics of every sosq record.

Each is a named tuple: immutable, hashable (but for StabilityReport, which
holds a dict), printed as Name(field=value, ...), and changed only by
copying through _replace, which validates as the constructor does.  Their
modules, and the CLI, load without dataclasses or inspect.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from oracles import FixedSampler, flatten
from sosq.sampling import UniformSampler
from sosq.solutions import (
    Arity,
    MultiplicativeFamily,
    SolutionModel,
    VerificationReport,
    evaluate,
    verify_equation_two,
)
from sosq.stability import (
    BoundSpec,
    DiagonalVerdict,
    ExcessReport,
    StabilityReport,
    check_hypothesis_two,
    classify_diagonal,
    run_stability,
)
from sosq.systems import CaseFour, CaseTwo, SolveReport, solve_four, solve_two
from sosq.sumsquares import (
    factorize,
    four_square_decompose,
    two_square_decompose,
)

SRC = Path(__file__).resolve().parent.parent / "src"

SQUARE = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2.0))
ONE = BoundSpec.constant(Arity.TWO, 1.0)
STABILITY = run_stability(SQUARE, ONE, seed=3, samples=20)

RECORDS = [
    solve_two(3.0, 4.0),
    solve_four(1.0, 2.0, 3.0, 4.0),
    factorize(2 * 3 * 3 * 5),
    two_square_decompose(65),
    four_square_decompose(7),
    UniformSampler(3, 20),
    SQUARE.m,
    SQUARE,
    verify_equation_two(SQUARE, UniformSampler(3, 20)),
    ONE,
    check_hypothesis_two(SQUARE, ONE, FixedSampler(((1.0, 2.0, 3.0, 4.0),))),
    classify_diagonal(lambda t: -1.0),
    STABILITY,
]
ids = [type(r).__name__ for r in RECORDS]
HASHABLE = [r for r in RECORDS if r is not STABILITY]
# a value for one field that its record accepts; the first field, set to
# None, for the rest
REPLACEMENTS = {"BoundSpec": ("bounds", (abs,) * 4)}


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", HASHABLE, ids=[type(r).__name__ for r in HASHABLE])
def test_hashable(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert len({record, copy}) == 1


def test_stability_report_equal_but_unhashable():
    copy = StabilityReport(*STABILITY)
    assert copy == STABILITY and copy is not STABILITY
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(STABILITY)


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_asdict_and_replace(record):
    fields = record._asdict()
    assert list(fields) == list(record._fields)
    assert type(record)(**fields) == record
    name, value = REPLACEMENTS.get(type(record).__name__, (record._fields[0], None))
    index = record._fields.index(name)
    changed = record._replace(**{name: value})
    assert type(changed) is type(record)
    assert getattr(changed, name) is value
    assert changed[:index] + changed[index + 1:] == record[:index] + record[index + 1:]
    assert getattr(record, name) is not value


@pytest.mark.parametrize(
    "record,change,message",
    [
        (UniformSampler(3, 20), {"count": -1}, "sample count -1 is below 0"),
        (SQUARE, {"sign": 2}, "sign is 2; must be"),
        (ONE, {"bounds": (abs,)}, "arity 2 needs 4 bounds, got 1"),
    ],
    ids=["UniformSampler", "SolutionModel", "BoundSpec"],
)
def test_replace_validates(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())


def test_defaults():
    assert MultiplicativeFamily(MultiplicativeFamily.zero().kind).exponent == 0.0
    assert SolutionModel(Arity.TWO, SQUARE.m).sign == 1
    report = VerificationReport(2, 1, 0, 1e-9, 0.0, 0.0, (1.0,) * 4, "PASS")
    assert report.failure_reason is None


def test_sampler_subclass():
    # a subclass, as a tracer wraps the sampler, keeps the fields and checks
    class Sub(UniformSampler):
        def blocks(self, width):
            return super().blocks(width)

    sampler = Sub(3, 20)
    assert sampler == UniformSampler(3, 20) == UniformSampler(seed=3, count=20)
    assert flatten(sampler, 2) == flatten(UniformSampler(3, 20), 2)
    assert type(sampler._replace(count=5)) is Sub
    with pytest.raises(ValueError, match="sample count -1 is below 0"):
        Sub(3, -1)


def test_solution_model_is_its_own_function():
    # calling a model adds no field: it hashes and copies as a plain record
    points = [(3.0, 4.0), (0.0, -0.0), (-1.5, 1e-3), (1e200, 1e200)]
    for model in (SQUARE, SQUARE._replace(sign=-1), SQUARE._replace(arity=Arity.FOUR)):
        assert callable(model) and callable(model.columns)
        assert hash(model) == hash(tuple(model))
        for point in points:
            point = point * (int(model.arity) // 2)
            assert repr(model(*point)) == repr(evaluate(model, point))
    negated = SQUARE._replace(sign=-1)
    assert type(negated) is SolutionModel and negated(3.0, 4.0) == -25.0
    assert negated._replace(sign=1) == SQUARE


def test_new_record_reprs():
    assert repr(UniformSampler(3, 20)) == "UniformSampler(seed=3, count=20)"
    assert repr(SQUARE) == (
        "SolutionModel(arity=<Arity.TWO: 2>, m=MultiplicativeFamily("
        "kind=<FamilyKind.POWER: 'power'>, exponent=2.0), sign=1)"
    )
    assert repr(VerificationReport(2, 1, 0, 1e-9, 0.0, 0.0, (1.0, 2.0), "PASS")) == (
        "VerificationReport(arity=2, sample_count=1, seed=0, tol=1e-09, "
        "max_abs_residual=0.0, max_rel_residual=0.0, worst_point=(1.0, 2.0), "
        "verdict='PASS', failure_reason=None)"
    )
    assert repr(BoundSpec(Arity.TWO, (abs,) * 4)) == (
        "BoundSpec(arity=<Arity.TWO: 2>, bounds=(" + ", ".join([repr(abs)] * 4) + "))"
    )
    assert repr(ExcessReport(0.0, None, 0.0, 1.0, 0, 1, 0.0, True)) == (
        "ExcessReport(max_excess=0.0, worst_point=None, defect_at_worst=0.0, "
        "bound_at_worst=1.0, sample_count=0, seed=1, tol=0.0, passed=True)"
    )
    assert repr(classify_diagonal(lambda t: -1.0)) == (
        "DiagonalReport(verdict=<DiagonalVerdict.BOUNDED: 'BOUNDED'>, delta=0.0, "
        "max_mult_residual=1.0, worst_pair=(-64.0, -64.0), sup_abs=1.0, sup_at=-64.0, "
        "growth_threshold=1.0, mult_tol=1e-06)"
    )
    assert repr(StabilityReport(2, 1, 0, 0.0, 0.0, 0.0, "BOUNDED", {})) == (
        "StabilityReport(arity=2, seed=1, sample_count=0, tol=0.0, "
        "hypothesis_max_violation=0.0, conclusion_max_violation=0.0, "
        "diagonal_classification='BOUNDED', evidence={})"
    )


def test_report_dicts():
    # the CLI renders _asdict(); the diagonal evidence is it without the verdict
    diagonal = classify_diagonal(lambda t: -1.0)
    assert diagonal.verdict is DiagonalVerdict.BOUNDED
    assert diagonal.to_dict() == {
        k: v for k, v in diagonal._asdict().items() if k != "verdict"
    }
    assert STABILITY.passed
    assert STABILITY._asdict()["evidence"] is STABILITY.evidence


def test_reprs():
    assert repr(solve_two(0.0, 4.0)) == (
        "SolveReport(solution=(2.0, 0.0), case_label=<CaseTwo.U0_VPOS: 'U0_VPOS'>, "
        "residual=0.0, norm_residual=0.0, tol=1e-09, alpha=None)"
    )
    assert repr(solve_four(0.0, 0.0, 0.0, 1.0)) == (
        "SolveReport(solution=(1.0, 0.0, 0.0, 0.0), case_label=<CaseFour.D: 'D'>, "
        "residual=0.0, norm_residual=0.0, tol=1e-06, alpha=0.0)"
    )
    assert repr(factorize(12)) == "Factorization(n=12, factors=((2, 2), (3, 1)))"
    assert repr(two_square_decompose(65)) == "SquareRep(n=65, components=(8, 1))"
    assert repr(four_square_decompose(7)) == "SquareRep(n=7, components=(2, 1, 1, 1))"


def test_alpha_defaults_to_none():
    report = SolveReport((2.0, 1.0), CaseTwo.UNZ, 0.0, 0.0, 1e-9)
    assert report.alpha is None
    assert solve_two(3.0, 4.0).alpha is None
    assert solve_four(0.0, -4.0, 0.0, 0.0).alpha is None
    assert solve_four(1.0, 4.0, 1.0, 0.0).case_label is CaseFour.B
    assert solve_four(1.0, 4.0, 1.0, 0.0).alpha is not None


@pytest.mark.parametrize(
    "module",
    [
        "sosq.systems",
        "sosq.sumsquares",
        "sosq.sampling",
        "sosq.solutions",
        "sosq.stability",
        "sosq.cli",
    ],
)
def test_module_loads_without_dataclasses(module):
    # -S: no site module, so only the import itself can load them
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
