"""Record semantics of SolveReport, Factorization and SquareRep.

All three are named tuples: immutable, hashable, printed as
Name(field=value, ...), and changed only by copying through _replace.
Their modules load without dataclasses or inspect.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from sosq.systems import CaseFour, CaseTwo, SolveReport, solve_four, solve_two
from sosq.sumsquares import (
    Factorization,
    SquareRep,
    factorize,
    four_square_decompose,
    is_sum_of_two_squares,
    two_square_decompose,
)

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = [
    solve_two(3.0, 4.0),
    solve_four(1.0, 2.0, 3.0, 4.0),
    factorize(2 * 3 * 3 * 5),
    two_square_decompose(65),
    four_square_decompose(7),
]
ids = [type(r).__name__ for r in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_hashable(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert len({record, copy}) == 1


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_asdict_and_replace(record):
    fields = record._asdict()
    assert list(fields) == list(record._fields)
    assert type(record)(**fields) == record
    first = record._fields[0]
    changed = record._replace(**{first: None})
    assert getattr(changed, first) is None
    assert changed[1:] == record[1:]
    assert getattr(record, first) is not None


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


def test_caller_factorization_behaves_as_before():
    given = Factorization(65, ((5, 1), (13, 1)))
    assert two_square_decompose(65, factorization=given) == SquareRep(65, (8, 1))
    by_keyword = Factorization(n=65, factors=((5, 1), (13, 1)))
    assert two_square_decompose(65, factorization=by_keyword) == two_square_decompose(65)
    assert is_sum_of_two_squares(65, factorization=given)
    assert two_square_decompose(21, factorization=Factorization(21, ((3, 1), (7, 1)))) is None
    with pytest.raises(ValueError, match=r"^factorization is of 64, not of 65$"):
        two_square_decompose(65, factorization=Factorization(64, ((2, 6),)))


@pytest.mark.parametrize("module", ["sosq.systems", "sosq.sumsquares"])
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
