"""Square-composition identities and the machinery built on them.

Modules:

* identities  -- exact two-/four-square composition laws (integer) and
                 their norm.
* sampling    -- the seeded, index-addressable UniformSampler; its
                 splitmix64 reference is in tests/oracles.py.
* systems     -- closed-form solvers for the induced nonlinear systems.
* solutions   -- candidate solutions of the functional equations:
                 synthesis, seeded verification, structure extraction
                 (extract_structure(f, arity)).
* stability   -- approximate-equation excess checks and the empirical
                 bounded-vs-multiplicative classifier.
* sumsquares  -- representability and constructive 2-/4-square
                 decompositions of integers.
* cli         -- command-line front end with deterministic JSON reports.
"""

from .identities import (
    IntPair,
    IntQuad,
    compose_two,
    compose_four,
    norm,
)
from .sampling import UniformSampler
from .solutions import (
    Arity,
    MultiplicativeFamily,
    SignumMap,
    SolutionModel,
    VerificationReport,
    evaluate,
    extract_structure,
    verify_equation_two,
    verify_equation_four,
)
from .stability import (
    BoundSpec,
    DiagonalVerdict,
    InvalidBoundError,
    StabilityReport,
    check_conclusion_two,
    check_conclusion_four,
    check_hypothesis_two,
    check_hypothesis_four,
    classify_diagonal,
    run_stability,
)
from .systems import (
    CaseFour,
    CaseTwo,
    NonFiniteInputError,
    ResidualExceededError,
    SolveReport,
    solve_two,
    solve_four,
)
from .sumsquares import (
    Factorization,
    SquareRep,
    factorize,
    four_square_decompose,
    is_sum_of_two_squares,
    two_square_decompose,
)

__version__ = "1.0.0"
