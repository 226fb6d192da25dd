"""Square-composition identities and the machinery built on them.

The package root imports nothing: import each name from its module, e.g.
`from sosq.systems import solve_two`, which loads the solvers alone.

* identities -- exact two-/four-square composition laws and their norm.
* sampling   -- the seeded, index-addressable UniformSampler.
* systems    -- closed-form solvers for the induced nonlinear systems.
* solutions  -- candidate solutions of the functional equations:
                synthesis, seeded verification, structure extraction.
* exprs      -- the one-variable bound expressions of --bounds.
* stability  -- approximate-equation excess checks and the
                bounded-vs-multiplicative classifier.
* sumsquares -- representability and 2-/4-square decompositions of integers.
* jsonfmt    -- deterministic JSON with 17-significant-digit floats.
* cli        -- command-line front end with deterministic JSON reports.
"""

__version__ = "1.0.0"
