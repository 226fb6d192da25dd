"""Every exported name resolves, and each module loads only what it uses.

Each module's `__all__` names attributes the module has.  The package root
imports nothing, so importing one module in a fresh interpreter loads that
module and the sosq modules it imports, and no other.  The benchmark's
tracer wraps package attributes by name, and every one of them resolves.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sosq

MODULES = sorted(info.name for info in pkgutil.iter_modules(sosq.__path__))
# the directory holding the sosq under test, so the fresh interpreter loads it
ROOT = str(Path(sosq.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sosq.{name}")
    names = getattr(module, "__all__", ())
    assert not [attr for attr in names if not hasattr(module, attr)]


@pytest.mark.parametrize(
    "name,loaded",
    [
        ("sosq.systems", ["sosq", "sosq.systems"]),
        ("sosq.sumsquares", ["sosq", "sosq.identities", "sosq.sumsquares"]),
        ("sosq.sampling", ["sosq", "sosq.sampling"]),
        ("sosq.stability", ["sosq", "sosq.exprs", "sosq.identities", "sosq.sampling",
                            "sosq.solutions", "sosq.stability"]),
    ],
)
def test_import_loads_only_its_dependencies(name, loaded):
    code = (
        f"import sys; sys.path.insert(0, {ROOT!r}); import {name}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'sosq'))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == loaded


def test_tracer_names_resolve():
    # perfbench/tracing.py's install looks each wrapped name up with a bare
    # getattr: a name the package no longer has fails here, named in the
    # AttributeError
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    code = (
        f"import sys; sys.path[:0] = [{ROOT!r}, {perfbench!r}]; "
        "from tracing import Tracer, install; install(Tracer()); print('installed')"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "installed\n"), proc.stderr
