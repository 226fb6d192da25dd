"""README's "Examples (live output)" block, run through the CLI.

Each `$ sosq ...` line is run through cli.main; its stdout must be the
lines shown under it, up to the next command.
"""

import shlex
from pathlib import Path

import pytest

from sosq.cli import main

README = Path(__file__).parent.parent / "README.md"


def examples():
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples (live output):", 1)[1].split("```")[1]
    cases = []
    for chunk in block.split("$ sosq ")[1:]:
        command, *shown = chunk.strip("\n").split("\n")
        while shown and not shown[-1]:
            shown.pop()
        cases.append((command, "".join(line + "\n" for line in shown)))
    return cases


EXAMPLES = examples()


def test_block_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(command, shown, capsys, monkeypatch):
    monkeypatch.delenv("SOSQ_SEED", raising=False)
    main(shlex.split(command))
    assert capsys.readouterr().out == shown
