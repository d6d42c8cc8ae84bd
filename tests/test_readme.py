"""The `$ leibkit ...` examples in README.md, run through main().

Each fenced block that starts with `$ leibkit` is one example: the rest
of the command line is the argv, and the block's remaining lines are the
expected stdout.  An expected line ending in `...` matches as a prefix.
"""

import shlex
from pathlib import Path

import pytest

from leibkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    blocks = README.read_text().split("```")[1::2]
    out = []
    for block in blocks:
        lines = block.strip("\n").splitlines()
        if lines and lines[0].startswith("$ leibkit "):
            out.append((shlex.split(lines[0])[2:], lines[1:]))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(expected)
    for have, want in zip(got, expected):
        if want.endswith("..."):
            assert have.startswith(want[:-3])
        else:
            assert have == want
