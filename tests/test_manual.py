"""Every `cnskit ...` example in MANUAL.md prints what the manual shows.

An example is a line of a fenced block that starts with "cnskit ",
followed by its output up to the next blank line or the end of the block.
Standard output and standard error are compared together, as a terminal
shows them; an error must come on standard error, and an error or a
violation with a nonzero exit code.  A --json example shown wrapped is
compared with its lines joined.
"""

import shlex
from pathlib import Path

import pytest

from cnskit.cli import main

MANUAL = Path(__file__).resolve().parents[1] / "MANUAL.md"


def manual_examples():
    examples = []
    in_block = False
    current = None
    for line in MANUAL.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif not in_block or not line.strip():
            current = None
        elif line.startswith("cnskit "):
            current = (line, [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(command, "".join(lines) if "--json" in command else "\n".join(lines))
            for command, lines in examples]


EXAMPLES = manual_examples()


def test_manual_has_examples():
    assert len(EXAMPLES) >= 18


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_manual_example(command, expected, capsys):
    code = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert (out + err).rstrip("\n") == expected
    # an error goes to stderr, and an error or a violation exits nonzero
    assert bool(err) == expected.startswith("error: ")
    assert (code != 0) == expected.startswith(("error: ", "violation "))
