"""Byte-for-byte replay of recorded CLI runs.

``tests/data/cli_golden.txt`` holds one record per command: a ``$`` line
with the arguments, an ``exit`` line with the status, and the stdout lines,
each prefixed with ``| ``.  Any change to a verb's output or exit status
shows up here as a diff.  After an intended output change, regenerate the
file with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
from pathlib import Path

import pytest

from latticevc import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

SOURCES = ("fig1", "fig2", "fig3b", "boolean:3", "chain:2", "subspace:2:3",
           "product(boolean:1,chain:2)", "product(chain:2,fig3b)")

VERBS = (("build",), ("build", "--emit"), ("rc",), ("mobius",),
         ("export-dot",), ("ssp",), ("ssp", "--strategy", "certificate"),
         ("ssp", "--strategy", "brute", "--budget", "4096"))

COMMANDS = tuple((verb[0], src) + verb[1:]
                 for src in SOURCES for verb in VERBS) + (
    ("scan", "--max-n", "6"),
    ("scan", "--max-n", "6", "--format", "tsv"),
)


def _run(argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def _record(argv, code, stdout):
    if stdout and not stdout.endswith("\n"):
        raise ValueError(f"stdout of {argv} does not end with a newline")
    lines = [f"$ {' '.join(argv)}", f"exit {code}"]
    lines += ["| " + ln for ln in stdout.splitlines()]
    return "\n".join(lines) + "\n"


def _parse(text):
    """Map each recorded argv tuple to its (exit status, stdout)."""
    records = {}
    argv = None
    for line in text.splitlines():
        if line.startswith("$ "):
            argv = tuple(line[2:].split(" "))
            records[argv] = [None, ""]
        elif line.startswith("exit "):
            records[argv][0] = int(line[5:])
        elif line.startswith("| "):
            records[argv][1] += line[2:] + "\n"
        else:
            raise ValueError(f"bad golden line {line!r}")
    return {k: tuple(v) for k, v in records.items()}


@pytest.fixture(scope="module")
def golden():
    return _parse(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert tuple(golden) == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_matches_golden(golden, argv):
    assert _run(argv) == golden[argv]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_record(argv, *_run(argv)) for argv in COMMANDS),
                      encoding="utf-8")
