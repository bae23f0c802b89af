"""Golden CLI corpus: every subcommand's --no-timestamp output, byte for byte.

The documents and the recorded stdout live in tests/data/cli_golden/.
``resonant.json`` is the gradient field of y1^2/2 + y1^2 y2 + y2^2 at the
resonant lambda = 2 with an obstructed v, so dual-kernel is non-empty and
solve-jet exits 4; ``complex.json`` is a resonant problem over the
complex field, with complex dual covectors.  ``grid.json`` is a
non-resonant split-mode problem with one point outside its radius.
``apps.json`` holds the heat, wkb, estimates and sternberg blocks.

A change that moves an output on purpose re-records the corpus with

    PYTHONPATH=src python tests/test_cli_golden.py

and declares the difference.
"""

import contextlib
import io
from pathlib import Path

import pytest

from transportkit.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"

# (document, command, extra flags, exit code)
CASES = [
    ("resonant", "spectrum", (), 0),
    ("resonant", "solve-jet", (), 4),
    ("resonant", "kernel", (), 0),
    ("resonant", "dual-kernel", (), 0),
    ("resonant", "solvable", (), 0),
    ("resonant", "sternberg", (), 0),
    ("complex", "solve-jet", (), 4),
    ("complex", "kernel", (), 0),
    ("complex", "dual-kernel", (), 0),
    ("complex", "sternberg", (), 0),
    ("grid", "solve-grid", (), 0),
    ("grid", "solve-grid", ("--output", "json"), 0),
    ("grid", "spectrum", ("--output", "csv"), 0),
    ("apps", "heat", (), 0),
    ("apps", "heat", ("--output", "csv"), 0),
    ("apps", "wkb", (), 0),
    ("apps", "verify-estimates", (), 0),
    ("apps", "sternberg", (), 0),
]


def case_id(case):
    doc, command, flags, _ = case
    return ".".join([doc, command, *(f for f in flags if not f.startswith("-"))])


def run_case(doc, command, flags):
    """(exit code, stdout) of one CLI run on a corpus document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(DATA / f"{doc}.json"), "--no-timestamp",
                     *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_output_matches_recording(case):
    doc, command, flags, expected_code = case
    code, out = run_case(doc, command, flags)
    assert code == expected_code
    assert out == (DATA / f"{case_id(case)}.out").read_text()


def test_every_subcommand_is_recorded():
    parser_commands = {"spectrum", "solve-jet", "solve-grid", "kernel",
                       "dual-kernel", "solvable", "heat", "wkb",
                       "verify-estimates", "sternberg"}
    assert {command for _, command, _, _ in CASES} == parser_commands


if __name__ == "__main__":
    for case in CASES:
        code, out = run_case(*case[:3])
        assert code == case[3], (case, code)
        (DATA / f"{case_id(case)}.out").write_text(out)
