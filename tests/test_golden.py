"""CLI output pinned byte for byte against files in tests/golden/.

The expected outputs were captured from an earlier version of the
program and must not change when the evaluator is restructured:
`check --suite all` on a union whose every row recedes strictly along k
(so the dual suite, which evaluates the complement closure, applies),
and `eval` on a fixed point list for the three-quadrant union and for
the complement closure of that strict union under -k.
"""

from pathlib import Path

import pytest

from ulset.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _path(name: str) -> str:
    return str(GOLDEN / name)


@pytest.mark.parametrize("argv, expected, code", [
    (["check", _path("strict_union.json"), "--suite", "all", "--seed", "42"],
     "strict_union_check.out", 1),
    (["eval", _path("three_quadrant.json"), "--points", _path("points.csv")],
     "three_quadrant_eval.out", 0),
    (["eval", _path("strict_complement.json"), "--points", _path("points.csv")],
     "strict_complement_eval.out", 0),
])
def test_cli_output_matches_golden(argv, expected, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / expected).read_bytes()
