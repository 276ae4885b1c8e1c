"""CLI output and library reports pinned byte for byte against tests/golden/.

The expected outputs were captured from an earlier version of the
program and must not change when the evaluator or the checks are
restructured:

- `check --suite all` on a union whose every row recedes strictly along
  k (so the dual suite, which evaluates the complement closure,
  applies);
- `eval` on a fixed point list for the three-quadrant union and for the
  complement closure of the strict union under -k;
- `check --suite all` on the three-quadrant union under the closed form
  and under bisection (its -inf region reaches the lattice rules of
  every check, its dual suite is Inapplicable, and bisection widens the
  translation tolerance);
- `separate` of the same points from the three-quadrant union in closed
  and interior mode;
- `eval` of the same points under bisection, and from a copy of the
  points file with a trailing label on each row (some of them starting
  with `#`), which takes the line-by-line CSV parser;
- `pareto` of the same points against `pareto_refs.csv`, on the
  nonnegative orthant (finite scores with ties) and on the half-plane
  cone `half_plane_cone.json` with k=(1, 0), whose only row is static
  (scores -inf and nu; one reference scores nu everywhere and has no
  minimizer);
- `pareto` of a one-point cloud against 64 references, and of a
  300-point 3-d cloud against 50 references on `pareto_blocks_cone.json`,
  whose four rows are not unit vectors and one of which is static under
  k=(1, 2, 0.5): the references span several scoring blocks and their
  count is not a multiple of the block size;
- `norm` of a point and `pareto` of the same 300-point cloud on a cone
  file with 2000 generators (`test_big_cone_matches_golden`), whose
  pointedness its three rows decide whatever the number of generators;
  the file is written from a fixed seed at test time rather than checked
  in;
- `contour` of the three-quadrant union, whose -inf corners enter the
  sign tests as a sentinel, and of the negative orthant under k=(1, 0),
  which is nu above y2 = 0;
- `contour` of three random polyhedral unions and complements and of a
  hand-built union whose grid has a saddle centred exactly at the level
  (`CONTOUR_CASES`); between them their grids hold saddle cells of both
  kinds with the centre on each side of the level and on it, corners
  exactly at the level, crossing cells with an edge of equal corner
  values, -inf corners and nu cells. `test_contour_golden_covers`
  recomputes these features so that no golden silently stops covering
  what it names;
- `reports.jsonl`: library-level reports of the checks the CLI does not
  run (monotone, subgradient bound, norm identity) and fault-injected
  reports whose Violated witnesses pin the witness selection.

Every CLI case runs again under small block budgets (`SMALL_BUDGETS`),
so that evaluation, contour strips and Pareto scoring go through many
small blocks.

The four `eval` goldens are also proven against exact arithmetic
(`test_eval_golden_within_exact_bound`); the `check`, `separate`,
`contour` and `pareto` goldens are pinned by their bytes only.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ulset.analysis as analysis
import ulset.cli as cli
from conftest import biased_eval, neg_orthant, reference_exact, three_quadrant_union
from ulset import (
    MonotoneCone,
    OrderCone,
    Shift,
    check_dual_relation,
    check_monotone,
    check_norm_score_identity,
    check_recession_inequality,
    check_subgradient_bound,
    check_sublevel_identity,
    check_translation_invariance,
    make_handle,
)
from ulset.cli import _load_config, main
from ulset.evaluator import KIND_MINUS_INF, KIND_NU, MINUS_INF_SENTINEL, Strategy, evaluate_batch
from ulset.geometry import EPS_MEMBERSHIP

GOLDEN = Path(__file__).parent / "golden"


def _path(name: str) -> str:
    return str(GOLDEN / name)


#: Contour goldens: config and output name, level, bbox, grid and the
#: features (names of :func:`_contour_features`) the grid must contain.
CONTOUR_CASES = [
    ("contour_saddles", -0.64,
     (-5.786110366543817, -3.0522952908447327, 3.776201255385616, 5.090185318111704), 41,
     {"saddle5_above", "saddle10_above", "saddle10_below"}),
    ("contour_minus_inf", -5.7147336530186275,
     (-2.201232684020497, -1.6399400357940905, 5.33659657769879, 1.4978351881887377), 13,
     {"saddle5_below", "zero_corner", "equal_edge", "minus_inf_corner"}),
    ("contour_nu", 1.8082005299968156,
     (-5.759996316364414, -2.730286685200664, -0.3192605834770248, 3.1464449742179004), 9,
     {"saddle10_below", "zero_corner", "equal_edge", "minus_inf_corner", "nu_cell"}),
    ("contour_centre_zero", -0.25, (-4.0, -4.0, 4.0, 4.0), 9, {"saddle_centre_at_level"}),
]


def _contour_argv(name, level, bbox, grid) -> list[str]:
    return ["contour", _path(f"{name}.json"), "--level", repr(level),
            "--bbox=" + ",".join(map(repr, bbox)), "--grid", str(grid)]


#: The three-quadrant contour and nonnegative-orthant pareto calls, also run
#: with --out.
CONTOUR_ARGV = ["contour", _path("three_quadrant.json"), "--level", "0.5", "--bbox=-2,-2,2,2",
                "--grid", "41"]
PARETO_ARGV = ["pareto", "--points", _path("points.csv"), "--k", "1,1",
               "--refs", _path("pareto_refs.csv")]


#: CLI calls and their golden output file and exit code.
CLI_CASES = [
    (["check", _path("strict_union.json"), "--suite", "all", "--seed", "42"],
     "strict_union_check.out", 1),
    (["eval", _path("three_quadrant.json"), "--points", _path("points.csv")],
     "three_quadrant_eval.out", 0),
    (["eval", _path("strict_complement.json"), "--points", _path("points.csv")],
     "strict_complement_eval.out", 0),
    (["check", _path("three_quadrant.json"), "--suite", "all", "--seed", "42"],
     "three_quadrant_check.out", 1),
    (["check", _path("three_quadrant_bisection.json"), "--suite", "all", "--seed", "42"],
     "three_quadrant_bisection_check.out", 1),
    (["separate", _path("three_quadrant.json"), "--points", _path("points.csv"),
      "--mode", "closed"],
     "three_quadrant_separate_closed.out", 1),
    (["separate", _path("three_quadrant.json"), "--points", _path("points.csv"),
      "--mode", "interior"],
     "three_quadrant_separate_interior.out", 1),
    (["eval", _path("three_quadrant_bisection.json"), "--points", _path("points.csv")],
     "three_quadrant_bisection_eval.out", 0),
    (["eval", _path("three_quadrant.json"), "--points", _path("points_labelled.csv")],
     "three_quadrant_labelled_eval.out", 0),
    (PARETO_ARGV, "pareto_nonneg.out", 0),
    (["pareto", "--points", _path("points.csv"), "--cone-file", _path("half_plane_cone.json"),
      "--k", "1,0", "--refs", _path("pareto_refs.csv")],
     "pareto_half_plane.out", 0),
    (CONTOUR_ARGV, "three_quadrant_contour.out", 0),
    (["contour", _path("neg_orthant.json"), "--level", "-0.5", "--bbox=-2,-2,2,2",
      "--grid", "41"],
     "neg_orthant_contour.out", 0),
    *[(_contour_argv(name, level, bbox, grid), f"{name}.out", 0)
      for name, level, bbox, grid, _ in CONTOUR_CASES],
    (["pareto", "--points", _path("pareto_one_point.csv"), "--k", "1,1",
      "--refs", _path("pareto_one_point_refs.csv")],
     "pareto_one_point.out", 0),
    (["pareto", "--points", _path("pareto_blocks.csv"), "--cone-file",
      _path("pareto_blocks_cone.json"), "--k", "1,2,0.5", "--refs", _path("pareto_blocks_refs.csv")],
     "pareto_blocks.out", 0),
]


@pytest.mark.parametrize("argv, expected, code", CLI_CASES)
def test_cli_output_matches_golden(argv, expected, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / expected).read_bytes()


#: Small block budgets, in floats. One float gives one-point blocks, one
#: reference each and one-row contour strips. 45 floats give
#: the 9- and 13-point contour grids strips of 5 and 3 rows, and 123 floats
#: give the 41-point grids strips of 3 rows, so strip boundaries fall on
#: odd rows and cut through saddle, -inf and nu cells.
SMALL_BUDGETS = (1, 45, 123)


@pytest.mark.parametrize("budget, argv, expected, code", [
    pytest.param(budget, *case, id=case[1] if budget == 1 else f"{case[1]}-{budget}")
    for budget in SMALL_BUDGETS for case in CLI_CASES])
def test_cli_output_in_small_blocks(budget, argv, expected, code, monkeypatch, capsys):
    monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / expected).read_bytes()


@pytest.mark.parametrize("argv, expected", [
    (_contour_argv(*CONTOUR_CASES[0][:4]), "contour_saddles.out"),
    (PARETO_ARGV, "pareto_nonneg.out"),
], ids=["contour", "pareto"])
def test_out_file_matches_golden(argv, expected, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


@pytest.mark.parametrize("argv, expected", [
    (PARETO_ARGV, (GOLDEN / "pareto_nonneg.out").read_bytes()),
    (["norm", "--k", "1,1", "--point", "2,-1"], b"2.0\n"),
], ids=["pareto", "norm"])
def test_default_cone_takes_no_svd(argv, expected, no_svd, capsys):
    """The default cone, the nonnegative orthant, is pointed by its axis rows."""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == expected


class _Writes:
    """A text stream, or a file opened for writing, that keeps the text of
    each write call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@pytest.mark.parametrize("argv, expected, to_file", [
    (["eval", _path("three_quadrant.json"), "--points", _path("points.csv")],
     "three_quadrant_eval.out", False),
    (CONTOUR_ARGV, "three_quadrant_contour.out", False),
    (CONTOUR_ARGV, "three_quadrant_contour.out", True),
    (PARETO_ARGV, "pareto_nonneg.out", False),
    (PARETO_ARGV, "pareto_nonneg.out", True),
], ids=["eval", "contour", "contour_out", "pareto", "pareto_out"])
def test_tables_written_a_block_at_a_time(argv, expected, to_file, monkeypatch):
    """Under a one-float budget a block of output holds one line, and no
    write call, to stdout or to --out, holds more than one block."""
    monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", 1)
    stream = _Writes()
    if to_file:
        argv = [*argv, "--out", "table.csv"]
        monkeypatch.setattr(cli, "open", lambda path, mode="r": stream if mode == "w"
                            else open(path, mode), raising=False)
    else:
        monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == 0
    assert "".join(stream.calls).encode() == (GOLDEN / expected).read_bytes()
    assert [text.count("\n") for text in stream.calls] == [1] * len(stream.calls)


@pytest.mark.parametrize("argv, expected", [
    (["norm", "--k", "1,2,0.5", "--point", "0.3,-1,2"], "big_cone_norm.out"),
    (["pareto", "--points", _path("pareto_blocks.csv"), "--k", "1,2,0.5",
      "--refs", _path("pareto_blocks_refs.csv")], "big_cone_pareto.out"),
], ids=["norm", "pareto"])
def test_big_cone_matches_golden(argv, expected, tmp_path, capsys):
    """The nonnegative 3-d orthant with 2000 uniform(0, 1) generators."""
    G = np.random.default_rng(2000).uniform(0.0, 1.0, size=(2000, 3))
    rows = [[-1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"halfspaces": [{"a": a} for a in rows],
                                "generators": G.tolist()}))
    assert main([*argv, "--cone-file", str(cone)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / expected).read_bytes()


def _contour_features(h, level, bbox, grid) -> set[str]:
    """Marching-squares features of the contour grid, from evaluate_batch.

    Corner values are phi - level with -inf as the sentinel; a cell with
    a nu corner is a nu cell, and every other feature is counted on the
    crossing cells (no nu corner, some but not all corners >= 0).
    """
    xs = np.linspace(bbox[0], bbox[2], grid)
    ys = np.linspace(bbox[1], bbox[3], grid)
    X, Y = np.meshgrid(xs, ys)
    vals, kinds = evaluate_batch(h, np.stack([X.ravel(), Y.ravel()], axis=1))
    F = np.where(kinds == KIND_MINUS_INF, MINUS_INF_SENTINEL, vals - level)
    F = np.where(kinds == KIND_NU, np.nan, F).reshape(grid, grid)
    c = np.stack([F[:-1, :-1], F[:-1, 1:], F[1:, 1:], F[1:, :-1]])  # corners 00, 10, 11, 01
    nu = np.isnan(c).any(axis=0)
    case = ((c >= 0) * np.array([1, 2, 4, 8])[:, None, None]).sum(axis=0)
    centre = 0.25 * (((c[0] + c[1]) + c[3]) + c[2])
    crossing = ~nu & (case != 0) & (case != 15)
    cells = {
        "saddle5_above": (case == 5) & (centre >= 0),
        "saddle5_below": (case == 5) & (centre < 0),
        "saddle10_above": (case == 10) & (centre >= 0),
        "saddle10_below": (case == 10) & (centre < 0),
        "saddle_centre_at_level": ((case == 5) | (case == 10)) & (centre == 0),
        "zero_corner": (c == 0).any(axis=0),
        "equal_edge": (c == np.roll(c, 1, axis=0)).any(axis=0),
        "minus_inf_corner": (c == MINUS_INF_SENTINEL).any(axis=0),
    }
    found = {name for name, mask in cells.items() if (crossing & mask).any()}
    return found | ({"nu_cell"} if nu.any() else set())


@pytest.mark.parametrize("name, level, bbox, grid, features", CONTOUR_CASES,
                         ids=[case[0] for case in CONTOUR_CASES])
def test_contour_golden_covers(name, level, bbox, grid, features):
    h = _load_config(_path(f"{name}.json"), None)
    assert features <= _contour_features(h, level, bbox, grid)


#: eval goldens proven against the exact oracle: config, points file, golden.
EVAL_GOLDENS = [
    ("three_quadrant.json", "points.csv", "three_quadrant_eval.out"),
    ("three_quadrant.json", "points_labelled.csv", "three_quadrant_labelled_eval.out"),
    ("strict_complement.json", "points.csv", "strict_complement_eval.out"),
    ("three_quadrant_bisection.json", "points.csv", "three_quadrant_bisection_eval.out"),
]


@pytest.mark.parametrize("config, points, expected", EVAL_GOLDENS,
                         ids=[case[2] for case in EVAL_GOLDENS])
def test_eval_golden_within_exact_bound(config, points, expected):
    """Each line of an eval golden, read from the file, has the kind of
    conftest's reference_exact at its point, and a finite value lies within
    its strategy's error bound of the exact one. Under the closed form that
    is TestExactOracle::test_closed_form_within_forward_error_bound's
    γ_{d+L+2}·W / (a·k), the largest over the moving rows, with its underflow
    terms; under bisection, tol·(1 + |t|) + EPS_MEMBERSHIP / (a·k), a·k the
    least over the moving rows. The comparison is in exact arithmetic on the
    files, so it holds under every BLAS kernel, and a recaptured golden that
    passes it is proven, not only repeated."""
    h = _load_config(_path(config), None)
    d = h.set.dim
    Y = [[float(x) for x in row.split(",")[:d]]
         for row in (GOLDEN / points).read_text().splitlines()]
    lines = (GOLDEN / expected).read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [str(i) for i in range(len(Y))]
    offsets = [o[:, 0] for o in analysis._offsets(h.set.plan[0])]
    u, n = Fraction(1, 2**53), d + len(offsets) + 2
    gamma = n * u / (1 - n * u)
    shifted = [sum(abs(Fraction(o[i])) for o in offsets) for i in range(d)]
    moving = [(a, c, ak)
              for leaf, m in zip(h.set.plan[1], h.motions)
              for a, c, ak in zip(np.delete(leaf.R, m.static, 0).tolist(),
                                  np.delete(leaf.c[:, 0], m.static).tolist(),
                                  np.delete(m.divisor[:, 0], m.static).tolist())]
    for y, line in zip(Y, lines):
        text = line.split(",")[1]
        got = {"-inf": -math.inf, "nu": math.inf}.get(text)
        want = reference_exact(h.set, h.k, y)
        if got is not None or not math.isfinite(want):
            assert got == want, line
            continue
        t = Fraction(float(text))
        if h.strategy is Strategy.BISECTION:
            bound = (Fraction(h.tol) * (1 + abs(want))
                     + max(Fraction(EPS_MEMBERSHIP) / Fraction(ak) for _, _, ak in moving))
        else:
            z = [abs(Fraction(yi)) + oi for yi, oi in zip(y, shifted)]
            bound = max((gamma * (sum(abs(Fraction(ai)) * zi for ai, zi in zip(a, z))
                                  + abs(Fraction(c))) + d * Fraction(1, 2**1073)) / Fraction(ak)
                        for a, c, ak in moving) + Fraction(1, 2**1074)
        err = abs(t - want)
        assert err <= bound, f"{line}: off by {float(err):.3g}, bound {float(bound):.3g}"


def library_reports() -> list[str]:
    """JSON lines of the pinned library-level reports, in file order."""
    diag = make_handle(neg_orthant(2), [1.0, 1.0])
    tq = make_handle(three_quadrant_union(), [1.0, 0.0])
    orthant = MonotoneCone((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    downward = MonotoneCone((np.array([0.0, -1.0]),))
    # steps too short for a functional defect of 1: the set-level probe's witness wins
    nudge = MonotoneCone((np.array([0.0, -0.1]),))
    reports = [
        check_monotone(diag, orthant, strict=True, n_samples=400, seed=42),
        check_monotone(diag, orthant, strict=False, n_samples=400, seed=42),
        check_monotone(diag, downward, n_samples=400, seed=42),
        check_monotone(diag, nudge, n_samples=400, seed=42),
        check_monotone(tq, orthant, strict=True, n_samples=400, seed=42),
        check_monotone(tq, downward, n_samples=400, seed=42),
        check_subgradient_bound(diag, [2.0, 1.0], 400, seed=42),
        check_subgradient_bound(make_handle(Shift(neg_orthant(2), [1.0, -2.0]), [1.0, 2.0]),
                                [0.5, 3.0], 400, seed=7),
        check_norm_score_identity(OrderCone.nonneg(2), [1.0, 1.0], [0.0, 0.0], 300, seed=42),
        check_norm_score_identity(OrderCone.nonneg(3), [1.0, 2.0, 1.0],
                                  [4.0, -1.0, 0.5], 300, seed=7),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_keys", biased_eval())
        reports += [
            check_sublevel_identity(tq, 500, seed=42),
            check_translation_invariance(tq, 500, seed=42),
            check_recession_inequality(tq, 400, seed=42),
            check_dual_relation(diag, 400, seed=42),
        ]
    return [r.to_json_line() for r in reports]


def test_library_reports_match_golden():
    text = "".join(line + "\n" for line in library_reports())
    assert text.encode() == (GOLDEN / "reports.jsonl").read_bytes()
