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
- `contour` of the three-quadrant union, whose -inf corners enter the
  sign tests as a sentinel, and of the negative orthant under k=(1, 0),
  which is nu above y2 = 0;
- `reports.jsonl`: library-level reports of the checks the CLI does not
  run (monotone, subgradient bound, norm identity) and fault-injected
  reports whose Violated witnesses pin the witness selection.
"""

from pathlib import Path

import numpy as np
import pytest

import ulset.analysis as analysis
from conftest import biased_eval, neg_orthant, rec_handle_for, three_quadrant_union
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
    (["pareto", "--points", _path("points.csv"), "--k", "1,1", "--refs", _path("pareto_refs.csv")],
     "pareto_nonneg.out", 0),
    (["pareto", "--points", _path("points.csv"), "--cone-file", _path("half_plane_cone.json"),
      "--k", "1,0", "--refs", _path("pareto_refs.csv")],
     "pareto_half_plane.out", 0),
    (["contour", _path("three_quadrant.json"), "--level", "0.5", "--bbox=-2,-2,2,2",
      "--grid", "41"],
     "three_quadrant_contour.out", 0),
    (["contour", _path("neg_orthant.json"), "--level", "-0.5", "--bbox=-2,-2,2,2",
      "--grid", "41"],
     "neg_orthant_contour.out", 0),
])
def test_cli_output_matches_golden(argv, expected, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / expected).read_bytes()


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
    rec = rec_handle_for(tq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "evaluate_batch", biased_eval())
        reports += [
            check_sublevel_identity(tq, 500, seed=42),
            check_translation_invariance(tq, 500, seed=42),
            check_recession_inequality(tq, rec, 400, seed=42),
            check_dual_relation(diag, 400, seed=42),
        ]
    return [r.to_json_line() for r in reports]


def test_library_reports_match_golden():
    text = "".join(line + "\n" for line in library_reports())
    assert text.encode() == (GOLDEN / "reports.jsonl").read_bytes()
