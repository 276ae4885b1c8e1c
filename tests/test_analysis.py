import json
import tracemalloc

import numpy as np
import pytest

import ulset.analysis as analysis
from ulset.analysis import MAX_SAMPLES
from ulset import (
    HOLDS,
    INAPPLICABLE,
    VIOLATED,
    HalfSpace,
    InvalidInput,
    MonotoneCone,
    NU,
    OrderCone,
    Polyhedron,
    PreconditionFailed,
    SetIntersection,
    SetUnion,
    Shift,
    UlsetError,
    check_dual_relation,
    check_monotone,
    check_norm_score_identity,
    check_recession_inequality,
    check_sublevel_identity,
    check_subgradient_bound,
    check_translation_invariance,
    classify_convexity,
    estimate_lipschitz,
    make_handle,
    separate,
)
from conftest import (biased_eval, neg_orthant, reference_check_monotone,
                      reference_draw_domain, three_quadrant_union)


class TestSublevelIdentity:
    def test_three_quadrant_holds(self, tq_handle):
        r = check_sublevel_identity(tq_handle, 500, seed=42)
        assert r.verdict == HOLDS
        assert r.applicable > 0

    def test_corrupted_violated(self, tq_handle, monkeypatch):
        monkeypatch.setattr(analysis, "_keys", biased_eval())
        r = check_sublevel_identity(tq_handle, 500, seed=42)
        assert r.verdict == VIOLATED
        assert r.witness is not None

    def test_nu_region_excluded_but_holds(self, cone_edge):
        r = check_sublevel_identity(cone_edge, 500, seed=42)
        assert r.verdict == HOLDS
        assert r.applicable < 500 * 10  # rejection actually happened

    def test_all_nu_inapplicable(self, cone_edge):
        # the domain {y2 <= 0} misses this box entirely
        r = check_sublevel_identity(cone_edge, 200, seed=42, bbox=(5.0, 10.0))
        assert r.verdict == INAPPLICABLE
        assert r.applicable == 0


    @pytest.mark.parametrize("scale", [1e-1, 1e-4, 1e-5, 1e-7])
    def test_small_row_scale_holds(self, scale):
        # a·k = 2*scale < 1: a membership slack on a·y - b would be a band
        # of slack / (a·k) in t, wider than the excluded |phi - t| <= 1e-6
        p = Polyhedron((HalfSpace([scale, 0.0], 0.0), HalfSpace([0.0, scale], 0.0)))
        r = check_sublevel_identity(make_handle(p, [1.0, 1.0]), 2000, seed=0)
        assert r.verdict == HOLDS
        assert r.applicable == 2000


class TestTranslationInvariance:
    def test_closed_form_holds(self, tq_handle):
        r = check_translation_invariance(tq_handle, 500, seed=42)
        assert r.verdict == HOLDS
        assert r.max_defect <= 1e-7

    def test_bisection_holds(self, tq_bisect):
        r = check_translation_invariance(tq_bisect, 300, seed=42)
        assert r.verdict == HOLDS

    def test_corrupted_violated(self, tq_handle, monkeypatch):
        monkeypatch.setattr(analysis, "_keys", biased_eval())
        r = check_translation_invariance(tq_handle, 500, seed=42)
        assert r.verdict == VIOLATED


class TestMonotone:
    def test_orthant_cone_strictly_monotone(self, cone_diag):
        B = MonotoneCone((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        r = check_monotone(cone_diag, B, strict=True, n_samples=400, seed=42)
        assert r.verdict == HOLDS

    def test_downward_generator_violated(self, cone_diag):
        B = MonotoneCone((np.array([0.0, -1.0]),))
        r = check_monotone(cone_diag, B, n_samples=400, seed=42)
        assert r.verdict == VIOLATED
        assert r.witness is not None

    def test_zero_cone_trivially_holds(self, cone_diag):
        r = check_monotone(cone_diag, MonotoneCone(()), strict=True, n_samples=100, seed=42)
        assert r.verdict == HOLDS

    def test_witness_rerunnable(self, cone_diag):
        B = MonotoneCone((np.array([0.0, -1.0]),))
        r1 = check_monotone(cone_diag, B, n_samples=400, seed=42)
        r2 = check_monotone(cone_diag, B, n_samples=400, seed=42)
        assert r1 == r2

    def test_generators_of_another_dimension_refused(self, cone_diag):
        B = MonotoneCone((np.array([1.0, 0.0, 0.0]),))
        with pytest.raises(InvalidInput, match="generator has dimension 3, expected 2"):
            check_monotone(cone_diag, B, n_samples=10)

    def test_generators_disagreeing_on_dimension_refused(self):
        with pytest.raises(InvalidInput, match=r"cone generators disagree on dimension: \[2, 3\]"):
            MonotoneCone((np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])))


class TestConvexityClassification:
    def test_convex_cone_all_hold(self, cone_diag):
        flags = classify_convexity(cone_diag, 400, seed=42)
        assert set(flags) == {"convex", "positively_homogeneous", "subadditive", "sublinear"}
        assert all(r.verdict == HOLDS for r in flags.values())

    def test_three_quadrant_union_violations(self, tq_handle):
        flags = classify_convexity(tq_handle, 600, seed=42)
        assert flags["convex"].verdict == VIOLATED
        assert flags["convex"].witness is not None
        assert flags["sublinear"].verdict == VIOLATED

    def test_shifted_cone_subadditivity_fails(self):
        # apex moved out of the negative orthant breaks subadditivity
        h = make_handle(Shift(neg_orthant(2), [1.0, 0.0]), [1.0, 1.0])
        flags = classify_convexity(h, 600, seed=42)
        assert flags["subadditive"].verdict == VIOLATED
        assert flags["convex"].verdict == HOLDS


class TestRecessionInequality:
    def test_three_quadrant_holds(self, tq_handle):
        r = check_recession_inequality(tq_handle, 400, seed=42)
        assert r.verdict == HOLDS
        assert r.max_defect <= 1e-7

    def test_cone_equals_its_recession(self, cone_diag):
        r = check_recession_inequality(cone_diag, 400, seed=42)
        assert r.verdict == HOLDS

    def test_corrupted_violated(self, tq_handle, monkeypatch):
        monkeypatch.setattr(analysis, "_keys", biased_eval())
        r = check_recession_inequality(tq_handle, 400, seed=42)
        assert r.verdict == VIOLATED


class TestDualRelation:
    def test_orthant_holds(self, cone_diag):
        r = check_dual_relation(cone_diag, 400, seed=42)
        assert r.verdict == HOLDS
        assert r.max_defect <= 1e-6

    def test_three_quadrant_inapplicable(self, tq_handle):
        r = check_dual_relation(tq_handle, 400, seed=42)
        assert r.verdict == INAPPLICABLE

    def test_corrupted_violated(self, cone_diag, monkeypatch):
        monkeypatch.setattr(analysis, "_keys", biased_eval())
        r = check_dual_relation(cone_diag, 400, seed=42)
        assert r.verdict == VIOLATED


class TestSeparation:
    def test_disjoint_cloud(self, cone_diag):
        v = separate(cone_diag, np.array([[1.0, 1.0], [2.0, 0.5]]))
        assert v.disjoint and not v.offending_indices

    def test_positive_quadrant_points_disjoint(self, cone_diag):
        v = separate(cone_diag, np.array([[-1.0, 2.0], [1.0, 1.0]]))
        assert v.disjoint  # both values are positive

    def test_touching_origin_mode_dependent(self, cone_diag):
        closed = separate(cone_diag, np.array([[0.0, 0.0]]), mode="closed")
        interior = separate(cone_diag, np.array([[0.0, 0.0]]), mode="interior")
        assert not closed.disjoint
        assert closed.offending_indices == (0,)
        assert interior.disjoint

    def test_intersecting_cloud(self, cone_diag):
        v = separate(cone_diag, np.array([[5.0, 5.0], [-1.0, -1.0]]))
        assert not v.disjoint
        assert v.offending_indices == (1,)

    def test_nu_points_never_offend(self, cone_edge):
        v = separate(cone_edge, np.array([[0.0, 1.0]]))  # value nu
        assert v.disjoint

    def test_bad_mode_rejected(self, cone_diag):
        from ulset import InvalidInput

        with pytest.raises(InvalidInput):
            separate(cone_diag, np.array([[0.0, 0.0]]), mode="open")


class TestLipschitz:
    def test_interior_direction_bound_one(self, cone_diag):
        est = estimate_lipschitz(cone_diag, n_pairs=5000, seed=42)
        assert est.interior
        assert est.l_bound == 1.0
        assert est.l_emp <= 1.0 + 1e-6

    def test_boundary_direction_unbounded(self, cone_edge):
        est = estimate_lipschitz(cone_edge, n_pairs=1000, seed=42)
        assert not est.interior
        assert est.l_bound is NU

    def test_scaling_halves_bound(self):
        h = make_handle(neg_orthant(2), [2.0, 2.0])
        est = estimate_lipschitz(h, n_pairs=1000, seed=42)
        assert est.l_bound == 0.5


#: P = {x + 0.3y <= 0, 0.2x + y <= 0}, which Lipschitz tests move by (s, s).
SLANTED = Polyhedron((HalfSpace([1.0, 0.3], 0.0), HalfSpace([0.2, 1.0], 0.0)))


class TestLipschitzRounding:
    """Far from the origin the keys round at the offset's scale, and a
    bisection key is only as close as its bracket and membership slack:
    a pair is refused only past both values' error bounds."""

    @pytest.mark.parametrize("strategy, s", [
        ("closed_form", 3e11), ("closed_form", 3e13),
        ("bisection", 1e5), ("bisection", 3e9), ("bisection", 3e11),
    ])
    def test_far_shift_estimated(self, strategy, s):
        h = make_handle(Shift(SLANTED, [s, s]), [1.0, 1.0], strategy=strategy)
        est = estimate_lipschitz(h, 2000, seed=1)
        assert est.interior
        assert est.l_bound.value == pytest.approx(0.8498366, rel=1e-7)
        assert est.l_emp > 0.0

    @pytest.mark.parametrize("s", [0.0, 3e11])
    def test_scaled_keys_still_refused(self, s, monkeypatch):
        keys = analysis._keys
        monkeypatch.setattr(analysis, "_keys", lambda h, Y: 1.01 * keys(h, Y))
        h = make_handle(Shift(SLANTED, [s, s]), [1.0, 1.0])
        with pytest.raises(UlsetError, match="evaluation is inconsistent"):
            estimate_lipschitz(h, 2000, seed=1)


class TestSubgradientBound:
    def test_orthant_interior_point(self, cone_diag):
        r = check_subgradient_bound(cone_diag, [2.0, 1.0], 400, seed=42)
        assert r.verdict == HOLDS
        assert r.witness is None

    def test_tie_on_diagonal_uses_first_row(self, cone_diag):
        r = check_subgradient_bound(cone_diag, [1.0, 1.0], 400, seed=42)
        assert r.verdict == HOLDS

    def test_nonconvex_inapplicable(self, tq_handle):
        r = check_subgradient_bound(tq_handle, [0.0, 0.0], 100, seed=42)
        assert r.verdict == INAPPLICABLE

    def test_non_interior_inapplicable(self, cone_edge):
        r = check_subgradient_bound(cone_edge, [0.0, -1.0], 100, seed=42)
        assert r.verdict == INAPPLICABLE

    @pytest.mark.parametrize("bias", [0.0, -0.05], ids=["exact", "biased"])
    def test_one_member_intersection_as_its_polyhedron(self, bias, monkeypatch):
        # a plan of one leaf with no union or complement is applicable
        # whatever wraps the leaf: the same report, witness included
        if bias:
            monkeypatch.setattr("ulset.analysis._keys", biased_eval(bias))
        P = Shift(Polyhedron((HalfSpace([1.0, 0.5], 0.25), HalfSpace([0.2, 1.0], -1.0))),
                  [0.5, -0.25])
        k, ybar = [1.0, 1.0], [0.3, 0.7]
        want = check_subgradient_bound(make_handle(P, k), ybar, 300, seed=5)
        assert want.verdict == (VIOLATED if bias else HOLDS)
        for s in (SetIntersection((P,)), Shift(SetIntersection((P,)), [0.0, 0.0])):
            assert check_subgradient_bound(make_handle(s, k), ybar, 300, seed=5) == want


class TestReproducibility:
    @pytest.mark.parametrize("check", [
        check_sublevel_identity,
        check_translation_invariance,
        check_dual_relation,
    ])
    def test_same_seed_identical_report(self, cone_diag, check):
        assert check(cone_diag, 300, seed=7) == check(cone_diag, 300, seed=7)

    def test_verdicts_stable_across_seeds(self, tq_handle):
        verdicts = set()
        for seed in (42, 43, 44):
            r = check_sublevel_identity(tq_handle, 300, seed=seed)
            verdicts.add(r.verdict)
        assert verdicts == {HOLDS}

    def test_json_lines_round_trip(self, cone_diag):
        import json

        r = check_sublevel_identity(cone_diag, 100, seed=42)
        doc = json.loads(r.to_json_line())
        assert doc["name"] == "sublevel_identity"
        assert doc["verdict"] == r.verdict
        assert doc["samples"] == 100
        assert doc["seed"] == 42


class TestSampleCount:
    """Every check that draws from the domain refuses a count below 1 or above the cap."""

    runs = pytest.mark.parametrize("run", [
        lambda h, n: check_sublevel_identity(h, n),
        lambda h, n: check_translation_invariance(h, n),
        lambda h, n: check_monotone(h, MonotoneCone((np.array([1.0, 0.0]),)), n_samples=n),
        lambda h, n: classify_convexity(h, n),
        lambda h, n: check_recession_inequality(h, n),
        lambda h, n: check_dual_relation(h, n),
        lambda h, n: check_subgradient_bound(h, [2.0, 1.0], n),
        lambda h, n: check_norm_score_identity(OrderCone.nonneg(2), [1.0, 1.0], [0.0, 0.0], n),
        lambda h, n: estimate_lipschitz(h, n),
    ], ids=["sublevel", "translation", "monotone", "convexity", "recession", "dual",
            "subgradient", "norm", "lipschitz"])

    @pytest.mark.parametrize("n_samples", [0, -3])
    @runs
    def test_count_below_one_invalid(self, cone_diag, run, n_samples):
        with pytest.raises(InvalidInput, match="sample count must be at least 1"):
            run(cone_diag, n_samples)

    @runs
    def test_count_above_cap_invalid(self, cone_diag, run):
        with pytest.raises(InvalidInput, match=f"sample count must be at most {MAX_SAMPLES}"):
            run(cone_diag, MAX_SAMPLES + 1)

    @pytest.mark.parametrize("n_samples", [MAX_SAMPLES // 2 + 1, MAX_SAMPLES])
    def test_convexity_count_above_half_cap_invalid(self, cone_diag, n_samples):
        # the refusal once named 2n, a count the caller never passed
        with pytest.raises(InvalidInput, match=f"^cannot draw {n_samples} samples: .* two "
                                               f"points per sample, .* at most {MAX_SAMPLES // 2}$"):
            classify_convexity(cone_diag, n_samples)


def _block_runs():
    """One run per sampled check, each a list of report lines; the
    biased runs give Violated reports, so witnesses are compared too."""
    diag = make_handle(neg_orthant(2), [1.0, 1.0])
    edge = make_handle(neg_orthant(2), [1.0, 0.0])
    tq = make_handle(three_quadrant_union(), [1.0, 0.0])
    tq_bisect = make_handle(three_quadrant_union(), [1.0, 0.0], strategy="bisection")
    orthant = MonotoneCone((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    downward = MonotoneCone((np.array([0.0, -1.0]),))
    nudge = MonotoneCone((np.array([0.0, -0.1]),))

    def biased(check):
        def run():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_keys", biased_eval())
                return check()
        return run

    runs = {
        "sublevel": lambda: check_sublevel_identity(tq, 300, seed=3),
        "sublevel_nu": lambda: check_sublevel_identity(edge, 300, seed=3),
        "sublevel_biased": biased(lambda: check_sublevel_identity(tq, 300, seed=3)),
        "translation_bisection": lambda: check_translation_invariance(tq_bisect, 200, seed=3),
        "translation_biased": biased(lambda: check_translation_invariance(tq, 300, seed=3)),
        "monotone_strict": lambda: check_monotone(diag, orthant, strict=True, n_samples=300),
        "monotone_functional": lambda: check_monotone(tq, downward, n_samples=300),
        "monotone_set_level": lambda: check_monotone(diag, nudge, n_samples=300),
        "convexity": lambda: classify_convexity(tq, 300, seed=3),
        "convexity_biased": biased(lambda: classify_convexity(edge, 300, seed=3)),
        "recession_biased": biased(lambda: check_recession_inequality(tq, 300, seed=3)),
        "dual": lambda: check_dual_relation(diag, 300, seed=3),
        "dual_biased": biased(lambda: check_dual_relation(diag, 300, seed=3)),
        "subgradient": lambda: check_subgradient_bound(diag, [2.0, 1.0], 300, seed=3),
        "norm": lambda: check_norm_score_identity(OrderCone.nonneg(3), [1.0, 2.0, 1.0],
                                                  [4.0, -1.0, 0.5], 300, seed=3),
    }

    def lines(run):
        out = run()
        return [r.to_json_line() for r in (out.values() if isinstance(out, dict) else [out])]

    return {name: (lambda run=run: lines(run)) for name, run in runs.items()}


BLOCK_RUNS = _block_runs()


class TestBlocks:
    """Checks draw, evaluate and reduce their samples in blocks."""

    @pytest.mark.parametrize("name", BLOCK_RUNS)
    def test_report_independent_of_block_size(self, name, monkeypatch):
        whole = BLOCK_RUNS[name]()
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", 1)
        assert BLOCK_RUNS[name]() == whole

    def test_block_runs_reach_violations(self):
        for name, run in BLOCK_RUNS.items():
            verdicts = {json.loads(line)["verdict"] for line in run()}
            violated = name.endswith("biased") or name in (
                "monotone_functional", "monotone_set_level", "convexity")
            assert (VIOLATED in verdicts) == violated, name
            assert INAPPLICABLE not in verdicts, name

    @pytest.mark.parametrize("edges", [[0, 12], [0, 3, 4, 5, 12], [0, 4, 12], list(range(13))])
    def test_reducer_matches_argmax(self, edges):
        # ties of the largest defect 3.0 at 1, 4 and 5 straddle the block
        # edges; the earliest sample must win, as np.argmax picks it
        defects = np.array([0.0, 3.0, 1.0, 2.0, 3.0, 3.0, 0.0, 2.5, 3.0, 1.0, 0.0, 3.0])
        worst = analysis._Worst(0.5)
        for a, b in zip(edges, edges[1:]):
            worst.add(defects[a:b], lambda i, a=a: {"index": a + i})
        assert worst.count == len(defects)
        assert worst.defect == defects.max()
        assert worst.witness == {"index": int(np.argmax(defects))} == {"index": 1}

    def test_reducer_builds_no_witness_within_tolerance(self):
        worst = analysis._Worst(0.5)
        worst.add(np.array([0.1, 0.5]), lambda i: pytest.fail("witness built"))
        worst.add(np.array([]), lambda i: pytest.fail("witness built"))
        assert (worst.count, worst.defect, worst.witness) == (2, 0.5, None)

    def test_convexity_memory_bounded(self):
        # 20k samples draw 40k points: keeping them with their keys and
        # two extra columns took 1.8 MiB of a 2.3 MiB peak, and one pass
        # over them held each suite's defects, keys and probe points at
        # full length too (5.5 MiB at peak). Keeping a key and an index
        # per point takes 0.5 MiB of a 1.1 MiB peak.
        rng = np.random.default_rng(5)
        k = np.array([1.0, 0.5, 2.0])
        members = []
        for _ in range(4):
            A = rng.normal(size=(5, 3))
            A[A @ k < 0] *= -1.0
            A += k / (k @ k)  # a·k >= 1 on every row
            members.append(Polyhedron(tuple(HalfSpace(a, b)
                                            for a, b in zip(A, rng.uniform(-2.0, 2.0, 5)))))
        h = make_handle(SetUnion(tuple(members)), k)
        classify_convexity(h, 10, seed=1)
        tracemalloc.start()
        try:
            reports = classify_convexity(h, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports["convex"].applicable == 20_000
        assert peak < 1.25 * 2**20


def _random_cone(generators: int, dim: int) -> MonotoneCone:
    return MonotoneCone(tuple(np.random.default_rng(1).normal(size=(generators, dim))))


class TestMonotoneSteps:
    """check_monotone keeps each kept sample's step, dim floats, instead of
    one extra column per cone generator."""

    @pytest.mark.parametrize("strict", [False, True], ids=["monotone", "strict"])
    @pytest.mark.parametrize("generators", [0, 1, 2, 7, 200])
    def test_reports_match_reference(self, generators, strict):
        handles = [make_handle(neg_orthant(2), [1.0, 1.0]),
                   make_handle(neg_orthant(2), [1.0, 0.0]),
                   make_handle(three_quadrant_union(), [1.0, 0.0]),
                   make_handle(three_quadrant_union(), [1.0, 0.0], strategy="bisection"),
                   make_handle(neg_orthant(3), [1.0, 0.5, 2.0])]
        for h in handles:
            cone = _random_cone(generators, h.set.dim)
            for n, seed in [(1, 1), (2, 2), (37, 3), (400, 42)]:
                assert (check_monotone(h, cone, strict, n, seed).to_json_line()
                        == reference_check_monotone(h, cone, strict, n, seed).to_json_line())

    @pytest.mark.parametrize("budget", [1, 45, 123])
    def test_wide_cone_independent_of_block_size(self, budget, monkeypatch):
        # each step is a gemm row, never a one-row gemv product, so its
        # bits, and the witness that prints them, do not move with the blocks
        h = make_handle(three_quadrant_union(), [1.0, 0.0])
        cone = _random_cone(200, 2)
        whole = [check_monotone(h, cone, strict, 300, 3).to_json_line() for strict in (0, 1)]
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        assert [check_monotone(h, cone, strict, 300, 3).to_json_line()
                for strict in (0, 1)] == whole

    def test_memory_bounded(self):
        # 20k samples along 200 generators in 3-d: keeping the extra
        # columns took 30.5 MiB of a 31.5 MiB peak; the steps take 0.5 MiB
        h = make_handle(neg_orthant(3), [1.0, 0.5, 2.0])
        cone = _random_cone(200, 3)
        check_monotone(h, cone, n_samples=10, seed=1)
        tracemalloc.start()
        try:
            report = check_monotone(h, cone, n_samples=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.applicable == 20_000
        assert peak < 4 * 2**20


#: A strip of 1/20 of the default box along k = (1, 0), nu elsewhere: ten
#: rounds keep about half of the n samples asked for.
THIN = Polyhedron((HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], -9.0)))

DRAW_HANDLES = {
    "orthant": make_handle(neg_orthant(2), [1.0, 1.0]),
    "three_quadrant": make_handle(three_quadrant_union(), [1.0, 0.0]),
    "edge": make_handle(neg_orthant(2), [1.0, 0.0]),
    "thin": make_handle(THIN, [1.0, 0.0]),
}


def _draw_splits(h, kept: int):
    """Spans [a, b) to take, in the orders the checks take them and some
    they do not: blocks, ragged spans forward and backward, and
    classify_convexity's pairs of the first and the second half."""
    blocks = list(analysis._blocks(h, kept))
    cuts = np.unique(np.random.default_rng(kept).integers(0, kept + 1, size=8))
    ragged = list(zip([0, *cuts], [*cuts, kept]))
    half = kept // 2
    pairs = [span for a, b in analysis._blocks(h, half)
             for span in ((a, b), (half + a, half + b))]
    return [(a, b) for a, b in blocks + ragged + ragged[::-1] + pairs if a < b]


class TestRedraw:
    """A draw keeps a key and a candidate index per kept sample and
    redraws the rest from the seeded stream, bit for bit."""

    @pytest.mark.parametrize("columns", [0, 1, 2, "cone1", "cone3", "cone200"])
    @pytest.mark.parametrize("name", DRAW_HANDLES)
    def test_take_matches_materialized_draw(self, name, columns):
        h = DRAW_HANDLES[name]
        G = None
        if isinstance(columns, str):
            G = _random_cone(int(columns[4:]), h.set.dim).matrix(h.set.dim)
            columns = len(G)
        cap = next(analysis._blocks(h, 10**6, columns))[1]
        for n in sorted({1, cap - 1, cap + 1, 20_000 if columns < 200 else 3 * cap + 5}):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            draw = analysis._Draw(h, n, rng, analysis.DEFAULT_BBOX, columns, G)
            P, V, E = reference_draw_domain(h, n, ref_rng, analysis.DEFAULT_BBOX, columns, G)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert len(draw) == len(P)
            if name == "thin" and n > 1:
                assert len(P) < n  # the 10x cap ends the draw
            for a, b in _draw_splits(h, len(P)):
                got = draw.take(a, b)
                for x, want in zip(got, (P[a:b], V[a:b], E[a:b])):
                    assert x.shape == want.shape and x.tobytes() == want.tobytes(), (n, a, b)

    @pytest.mark.parametrize("name, rounds", [("three_quadrant", 1), ("edge", 2), ("thin", 10)])
    def test_rounds_drawn(self, name, rounds):
        # the takes above redraw across this many rounds of rejection
        draw = analysis._Draw(DRAW_HANDLES[name], 20_000, np.random.default_rng(20_000),
                              analysis.DEFAULT_BBOX, 1)
        assert len(draw._starts) - 1 >= rounds


def _nine_rows():
    """A union of two 9-row polyhedra in 3-d, a·k >= 1 on every row: a
    block holds 1820 points, so a 2k-sample call fills whole blocks and a
    20k-sample call adds only what the draw keeps."""
    rng, k = np.random.default_rng(5), np.array([1.0, 0.5, 2.0])
    return make_handle(SetUnion(tuple(
        Polyhedron(tuple(HalfSpace(a + k / (k @ k), b) for a, b in
                         zip(np.abs(rng.normal(size=(9, 3))), rng.uniform(-2.0, 2.0, 9))))
        for _ in range(2))), k)


NINE_ROWS = _nine_rows()


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawMemory:
    @pytest.mark.parametrize("check, draws", [
        (check_sublevel_identity, 1), (check_recession_inequality, 2),
        (check_dual_relation, 1), (classify_convexity, 2)])
    def test_kept_sample_costs_a_key_and_an_index(self, check, draws):
        # 12 bytes a drawn sample; keeping its point and extra columns too took 32-49
        check(NINE_ROWS, 10, seed=1)
        grown = _peak(lambda: check(NINE_ROWS, 20_000, seed=1)) - _peak(
            lambda: check(NINE_ROWS, 2_000, seed=1))
        assert grown < 16 * draws * 18_000

    def test_lipschitz_memory_independent_of_pairs(self):
        # drawing both point arrays whole took 2.4 MiB at 20k pairs
        estimate_lipschitz(NINE_ROWS, 10, seed=1)
        small = _peak(lambda: estimate_lipschitz(NINE_ROWS, 20_000, seed=1))
        assert _peak(lambda: estimate_lipschitz(NINE_ROWS, 200_000, seed=1)) < small + 2**14
