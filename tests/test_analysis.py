import numpy as np
import pytest

import ulset.analysis as analysis
from ulset import (
    HOLDS,
    INAPPLICABLE,
    VIOLATED,
    HalfSpace,
    MonotoneCone,
    NU,
    Polyhedron,
    PreconditionFailed,
    SetIntersection,
    Shift,
    check_dual_relation,
    check_monotone,
    check_recession_inequality,
    check_sublevel_identity,
    check_subgradient_bound,
    check_translation_invariance,
    classify_convexity,
    estimate_lipschitz,
    make_handle,
    separate,
)
from conftest import biased_eval, neg_orthant, rec_handle_for


class TestSublevelIdentity:
    def test_three_quadrant_holds(self, tq_handle):
        r = check_sublevel_identity(tq_handle, 500, seed=42)
        assert r.verdict == HOLDS
        assert r.applicable > 0

    def test_corrupted_violated(self, tq_handle, monkeypatch):
        monkeypatch.setattr(analysis, "evaluate_batch", biased_eval())
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
        monkeypatch.setattr(analysis, "evaluate_batch", biased_eval())
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
        r = check_recession_inequality(tq_handle, rec_handle_for(tq_handle), 400, seed=42)
        assert r.verdict == HOLDS
        assert r.max_defect <= 1e-7

    def test_cone_equals_its_recession(self, cone_diag):
        r = check_recession_inequality(cone_diag, rec_handle_for(cone_diag), 400, seed=42)
        assert r.verdict == HOLDS

    def test_corrupted_violated(self, tq_handle, monkeypatch):
        h_rec = rec_handle_for(tq_handle)
        monkeypatch.setattr(analysis, "evaluate_batch", biased_eval())
        r = check_recession_inequality(tq_handle, h_rec, 400, seed=42)
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
        monkeypatch.setattr(analysis, "evaluate_batch", biased_eval())
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

    def test_requires_certificate(self):
        from ulset import Direction, FunctionalHandle, RecessionCone, Strategy

        d = Direction(np.array([1.0, 1.0]), RecessionCone((), exact=False), interior=False)
        h = FunctionalHandle(neg_orthant(2), d, Strategy.CLOSED_FORM)
        with pytest.raises(PreconditionFailed):
            estimate_lipschitz(h, n_pairs=10, seed=42)


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
