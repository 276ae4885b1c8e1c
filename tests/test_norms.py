import numpy as np
import pytest

from ulset import (
    DirectionRejected,
    HalfSpace,
    HOLDS,
    InvalidInput,
    OrderCone,
    Polyhedron,
    PreconditionFailed,
    check_norm_score_identity,
    contains,
    gauge_cone_shift,
    order_unit_norm,
)
from conftest import neg_orthant


def neg_orthant_cone(n: int = 2) -> OrderCone:
    eye = np.eye(n)
    return OrderCone(neg_orthant(n), generators=tuple(-eye[i] for i in range(n)))


def gauge_oracle(C: OrderCone, k, y, hi_cap=1e6, iters=100):
    """Independent order-interval gauge: binary search on the scale.

    Membership of y in lam*[-k, k]_C is tested directly on the cone:
    both y + lam*k and lam*k - y must lie in C.
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)

    def member(lam):
        return contains(C.rep, y + lam * k) and contains(C.rep, lam * k - y)

    hi = 1.0
    while not member(hi):
        hi *= 2.0
        if hi > hi_cap:
            raise AssertionError("oracle found no enclosing scale")
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestGaugeConeShift:
    def test_outside_value(self):
        C = neg_orthant_cone()
        assert gauge_cone_shift(C, [1.0, 1.0], [2.0, 1.0]) == 2.0

    def test_inside_cone_is_zero(self):
        C = neg_orthant_cone()
        assert gauge_cone_shift(C, [1.0, 1.0], [-3.0, -4.0]) == 0.0
        assert gauge_cone_shift(C, [1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_non_interior_direction_rejected(self):
        C = neg_orthant_cone()
        with pytest.raises(DirectionRejected):
            gauge_cone_shift(C, [1.0, 0.0], [2.0, 1.0])

    def test_batch_shape(self):
        C = neg_orthant_cone()
        vals = gauge_cone_shift(C, [1.0, 1.0], np.array([[2.0, 1.0], [-1.0, -1.0]]))
        assert vals.tolist() == [2.0, 0.0]

    def test_rows_near_the_origin_are_read_through_it(self):
        # a row with |b| <= 1e-12 is accepted as through the origin, and the
        # cone stores it so: the gauge is 0 at the origin, not the offset's 1e-6
        rows = (HalfSpace([-1.0, 0.0], -1e-12), HalfSpace([0.0, -1.0], -1e-12))
        C = OrderCone(Polyhedron(rows))
        assert [h.b for h in C.rep.halfspaces] == [0.0, 0.0]
        assert gauge_cone_shift(C, [-1e-6, -1e-6], [0.0, 0.0]) == 0.0
        with pytest.raises(InvalidInput, match="through the origin"):
            OrderCone(Polyhedron((HalfSpace([-1.0, 0.0], 2e-12), rows[1])))


class TestOrderUnitNorm:
    def test_example_value_against_oracle(self):
        C = OrderCone.nonneg(2)
        k = [1.0, 1.0]
        y = [-2.0, 3.0]
        assert order_unit_norm(C, k, y) == 3.0
        assert abs(order_unit_norm(C, k, y) - gauge_oracle(C, k, y)) < 1e-9

    def test_zero_and_unit(self):
        C = OrderCone.nonneg(2)
        assert order_unit_norm(C, [1.0, 1.0], [0.0, 0.0]) == 0.0
        assert order_unit_norm(C, [1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(17)
        C = OrderCone.nonneg(3)
        k = np.array([1.0, 2.0, 0.5])
        for _ in range(25):
            y = rng.uniform(-4, 4, size=3)
            assert abs(order_unit_norm(C, k, y) - gauge_oracle(C, k, y)) < 1e-8

    def test_weighted_chebyshev_reduction(self):
        rng = np.random.default_rng(18)
        C = OrderCone.nonneg(3)
        w = np.array([1.0, 2.0, 4.0])
        Y = rng.uniform(-10, 10, size=(2000, 3))
        vals = order_unit_norm(C, w, Y)
        ref = np.abs(Y / w).max(axis=1)
        assert np.abs(vals - ref).max() <= 1e-9

    def test_norm_axioms_sampled(self):
        rng = np.random.default_rng(19)
        C = OrderCone.nonneg(2)
        k = np.array([1.0, 3.0])
        Y = rng.uniform(-5, 5, size=(500, 2))
        Z = rng.uniform(-5, 5, size=(500, 2))
        lam = rng.uniform(-3, 3, size=500)
        ny, nz = order_unit_norm(C, k, Y), order_unit_norm(C, k, Z)
        # absolute homogeneity
        assert np.abs(order_unit_norm(C, k, lam[:, None] * Y) - np.abs(lam) * ny).max() <= 1e-9
        # triangle inequality
        assert (order_unit_norm(C, k, Y + Z) - (ny + nz)).max() <= 1e-9
        # positivity off zero
        assert (ny[np.linalg.norm(Y, axis=1) > 1e-6] > 0).all()

    def test_unit_ball_is_order_interval(self):
        rng = np.random.default_rng(20)
        C = OrderCone.nonneg(2)
        k = np.array([1.0, 2.0])
        Y = rng.uniform(-3, 3, size=(1000, 2))
        vals = order_unit_norm(C, k, Y)
        for y, v in zip(Y, vals):
            if abs(v - 1.0) <= 1e-7:
                continue
            in_interval = contains(C.rep, y + k, 1e-7) and contains(C.rep, k - y, 1e-7)
            assert (v <= 1.0) == in_interval

    def test_non_interior_unit_rejected(self):
        C = OrderCone.nonneg(2)
        with pytest.raises(DirectionRejected):
            order_unit_norm(C, [1.0, 0.0], [1.0, 1.0])

    def test_non_pointed_cone_rejected(self):
        rep = Polyhedron((HalfSpace([-1.0, 0.0], 0.0),))
        with pytest.warns(UserWarning):
            C = OrderCone(rep, generators=(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                                           np.array([1.0, 0.0])))
        with pytest.raises(PreconditionFailed):
            order_unit_norm(C, [1.0, 0.0], [1.0, 1.0])


class TestNormScoreIdentity:
    def test_orthant_identity_holds(self):
        C = OrderCone.nonneg(2)
        r = check_norm_score_identity(C, [1.0, 1.0], [0.0, 0.0], 500, seed=42)
        assert r.verdict == HOLDS
        assert r.max_defect <= 1e-7

    def test_nonzero_reference(self):
        C = OrderCone.nonneg(3)
        r = check_norm_score_identity(C, [1.0, 2.0, 1.0], [4.0, -1.0, 0.5], 500, seed=42)
        assert r.verdict == HOLDS

    def test_spot_values(self):
        # both sides at y=(2,3) from a=0 equal 3; at y=a both vanish
        C = OrderCone.nonneg(2)
        k = [1.0, 1.0]
        from ulset import Shift, evaluate, make_handle

        h = make_handle(Shift(C.negated(), [0.0, 0.0]), k)
        assert order_unit_norm(C, k, [2.0, 3.0]) == 3.0
        assert evaluate(h, [2.0, 3.0]) == 3.0
        assert order_unit_norm(C, k, [0.0, 0.0]) == 0.0
        assert evaluate(h, [0.0, 0.0]) == 0.0

    def test_generators_required(self):
        C = OrderCone(neg_orthant(2))
        with pytest.raises(InvalidInput):
            check_norm_score_identity(C, [-1.0, -1.0], [0.0, 0.0], 10, seed=42)
