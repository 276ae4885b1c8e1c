import ast
import json
import math
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulset import (
    ComplementClosure,
    DirectionRejected,
    EmptyContour,
    FunctionalHandle,
    HalfSpace,
    InvalidInput,
    MINUS_INF,
    NU,
    Polyhedron,
    PreconditionFailed,
    SetIntersection,
    SetUnion,
    Shift,
    Strategy,
    complement_closure,
    contour2d,
    evaluate,
    evaluate_batch,
    evaluate_dual,
    evaluate_level_shifted,
    evaluate_many,
    evaluate_scaled,
    make_handle,
)
from ulset.cli import _load_config, main
from ulset.analysis import check_subgradient_bound, estimate_lipschitz
from ulset.norms import gauge_cone_shift
from ulset.evaluator import (_BLOCK_FLOATS, _OVERFLOW, AK_POSITIVE_MIN, EPS_MEMBERSHIP,
                             KIND_FINITE, KIND_MINUS_INF, KIND_NU, _closed_batch, _motion, _keys,
                             _rows_keys, _spans, _translate_outside)
from ulset.geometry import contains_many, set_to_json, _as_vector, _leaf_ak
from ulset.scalarization import OrderCone, _minimize
from conftest import (three_quadrant_value, biased_eval, kernel_handle, neg_orthant,
                      random_polyhedral_fixture, reference_bisect, reference_closed_batch,
                      reference_exact, reference_outside, reference_translates,
                      three_quadrant_union)


class TestClosedFormValues:
    def test_three_quadrant_values(self, tq_handle):
        assert evaluate(tq_handle, [0.0, -1.0]) is MINUS_INF
        assert evaluate(tq_handle, [-1.0, 0.0]) == -1.0
        assert evaluate(tq_handle, [0.5, 2.0]) == 1.5

    def test_cone_values(self, cone_diag):
        assert evaluate(cone_diag, [-1.0, -1.0]) == -1.0
        assert evaluate(cone_diag, [-2.0, 0.0]) == 0.0

    def test_edge_direction_leaves_domain(self, cone_edge):
        assert evaluate(cone_edge, [0.0, 1.0]) is NU
        assert evaluate(cone_edge, [3.0, -1.0]) == 3.0
        # bisection agrees: no membership up to the bracketing horizon
        hb = make_handle(cone_edge.set, cone_edge.k, strategy="bisection")
        assert evaluate(hb, [0.0, 1.0]) is NU

    def test_complement_closure_handle(self, tq_set):
        # the lattice rule on the lazy node equals the De Morgan expansion
        # exactly, for a polyhedron base and for a union base with static rows
        rng = np.random.default_rng(12)
        pts = rng.uniform(-4, 4, size=(200, 2))
        for base, k in ((neg_orthant(2), [-1.0, -1.0]), (tq_set, [-1.0, 0.0])):
            h = make_handle(ComplementClosure(base), k)
            assert h.strategy == Strategy.CLOSED_FORM
            expanded = make_handle(complement_closure(base), k)
            vc, kc = evaluate_batch(h, pts)
            ve, ke = evaluate_batch(expanded, pts)
            assert (kc == ke).all()
            assert (vc == ve).all()

    def test_shifted_set(self, tq_set):
        h = make_handle(Shift(tq_set, [2.0, 0.0]), [1.0, 0.0])
        assert evaluate(h, [2.0, -1.0]) is MINUS_INF
        hb = make_handle(Shift(tq_set, [2.0, 0.0]), [1.0, 0.0], strategy="bisection")
        assert evaluate(hb, [2.0, -1.0]) is MINUS_INF
        v, vb = evaluate(h, [2.5, 2.0]), evaluate(hb, [2.5, 2.0])
        assert abs(v.value - vb.value) < 1e-6

    def test_dimension_mismatch(self, cone_diag):
        with pytest.raises(InvalidInput):
            evaluate(cone_diag, [0.0, 0.0, 0.0])

    def test_intersection_defaults_to_closed_form(self):
        # {y1 <= 0, y2 <= 0} and {y1 <= 1, y2 <= -1}: phi = max(y1, y2 + 1)
        s = SetIntersection((neg_orthant(2), Shift(neg_orthant(2), [1.0, -1.0])))
        h = make_handle(s, [1.0, 1.0])
        assert h.strategy == Strategy.CLOSED_FORM
        assert evaluate(h, [0.5, 0.5]) == 1.5
        assert evaluate(h, [2.0, -4.0]) == 2.0

    def test_overflowing_value_rejected(self):
        h = make_handle(Polyhedron((HalfSpace([1.0, 0.0], 0.0),)), [1e-8, 1.0])
        with pytest.raises(InvalidInput), np.errstate(over="ignore"):
            evaluate_batch(h, [[1e305, 0.0]])


#: A direction the polyhedra of :func:`sets` move along on all rows but one.
K = np.array([1.0, 2.0, 0.5])


def sets(rng):
    """One set of each node type over two random polyhedra with a static row."""
    def poly(b):
        rows = []
        for _ in range(3):
            a = rng.normal(size=3)
            if a @ K < 0:
                a = -a
            rows.append(HalfSpace(a * rng.uniform(0.5, 3.0), b()))
        rows.append(HalfSpace([0.5, 0.0, -1.0], b()))  # static: a·k == 0
        return Polyhedron(tuple(rows))

    # p's rows pass through the origin, so points at 0 give signed-zero keys
    p, q = poly(lambda: 0.0), poly(lambda: float(rng.uniform(-1.0, 1.0)))
    static_only = Polyhedron((HalfSpace([2.0, -1.0, 0.0], 0.5),))
    return {
        "polyhedron": p,
        "shift": Shift(p, rng.normal(size=3)),
        "union": SetUnion((p, q, static_only)),
        "intersection": SetIntersection((p, Shift(q, rng.normal(size=3)))),
        "complement": ComplementClosure(SetUnion((p, q))),
    }


def test_sets_reach_every_kind():
    # so that the bitwise comparisons over these sets are not all of one kind
    rng = np.random.default_rng(5)
    s = sets(rng)
    Yt = rng.normal(scale=2.0, size=(200, 3)).T
    union, poly = (_closed_batch(kernel_handle(s[name], K), Yt) for name in ("union", "polyhedron"))
    assert np.isfinite(union).any() and (union == -np.inf).any()
    assert np.isfinite(poly).any() and (poly == np.inf).any()


class TestReferenceBlocks:
    """_keys on a block of B point sets laid out coordinate-major, as
    _minimize lays out the differences F - a of B references, equals one
    _keys call per point set, bit for bit."""

    @pytest.mark.parametrize("kind", ["polyhedron", "shift", "union", "intersection", "complement"])
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_block_matches_slices(self, kind, n, monkeypatch):
        rng = np.random.default_rng(n)
        s = sets(rng)[kind]
        Y = np.round(rng.normal(scale=2.0, size=(6, n, 3)), 1)
        Y[0] = 0.0  # on every row of p
        Y[1] = K  # on p's static row
        h = kernel_handle(s, K)
        # (m, B * n), C-ordered, handed over as its (B * n, m) transpose
        D = np.ascontiguousarray(np.moveaxis(Y, -1, 0)).reshape(3, -1).T
        assert D.flags.f_contiguous and not D.flags.c_contiguous
        want = np.stack([_keys(h, y) for y in Y])
        assert _keys(h, D).reshape(6, n).tobytes() == want.tobytes()
        # one point per block: blocks cut across the point sets
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", 1)
        assert _keys(h, D).reshape(6, n).tobytes() == want.tobytes()


class TestRowPlan:
    """The row plan gives, bit for bit, the keys and membership masks of the
    walk of the set tree it replaced (conftest's reference_closed_batch and
    reference_outside), on row-major views and contiguous coordinate-major
    points alike."""

    KINDS = ["polyhedron", "shift", "union", "intersection", "complement", "shifted_union",
             "shifted_complement"]

    @staticmethod
    def sets(rng):
        out = sets(rng)
        static_only = out["union"].members[2]
        o = np.round(rng.normal(size=3), 1)
        out["shifted_union"] = Shift(out["union"], o)
        out["shifted_complement"] = SetUnion((Shift(out["complement"], o), static_only))
        return out, o

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_plan_matches_tree_walk(self, kind, n):
        rng = np.random.default_rng(40 + n)
        kinds, o = self.sets(rng)
        s = kinds[kind]
        k = -K if "complement" in kind else K
        Y = np.round(rng.normal(scale=2.0, size=(6, n, 3)), 1)
        Y[0], Y[1] = 0.0, -0.0  # on every row of p: zero keys
        Y[2] = k  # on p's static row
        Y[3], Y[4] = o, kinds["shift"].offset  # on every row of p, shifted
        h = kernel_handle(s, k)

        for y in Y:
            # _rows_at multiplies a lone point as two copies of itself: its key is the first
            want = reference_closed_batch(s, k, y.repeat(2, axis=0) if n == 1 else y)[:n]
            for P in (y.T, np.ascontiguousarray(y.T)):
                assert _closed_batch(h, P).tobytes() == want.tobytes()

        pts = Y.reshape(-1, 3)
        t = rng.choice([0.0, 0.5, -1.0, 2.0], size=len(pts))
        inside = ~reference_outside(s, pts, lambda R, c, P: R @ P.T <= c[:, None] + EPS_MEMBERSHIP)
        assert (contains_many(s, pts) == inside).all()
        outside = ~reference_translates(s, pts, t, k)
        for P in (pts.T, np.ascontiguousarray(pts.T)):
            assert _translate_outside(h, P, t).tobytes() == outside.tobytes()


class TestRowsKernel:
    """_rows_keys combines all rows of a polyhedron at once; it equals the
    per-row keys folded pairwise in row order, bit for bit."""

    @staticmethod
    def row_fold(G, ak, union):
        rows = [np.where(g > EPS_MEMBERSHIP, np.inf, -np.inf) if a <= AK_POSITIVE_MIN else g / a
                for g, a in zip(G, ak)]
        return reduce(np.minimum if union else np.maximum, rows)

    @pytest.mark.parametrize("union", [False, True], ids=["intersection", "union"])
    def test_rows_match_pairwise_fold(self, union):
        rng = np.random.default_rng(10 * union)
        values = np.array([0.0, -0.0, 1e-10, -1e-10, 2e-9, 1.5, -1.5, 3.0, EPS_MEMBERSHIP,
                           np.nextafter(EPS_MEMBERSHIP, 0.0), np.nextafter(EPS_MEMBERSHIP, 1.0)])
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            ak = rng.choice([0.0, -1e-10, 5e-10, 1e-9, 0.3, 1.0, 2.5], size=rows)
            G = np.where(rng.uniform(size=(rows, 50)) < 0.5, rng.choice(values, size=(rows, 50)),
                         rng.normal(size=(rows, 50)))
            want = self.row_fold(G, ak, union)
            assert _rows_keys(G, _motion(ak), union).tobytes() == want.tobytes()  # consumes G


class TestExactSkips:
    """A leaf whose offsets are all +0.0 skips subtracting them, and rows
    whose a·k are all 1.0 skip dividing by it. Both are identities on
    every double, so both strategies' keys equal, bit for bit, those of
    conftest's unskipped references, at points with ±0.0, subnormal and
    near-overflow coordinates; -0.0 offsets, which turn a -0.0 row value
    into +0.0, are still subtracted; and a row value that overflows is
    refused on a skipping leaf too."""

    ONES = np.ones(3)
    EYE = np.eye(3)
    STATIC = np.array([1.0, -1.0, 0.0])  # a·k == 0 for k = (1, 1, 1) and (2, 2, 0.5)
    # the leaves' +0.0 offsets, then whether all of a leaf's moving rows have a·k 1.0
    CASES = {
        "cone": ("cone", ONES, [True], [True]),
        "cone_ak_not_1": ("cone", np.array([0.5, 1.0, 2.0]), [True], [False]),
        "mixed": ("mixed", ONES, [True], [True]),
        "mixed_ak_not_1": ("mixed", np.array([2.0, 2.0, 0.5]), [True], [False]),
        "offsets": ("offsets", ONES, [False], [True]),
        "complement": ("complement", ONES, [False], [True]),
        "complement_mixed": ("complement_mixed", ONES, [False], [True]),
        "complement_ak_not_1": ("complement", np.array([0.5, 1.0, 2.0]), [False], [False]),
        "all": ("all", ONES, [True, False, True], [True, True, True]),
    }

    @classmethod
    def sets(cls):
        def poly(rows, offsets):
            return Polyhedron(tuple(HalfSpace(a, b) for a, b in zip(rows, offsets)))

        cone = poly(cls.EYE, [0.0] * 3)
        mixed = poly([*cls.EYE, cls.STATIC], [0.0] * 4)
        offsets = poly(cls.EYE, [0.5, -1.0, 2.0])
        return {
            "cone": cone,
            "mixed": mixed,
            "offsets": offsets,
            # a complement member's rows through the origin reverse to offsets of -0.0
            "complement": ComplementClosure(poly(-cls.EYE, [0.0] * 3)),
            "complement_mixed": ComplementClosure(poly([*-cls.EYE, cls.STATIC], [0.0] * 4)),
            "all": SetIntersection((SetUnion((cone, Shift(offsets, [0.25, -0.5, 1.0]))), mixed)),
        }

    @staticmethod
    def points():
        rng = np.random.default_rng(29)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                   8e307, -8e307, 1.5, -0.5]
        Y = np.round(rng.normal(scale=2.0, size=(60, 3)), 1)
        Y[:40] = rng.choice(special, size=(40, 3))
        Y[40], Y[41] = 0.0, -0.0
        return Y

    @pytest.mark.parametrize("case", CASES)
    def test_flags(self, case):
        kind, k, zero, unit = self.CASES[case]
        s = self.sets()[kind]
        h = kernel_handle(s, k)
        assert [leaf.zero for leaf in s.plan[1]] == zero
        assert [motion.unit for motion in h.motions] == unit
        if kind.startswith("complement"):
            (leaf,) = s.plan[1]
            assert not leaf.c.any() and np.signbit(leaf.c).all()

    @pytest.mark.parametrize("case", CASES)
    def test_closed_form_matches_unskipped(self, case):
        kind, k, *_ = self.CASES[case]
        s = self.sets()[kind]
        Y = self.points()
        want = reference_closed_batch(s, k, Y)
        assert _keys(kernel_handle(s, k), Y).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_bisection_matches_unskipped(self, case):
        kind, k, *_ = self.CASES[case]
        s = self.sets()[kind]
        h = kernel_handle(s, k, Strategy.BISECTION)
        Y = self.points()
        assert _keys(h, Y).tobytes() == reference_bisect(h, Y).tobytes()

    @pytest.mark.parametrize("strategy", ["closed_form", "bisection"])
    def test_unit_row_overflow_refused(self, strategy):
        # -C's one row (1, 1) has a·k = 1 and offset +0.0: both steps are skipped
        C, k = OrderCone(Polyhedron((HalfSpace([-1.0, -1.0], 0.0),))), np.array([0.5, 0.5])
        h = kernel_handle(C.negated(), k, strategy)
        assert h.set.plan[1][0].zero and h.motions[0].unit
        with pytest.raises(InvalidInput, match=_OVERFLOW), np.errstate(over="ignore"):
            _keys(h, [[1e308, 1e308], [0.0, 0.0]])
        if strategy == "closed_form":
            with pytest.raises(InvalidInput, match=_OVERFLOW), np.errstate(over="ignore"):
                _minimize(np.array([[1e308, 1e308], [0.0, 0.0]]), C, k, np.zeros((1, 2)))

    def test_subgradient_report_on_unit_rows(self, monkeypatch):
        # every row, and every row of the certified cone, has a·k = 1; the
        # expected reports are those of the code before the skips
        p = Polyhedron(tuple(HalfSpace(a, b) for a, b in zip(self.EYE, [0.5, -1.0, 2.0])))
        h = make_handle(Shift(p, [0.25, -0.5, 1.0]), self.ONES)
        assert h.motions[0].unit
        ybar = [0.3, -2.0, 1.0]
        assert check_subgradient_bound(h, ybar, 500, seed=7).to_json_line() == (
            '{"applicable": 500, "max_defect": 0.0, "name": "subgradient_bound", "samples": 500, '
            '"seed": 7, "verdict": "Holds", "witness": null}')
        monkeypatch.setattr("ulset.analysis._keys", biased_eval(-0.05))
        assert check_subgradient_bound(h, ybar, 500, seed=7).to_json_line() == (
            '{"applicable": 500, "max_defect": 12.891301227177454, "name": "subgradient_bound", '
            '"samples": 500, "seed": 7, "verdict": "Violated", "witness": {"inputs": {"y": '
            '[9.20141834052352, 7.080181426836905, -8.985807080678775], "ybar": [0.3, -2.0, 1.0]}, '
            '"values": {"cone_bound": -3.989882886653934, "linear": 8.90141834052352, '
            '"subgradient": [1.0, 0.0, 0.0]}}}')


class TestNearThresholdRows:
    """A row whose a·k lies within rounding of AK_POSITIVE_MIN is static or
    moving by the one a·k of geometry._leaf_ak: the certificate calls k
    interior exactly when the handle's row motions move every row, so a
    direction certified interior never takes the gauge out of its domain.
    When the certificate took each row's a·k as a 1-d dot and the motions
    as one gemv, the two differed in the last bit on about 7% of these
    cones under the default OpenBLAS kernel."""

    @staticmethod
    def cones(n=1000):
        """n seeded 3-d cones {a·x <= 0}: two rows well inside along k and a
        third at a·k = AK_POSITIVE_MIN up to rounding."""
        rng = np.random.default_rng(31)
        for _ in range(n):
            k = rng.normal(size=3)
            rows = [(a if a @ k >= 0 else -a) + 0.5 * k for a in rng.normal(size=(2, 3))]
            w = rng.normal(size=3)
            w -= (w @ k) / (k @ k) * k
            rows.append(w + AK_POSITIVE_MIN / (k @ k) * k)
            yield Polyhedron(tuple(HalfSpace(a, 0.0) for a in rows)), k

    def test_interior_iff_every_row_moves(self):
        interior = []
        for P, k in self.cones():
            h = make_handle(P, k)
            assert h.interior == all(not m.static.size for m in h.motions)
            interior.append(h.interior)
        assert 0 < sum(interior) < len(interior)  # the third row falls on both sides

    def test_hand_built_handle_with_a_static_row_not_interior(self):
        # k = (1, 0) leaves the second row of the second leaf static
        s = SetIntersection((Polyhedron((HalfSpace([1.0, 0.0], 0.0),)), neg_orthant(2)))
        h = FunctionalHandle(s, [1.0, 0.0], Strategy.CLOSED_FORM)
        assert not h.interior
        assert estimate_lipschitz(h, 10).l_bound is NU

    def test_certified_gauge_stays_in_domain(self):
        # y = a on the third row: a·y > EPS_MEMBERSHIP, so nu there if that row is static
        for P, k in self.cones():
            try:
                gauge_cone_shift(OrderCone(P), k, P.normals[-1:])
            except DirectionRejected:
                assert not make_handle(P, k).interior


@st.composite
def exact_cases(draw, dim):
    """A set over the whole grammar, nested two deep, with a direction,
    every shift offset in it, and up to four points, all with coordinates
    in [-4, 4]."""
    num = st.floats(-4.0, 4.0)
    offsets = []

    def vector():
        v = np.array(draw(st.lists(num, min_size=dim, max_size=dim)))
        if not np.linalg.norm(v) > 1e-12:  # a normal or k must not be zero
            v[0] = 1.0
        return v

    def poly():
        return Polyhedron(tuple(HalfSpace(vector(), draw(num))
                                for _ in range(draw(st.integers(1, 3)))))

    def node(depth):
        kind = draw(st.sampled_from(["polyhedron", "complement", "shift", "union",
                                     "intersection"][: 5 if depth else 2]))
        if kind == "polyhedron":
            return poly()
        if kind == "complement":
            members = tuple(poly() for _ in range(draw(st.integers(1, 2))))
            return ComplementClosure(members[0] if len(members) == 1 else SetUnion(members))
        if kind == "shift":
            offsets.append(vector())
            return Shift(node(depth - 1), offsets[-1])
        members = tuple(node(depth - 1) for _ in range(draw(st.integers(1, 2))))
        return SetUnion(members) if kind == "union" else SetIntersection(members)

    s = node(2)
    points = draw(st.lists(st.lists(num, min_size=dim, max_size=dim), min_size=1, max_size=4))
    return s, vector(), offsets, np.array(points)


#: A row a·x <= b of a set (a complement member's reversed: -a and -b) at a
#: point: its float a·k, the float point zf it sees, the exact a·z - b there,
#: and W = Σ|a_i|·(|y_i| + Σ|o_i|) + |b| over the shifts o above it.
ExactRow = namedtuple("ExactRow", "a b ak zf g w")


def exact_rows(s, k, y):
    """Every row of s at the point y, as ExactRows, in the walk order of
    conftest's reference_exact (and of the set's plan leaves)."""
    aks = iter(_leaf_ak(s, _as_vector(k, s.dim)))

    def walk(s, zf, z, za):
        if isinstance(s, Shift):
            yield from walk(s.base, zf - s.offset, [zi - Fraction(o) for zi, o in zip(z, s.offset.tolist())],
                            [zi + abs(Fraction(o)) for zi, o in zip(za, s.offset.tolist())])
        elif isinstance(s, (SetUnion, SetIntersection)):
            for m in s.members:
                yield from walk(m, zf, z, za)
        else:
            sign, polyhedra = (1, (s,)) if isinstance(s, Polyhedron) else (-1, s.polyhedra)
            for p in polyhedra:
                for hs, ak in zip(p.halfspaces, next(aks).tolist()):
                    a, b = sign * hs.a, sign * hs.b
                    g = sum(Fraction(ai) * zi for ai, zi in zip(a.tolist(), z)) - Fraction(b)
                    w = sum(abs(Fraction(ai)) * zi for ai, zi in zip(a.tolist(), za)) + abs(Fraction(b))
                    yield ExactRow(a, b, ak, zf, g, w)

    y = np.asarray(y, dtype=float)
    z = [Fraction(v) for v in y.tolist()]
    return walk(s, y, z, [abs(v) for v in z])


def exact_fold(s, values):
    """Fold one value per row of s, an iterator in exact_rows' order, by the
    closed form's lattice: a polyhedron's rows by max, a complement member's
    reversed rows by min, a union's members by min, and an intersection's and
    a complement's by max. On outside flags (1 outside) this is membership."""
    if isinstance(s, Polyhedron):
        return max(next(values) for _ in s.halfspaces)
    if isinstance(s, Shift):
        return exact_fold(s.base, values)
    if isinstance(s, (SetUnion, SetIntersection)):
        return (min if isinstance(s, SetUnion) else max)(exact_fold(m, values) for m in s.members)
    return max(min(next(values) for _ in p.halfspaces) for p in s.polyhedra)


@st.composite
def near_row_cases(draw, dim):
    """exact_cases' sets and points, and for each point up to four more moved
    along the normal a of one of the set's rows, so that the row's exact
    a·z - b is near 0, EPS_MEMBERSHIP or 1e-6: at it, or 1e-15 to 1e-6 to
    either side, then stepped up to 4 ulp along a."""
    s, k, offsets, Y = draw(exact_cases(dim))
    near = []
    for y in Y:
        rows = list(exact_rows(s, k, y))
        for _ in range(draw(st.integers(1, 4))):
            r = draw(st.sampled_from(rows))
            level = draw(st.sampled_from([0.0, EPS_MEMBERSHIP, 1e-6]))
            gap = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-15.0, -6.0))
            norm2 = float(r.a @ r.a)
            if norm2 < 1e-100:
                continue
            z = y + float(level + gap - r.g) / norm2 * r.a
            steps = draw(st.integers(-4, 4))
            for _ in range(abs(steps)):
                z = np.nextafter(z, np.copysign(np.inf, r.a) * steps)
            if np.isfinite(z).all():
                near.append(z)
    return s, k, offsets, np.array([*Y, *near])


class TestExactOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 32])
    def test_closed_form_within_forward_error_bound(self, dim):
        """The closed form's keys have the kinds of conftest's exact oracle,
        and each finite key lies within this bound of the exact value.

        Let u = 2**-53 and γ_n = n·u / (1 - n·u). A leaf sees y less the
        offsets of the L shifts above it, subtracted in turn, so each ẑ_i
        is within γ_L·(|y_i| + Σ|o_i|) of the exact z_i. Its row value
        a·ẑ - c, a dot of length d and one subtraction in any order the
        BLAS kernel takes, is within γ_{d+1}·(Σ|a_i·ẑ_i| + |c|) of the
        exact a·ẑ - c; together, within γ_{d+L+1}·W of a·z - c, with
        W = Σ|a_i|·(|y_i| + Σ|o_i|) + |c|. The division by the float a·k,
        the one the oracle divides by, rounds once more: γ_{d+L+2}·W / (a·k).
        Max and min are exact and move a value by at most the largest
        error among their operands, so a finite key is within the largest
        γ_{d+L+2}·W / (a·k) over the moving rows; here L and Σ|o| are taken
        over every shift of the set and the largest over every moving row.
        Underflow adds at most 2**-1075 per product and per quotient, which
        d·2**-1073 / (a·k) + 2**-1074 covers. The rounding of a·k itself is
        not in the bound: both sides divide by the same float a·k."""
        u = Fraction(1, 2**53)

        @settings(derandomize=True, max_examples=60, deadline=None, database=None)
        @given(exact_cases(dim))
        def check(case):
            s, k, offsets, Y = case
            h = kernel_handle(s, k)
            n = dim + len(offsets) + 2
            gamma = n * u / (1 - n * u)
            shifted = [sum(abs(Fraction(o[i])) for o in offsets) for i in range(dim)]
            for y, key in zip(Y, _keys(h, Y).tolist()):
                want = reference_exact(s, k, y)
                assert math.isfinite(key) == math.isfinite(want)
                if not math.isfinite(key):
                    assert key == want
                    continue
                z = [abs(Fraction(yi)) + oi for yi, oi in zip(y.tolist(), shifted)]
                bound = max(
                    (gamma * (sum(abs(Fraction(ai)) * zi for ai, zi in zip(a.tolist(), z))
                              + abs(Fraction(c))) + dim * Fraction(1, 2**1073)) / Fraction(ak)
                    for leaf, m in zip(s.plan[1], h.motions)
                    for a, c, ak in zip(np.delete(leaf.R, m.static, 0),
                                        np.delete(leaf.c[:, 0], m.static).tolist(),
                                        np.delete(m.divisor[:, 0], m.static).tolist()))
                assert abs(Fraction(key) - want) <= bound + Fraction(1, 2**1074)

        check()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_near_rows(self, dim):
        """On points a few ulp to 1e-6 from rows (near_row_cases), where
        static rows flip kinds and rows flip membership, the closed form and
        contains_many agree with exact arithmetic outside each row's band.

        By the bound above, a row's float a·ẑ - c is within its band
        e = γ_{d+L+2}·W + d·2**-1073 of the exact a·z - c, so a static row
        whose exact value lies within e of eps may hold or fail in floats,
        and a moving row's key is within e / (a·k) + 2**-1074 of the exact
        quotient. Max and min are monotone, so the tree folds these per-row
        ranges into a range [lo, hi] of the point's key, which holds the
        key and conftest's reference_exact, and where no static row is in
        its band, lo and hi have one kind, the oracle's, which the key must
        have. Outside flags fold the same way: contains_many at eps 0, 1e-9
        and 1e-6, and each row alone at the point it sees, must lie between
        the exact membership with every banded row failing and with every
        banded row holding."""
        u = Fraction(1, 2**53)

        def kind(v):  # -inf, finite, nu: 0, 1, 2
            return (v > -math.inf) + (v == math.inf)

        decided = []  # per point: no static row in its band; one within 1e-6 of EPS_MEMBERSHIP

        @settings(derandomize=True, max_examples=40, deadline=None, database=None)
        @given(near_row_cases(dim))
        def check(case):
            s, k, offsets, Y = case
            n = dim + len(offsets) + 2
            rows = [list(exact_rows(s, k, y)) for y in Y]

            def band(r):
                return n * u / (1 - n * u) * r.w + dim * Fraction(1, 2**1073)

            def row_key(r, side):  # side -1, 0, 1: the lowest, exact and highest float key
                if r.ak > AK_POSITIVE_MIN:
                    return (r.g + side * band(r)) / Fraction(r.ak) + side * Fraction(1, 2**1074)
                return -math.inf if r.g <= EPS_MEMBERSHIP - side * band(r) else math.inf

            for y, key, rs in zip(Y, _keys(kernel_handle(s, k), Y).tolist(), rows):
                lo, want, hi = (exact_fold(s, (row_key(r, side) for r in rs)) for side in (-1, 0, 1))
                assert want == reference_exact(s, k, y)
                assert lo <= key <= hi
                if kind(lo) == kind(hi):
                    assert kind(key) == kind(want)
                static = [r for r in rs if r.ak <= AK_POSITIVE_MIN]
                decided.append((all(abs(r.g - EPS_MEMBERSHIP) > band(r) for r in static),
                                any(abs(r.g - EPS_MEMBERSHIP) <= 1e-6 for r in static)))

            for eps in (0.0, 1e-9, 1e-6):
                def outside(r, side):  # side -1, 1: surely and possibly outside in floats
                    return int(r.g > eps - side * band(r))

                for o, rs in zip((~contains_many(s, Y, eps)).tolist(), rows):
                    assert exact_fold(s, (outside(r, -1) for r in rs)) <= o
                    assert o <= exact_fold(s, (outside(r, 1) for r in rs))
                for column in zip(*rows):
                    one = Polyhedron((HalfSpace(column[0].a, column[0].b),))
                    got = ~contains_many(one, np.array([r.zf for r in column]), eps)
                    assert all(outside(r, -1) <= o <= outside(r, 1) for r, o in zip(column, got))

        check()
        assert not all(clear for clear, _ in decided)  # some points fall in a band
        assert sum(clear and flip for clear, flip in decided) > 0.15 * len(decided)


class TestBlockedEvaluation:
    """_keys runs both strategies on blocks of points; the closed
    form's keys equal one _closed_batch call over all of them, bit for bit
    (bisection's are compared in TestBisectionAgainstClosedForm), and
    bisection's memory does not grow with rows times points."""

    @pytest.mark.parametrize("kind", ["polyhedron", "shift", "union", "intersection", "complement"])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "2", "block-1", "block", "block+1", "2block+1"])
    def test_blocks_match_one_pass(self, kind, blocks, extra):
        rng = np.random.default_rng(3 * blocks + extra)
        s = sets(rng)[kind]
        k = -K if kind == "complement" else K
        h = make_handle(s, k)
        n = blocks * (_BLOCK_FLOATS // h.point_floats) + extra
        Y = np.round(rng.normal(scale=2.0, size=(n, 3)), 1)
        Y[:n // 3] = 0.0  # on every row of the sets' first polyhedron
        Y[n // 3:n // 2] = K  # on its static row
        keys = _keys(h, Y)
        assert keys.tobytes() == _closed_batch(h, Y.T).tobytes()

    @pytest.mark.parametrize("width", [1, 3, 4, 5000, 2**14, 2**15])
    def test_spans(self, width):
        cap = max(1, _BLOCK_FLOATS // width)
        for n in [*range(0, 40), cap - 1, cap, cap + 1, 2 * cap + 1, 5 * cap + 3]:
            spans = list(_spans(n, width))
            assert [0, *(b for _, b in spans)] == [*(a for a, _ in spans), n]  # [0, n) in order
            assert all(b - a == cap for a, b in spans[:-1])
            assert all(0 < b - a <= cap for a, b in spans[-1:])
        assert list(_spans(0, width)) == []
        if width > _BLOCK_FLOATS:
            assert list(_spans(3, width)) == [(0, 1), (1, 2), (2, 3)]

    def test_bisection_memory_bounded(self):
        # one pass over 50k points held several (rows, n) temporaries of
        # 3.8 MiB at once
        rng = np.random.default_rng(11)
        k = np.ones(3)
        members = []
        for _ in range(4):
            A = rng.normal(size=(10, 3))
            A[A @ k < 0] *= -1.0
            members.append(Polyhedron(tuple(HalfSpace(a, b)
                                            for a, b in zip(A, rng.uniform(0.0, 1.0, 10)))))
        h = make_handle(SetUnion(tuple(members)), k, strategy="bisection")
        Y = rng.normal(scale=2.0, size=(50_000, 3))
        tracemalloc.start()
        try:
            _, kinds = evaluate_batch(h, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (kinds == KIND_FINITE).any()
        assert peak < 4 * 2**20


class TestLonePoint:
    """A point's key depends on that point alone: evaluated, tested for
    membership, scored or printed on its own, a point gives, bit for bit,
    what it gives inside a batch of 300 (a one-column matrix product goes
    through gemv, which can round unlike the same column of a wider one)."""

    KINDS = ["polyhedron", "shift", "union", "intersection", "complement"]
    STRATEGIES = ["closed_form", "bisection"]

    @staticmethod
    def case(kind, strategy):
        rng = np.random.default_rng(17)
        s = sets(rng)[kind]
        k = -K if kind == "complement" else K
        Y = rng.normal(scale=2.0, size=(300, 3))
        return make_handle(s, k, strategy=strategy, tol=1e-17), Y

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_keys(self, kind, strategy):
        h, Y = self.case(kind, strategy)
        lone = np.concatenate([_keys(h, y[None]) for y in Y])
        assert lone.tobytes() == _keys(h, Y).tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_membership(self, kind, strategy):
        # at its key, and one float below it, a point's translate lies on
        # the set's boundary, where the last bits of a·y decide the test
        h, Y = self.case(kind, strategy)
        keys = _keys(h, Y)
        finite = np.isfinite(keys)
        Y, keys = Y[finite], keys[finite]
        for t in (keys, np.nextafter(keys, -np.inf)):
            lone = [_translate_outside(h, y[:, None], t[i:i + 1])[0] for i, y in enumerate(Y)]
            assert lone == _translate_outside(h, Y.T, t).tolist()
            boundary = Y - t[:, None] * h.k
            lone = [contains_many(h.set, y[None], 0.0)[0] for y in boundary]
            assert lone == contains_many(h.set, boundary, 0.0).tolist()

    def test_minimize(self):
        # the polyhedron's rows pass through the origin: it is a cone
        h, Y = self.case("polyhedron", "closed_form")
        C, k = OrderCone(h.set), -h.k
        refs = Y[:5]
        for y in Y:
            # y + 8k scores 8 more than y, or nu or -inf with it
            alone = _minimize(y[None], C, k, refs)
            pair = _minimize(np.stack([y, y + 8.0 * k]), C, k, refs)
            keys = [np.array([key for _, key in out]) for out in (alone, pair)]
            assert keys[0].tobytes() == keys[1].tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_cli_point_matches_points_file(self, kind, strategy, tmp_path, capsys):
        h, Y = self.case(kind, strategy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**set_to_json(h.set), "k": h.k.tolist(),
                                   "strategy": strategy, "tol": h.tol}))
        pts = tmp_path / "pts.csv"
        texts = [",".join(map(repr, y)) for y in Y.tolist()]
        pts.write_text("".join(f"{text}\n" for text in texts))
        assert main(["eval", str(cfg), "--points", str(pts)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for i in range(0, len(texts), 5):  # every fifth point: one main() call each
            assert main(["eval", str(cfg), f"--point={texts[i]}"]) == 0
            assert capsys.readouterr().out == f"0,{lines[i].split(',')[1]}\n"


class TestBisectionAgainstClosedForm:
    def test_three_quadrant_grid(self, tq_set):
        hc = make_handle(tq_set, [1.0, 0.0])
        hb = make_handle(tq_set, [1.0, 0.0], strategy="bisection")
        xs = np.linspace(-3, 3, 31)
        pts = np.array([[x, y] for x in xs for y in xs])
        vc, kc = evaluate_batch(hc, pts)
        vb, kb = evaluate_batch(hb, pts)
        assert (kc == kb).all()
        fin = kc == KIND_FINITE
        assert np.abs(vc[fin] - vb[fin]).max() < 1e-6

    def test_random_fixtures(self):
        # plain fixtures, intersections of two fixtures under one k, and
        # complements of strict-recession fixtures under -k
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(5):
            dim = int(rng.integers(2, 4))
            cases.append(random_polyhedral_fixture(rng, dim))
            s1, k = random_polyhedral_fixture(rng, dim)
            s2, _ = random_polyhedral_fixture(rng, dim, k=k)
            cases.append((SetIntersection((s1, s2)), k))
            base, k = random_polyhedral_fixture(rng, dim, strict=True)
            cases.append((ComplementClosure(base), -k))
        for s, k in cases:
            hc = make_handle(s, k, t_max=1e6)
            hb = make_handle(s, k, strategy="bisection", t_max=1e6)
            pts = rng.uniform(-10, 10, size=(500, s.dim))
            vc, kc = evaluate_batch(hc, pts)
            vb, kb = evaluate_batch(hb, pts)
            assert (kc == kb).all()
            fin = kc == KIND_FINITE
            if fin.any():
                assert np.abs(vc[fin] - vb[fin]).max() < 1e-6

    @staticmethod
    def near_plane(rng, a, b, n):
        """n points 1e-8 to 1e-4 off the plane a·y = b, on either side."""
        u = np.asarray(a, dtype=float) / np.linalg.norm(a)
        Y = rng.uniform(-5.0, 5.0, size=(n, u.shape[0]))
        Y -= np.outer(Y @ u - b / np.linalg.norm(a), u)
        return Y + np.outer(10.0 ** rng.uniform(-8, -4, n) * rng.choice([-1, 1], n), u)

    @pytest.mark.parametrize("case", ["repro", "near_static", "slow_row", "union_shift",
                                      "intersection"])
    def test_points_near_static_rows(self, case):
        # y - t*k once rounded a point's distance to a static row away at
        # large t, so bisection found the set where the closed form says nu
        rng = np.random.default_rng(7)
        wedge = Polyhedron((HalfSpace([1, -1], 0.0), HalfSpace([1, 1], 0.0)))
        s, k, Y = {
            "repro": lambda: (wedge, [1, 1], np.array([[1e-5, 0.0], [3e-5, 0.0]])),
            "near_static": lambda: (wedge, [1, 1], self.near_plane(rng, [1, -1], 0.0, 200)),
            # a·k = 5e-10 is static for the closed form, so it is for bisection
            "slow_row": lambda: (Polyhedron((HalfSpace([1, -1 + 5e-10], 0.0),
                                             HalfSpace([1, 1], 0.0))),
                                 [1, 1], self.near_plane(rng, [1, -1], 0.0, 200)),
            "union_shift": lambda: (
                SetUnion((Shift(Polyhedron((HalfSpace([1, -1, 0], 0.5), HalfSpace([1, 1, 1], 0.0))),
                                [1.0, 2.0, -1.0]),
                          Polyhedron((HalfSpace([0, 1, -1], -2.0), HalfSpace([0, 0, 1], 1.0))))),
                [1, 1, 1], np.concatenate([self.near_plane(rng, [1, -1, 0], -0.5, 100),
                                           self.near_plane(rng, [0, 1, -1], -2.0, 100)])),
            "intersection": lambda: (
                SetIntersection((wedge, Polyhedron((HalfSpace([0, 1], 3.0),)))),
                [1, 1], self.near_plane(rng, [1, -1], 0.0, 200)),
        }[case]()
        vc, kc = evaluate_batch(make_handle(s, k), Y)
        vb, kb = evaluate_batch(make_handle(s, k, strategy="bisection"), Y)
        assert (kc == KIND_NU).any()
        assert (kc == kb).all()
        fin = kc == KIND_FINITE
        if fin.any():
            assert np.abs(vc[fin] - vb[fin]).max() < 1e-6

    @pytest.mark.parametrize("kind", ["polyhedron", "shift", "union", "intersection", "complement"])
    @pytest.mark.parametrize("t_max", [1e3, 1e6 + 0.5, 1e12])
    @pytest.mark.parametrize("tol", [1e-9, 1e-17])
    def test_keys_match_two_pass_bracketing(self, kind, t_max, tol, monkeypatch):
        # one signed bracketing loop through the translate test gives the
        # keys of a t = 0 split by plain membership and two mirrored loops;
        # at the default budget all 182 points are one block, and smaller
        # blocks give the same keys
        rng = np.random.default_rng(17)
        s = sets(rng)[kind]
        k = -K if kind == "complement" else K
        Y = rng.normal(scale=2.0, size=(60, 3))
        # scaled copies end past the horizon of every t_max, at nu and at -inf
        Y = np.concatenate([np.zeros((1, 3)), K[None], Y, 1e4 * Y, 1e13 * Y])
        h = make_handle(s, k, strategy="bisection", t_max=t_max, tol=tol)
        keys = _keys(h, Y)
        assert keys.tobytes() == reference_bisect(h, Y).tobytes()
        assert np.isfinite(keys).any() and (keys == np.inf).any() and (keys == -np.inf).any()
        for budget in (1, 45):
            monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
            assert _keys(h, Y).tobytes() == keys.tobytes()

    def test_intersection_of_polyhedra_is_exact(self):
        # the max rule reproduces the polyhedron with all rows concatenated,
        # bit for bit; dyadic data keeps every a·y exact, since matrix
        # products of different shapes may round differently
        rng = np.random.default_rng(2025)

        def dyadic_polyhedron(k):
            rows = []
            while len(rows) < int(rng.integers(1, 5)):
                a = rng.integers(-8, 9, size=k.shape[0]) / 4.0
                b = rng.integers(-48, 49) / 16.0
                if rng.uniform() < 0.25:
                    # static (a·k == 0 for k = (1, ..., 1)), around the origin
                    a[-1] = -a[:-1].sum()
                    b = abs(b)
                if a @ k < 0:
                    a = -a
                if a.any():
                    rows.append(HalfSpace(a, b))
            return Polyhedron(tuple(rows))

        seen = set()
        for dim in (2, 3, 3, 4):
            k = np.ones(dim)
            polys = [dyadic_polyhedron(k) for _ in range(int(rng.integers(2, 5)))]
            merged = Polyhedron(tuple(h for p in polys for h in p.halfspaces))
            pts = rng.integers(-64, 65, size=(2000, dim)) / 16.0
            vi, ki = evaluate_batch(make_handle(SetIntersection(tuple(polys)), k), pts)
            vm, km = evaluate_batch(make_handle(merged, k), pts)
            assert ki.tobytes() == km.tobytes()
            assert vi.tobytes() == vm.tobytes()
            seen.update(ki.tolist())
        assert {KIND_FINITE, KIND_NU} <= seen

    def test_union_is_min_of_children(self):
        rng = np.random.default_rng(11)
        s, k = random_polyhedral_fixture(rng, 2)
        if not isinstance(s, SetUnion):
            s = SetUnion((s, Shift(s, [1.0, 1.0])))
        h = make_handle(s, k, t_max=1e6)
        pts = rng.uniform(-8, 8, size=(300, 2))
        vals, kinds = evaluate_batch(h, pts)
        child_handles = [make_handle(m, k, t_max=1e6) for m in s.members]
        parts = [evaluate_batch(ch, pts) for ch in child_handles]
        for i in range(len(pts)):
            kinds_i = [kk[i] for _, kk in parts]
            vals_i = [vv[i] for vv, kk in parts if kk[i] == KIND_FINITE]
            if KIND_MINUS_INF in kinds_i:
                assert kinds[i] == KIND_MINUS_INF
            elif vals_i:
                assert kinds[i] == KIND_FINITE
                assert abs(vals[i] - min(vals_i)) < 1e-9
            else:
                assert kinds[i] == KIND_NU


class TestInvariants:
    def test_translation_invariance_closed(self, tq_handle):
        rng = np.random.default_rng(1)
        k = tq_handle.k
        pts = rng.uniform(-5, 5, size=(200, 2))
        ts = rng.uniform(-5, 5, size=200)
        base = evaluate_many(tq_handle, pts)
        moved = evaluate_many(tq_handle, pts + ts[:, None] * k)
        for v0, v1, t in zip(base, moved, ts):
            if v0.is_finite:
                assert abs(v1.value - (v0.value + t)) <= 1e-7
            else:
                assert v1 is MINUS_INF if v0.is_minus_inf else v1 is NU

    def test_sublevel_identity_sampled(self, tq_handle):
        from ulset import contains_many

        rng = np.random.default_rng(2)
        k = tq_handle.k
        pts = rng.uniform(-5, 5, size=(500, 2))
        ts = rng.uniform(-5, 5, size=500)
        vals = evaluate_many(tq_handle, pts)
        member = contains_many(tq_handle.set, pts - ts[:, None] * k, 1e-6)
        for v, t, m in zip(vals, ts, member):
            if v.is_finite and abs(v.value - t) <= 1e-6:
                continue
            lhs = v.is_minus_inf or (v.is_finite and v.value <= t)
            assert lhs == bool(m)

    def test_minimizer_invariance_under_scaling(self, tq_set):
        rng = np.random.default_rng(3)
        F = rng.uniform(-3, 3, size=(40, 2))
        base = make_handle(tq_set, [1.0, 0.0])
        vals0, kinds0 = evaluate_batch(base, F)
        fin = kinds0 == KIND_FINITE
        arg0 = set(np.flatnonzero(fin & (vals0 <= vals0[fin].min() + 1e-9)))
        for lam in (0.5, 2.0, 10.0):
            h = make_handle(tq_set, [lam, 0.0])
            vals, kinds = evaluate_batch(h, F)
            fin2 = kinds == KIND_FINITE
            arg = set(np.flatnonzero(fin2 & (vals <= vals[fin2].min() + 1e-9)))
            assert arg == arg0


class TestScaledAndShifted:
    def test_scaled_three_quadrant(self, tq_handle):
        assert evaluate_scaled(tq_handle, 2.0, [0.5, 2.0]) == 0.75
        assert evaluate_scaled(tq_handle, 1.0, [0.5, 2.0]) == 1.5
        assert evaluate_scaled(tq_handle, 2.0, [0.0, -1.0]) is MINUS_INF
        with pytest.raises(InvalidInput):
            evaluate_scaled(tq_handle, 0.0, [0.5, 2.0])

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_scaled_refuses_non_finite(self, tq_handle, lam):
        # inf·k is no direction; finite values once came back as 0.0
        for y in ([0.5, 2.0], [0.0, -1.0]):
            with pytest.raises(InvalidInput, match="scale factor"):
                evaluate_scaled(tq_handle, lam, y)

    def test_scaled_matches_direct_double_direction(self):
        # two independent bisections, tight refinement to meet 1e-8
        rng = np.random.default_rng(4)
        s, k = random_polyhedral_fixture(rng, 2)
        h1 = make_handle(s, k, strategy="bisection", t_max=1e6, tol=1e-10)
        h2 = make_handle(s, 2.0 * k, strategy="bisection", t_max=1e6, tol=1e-10)
        pts = rng.uniform(-6, 6, size=(100, 2))
        for y in pts:
            v1 = evaluate_scaled(h1, 2.0, y)
            v2 = evaluate(h2, y)
            if v1.is_finite:
                assert abs(v1.value - v2.value) < 1e-8
            else:
                assert v1 == v2

    def test_level_shift_three_quadrant(self, tq_handle):
        assert evaluate_level_shifted(tq_handle, 0.0, [-1.0, 0.0]) == -1.0
        assert evaluate_level_shifted(tq_handle, 1.0, [-1.0, 0.0]) == -2.0

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_level_shift_refuses_non_finite(self, tq_handle, c):
        # -inf once came back unchanged, and a finite value failed on the shifted value
        for y in ([0.0, -2.0], [-1.0, 0.0]):
            with pytest.raises(InvalidInput, match="level shift"):
                evaluate_level_shifted(tq_handle, c, y)

    def test_level_shift_matches_shifted_set(self, tq_set):
        rng = np.random.default_rng(5)
        c = 1.75
        k = np.array([1.0, 0.0])
        h = make_handle(tq_set, k)
        shifted = make_handle(Shift(tq_set, c * k), k, strategy="bisection", tol=1e-10)
        pts = rng.uniform(-4, 4, size=(100, 2))
        for y in pts:
            lhs = evaluate_level_shifted(h, c, y)
            rhs = evaluate(shifted, y)
            if lhs.is_finite:
                assert abs(lhs.value - rhs.value) < 1e-8
            else:
                assert lhs == rhs


class TestDual:
    def test_cone_dual_matches_direct(self, cone_diag):
        assert evaluate_dual(cone_diag, [-1.0, -1.0]) == -1.0
        assert abs(evaluate_dual(cone_diag, [0.0, 0.0]).value) < 1e-12

    def test_dual_against_bisection_on_complement(self, cone_diag):
        rng = np.random.default_rng(6)
        comp = complement_closure(cone_diag.set)
        neg_k = -cone_diag.k
        oracle = make_handle(comp, neg_k, strategy="bisection")
        pts = rng.uniform(-5, 5, size=(100, 2))
        for y in pts:
            d = evaluate_dual(cone_diag, y)
            o = evaluate(oracle, y)
            if d.is_finite:
                assert abs(d.value + o.value) < 1e-6

    def test_strict_recession_precondition_fails_on_three_quadrants(self, tq_handle):
        with pytest.raises(PreconditionFailed):
            evaluate_dual(tq_handle, [0.0, 0.0])

    def test_non_polyhedral_rejected(self):
        s = SetIntersection((neg_orthant(2), neg_orthant(2)))
        h = make_handle(s, [1.0, 1.0])
        with pytest.raises(PreconditionFailed):
            evaluate_dual(h, [0.0, 0.0])


class TestContour:
    def test_orthant_zero_level_traces_boundary(self, cone_diag):
        polys = contour2d(cone_diag, 0.0, (-2.0, -2.0, 2.0, 2.0), 81)
        assert polys
        pts = np.concatenate(polys)
        cell = 4.0 / 80

        def dist_to_boundary(p):
            x, y = p
            d1 = abs(y) if x <= 0 else np.hypot(x, y)   # edge y=0, x<=0
            d2 = abs(x) if y <= 0 else np.hypot(x, y)   # edge x=0, y<=0
            return min(d1, d2)

        worst = max(dist_to_boundary(p) for p in pts)
        assert worst <= 2 * cell
        # boundary is covered too: sampled boundary points near some polyline point
        bnd = [(-2 + 0.05 * i, 0.0) for i in range(41)] + [(0.0, -2 + 0.05 * i) for i in range(41)]
        for q in bnd:
            d = np.min(np.linalg.norm(pts - np.asarray(q), axis=1))
            assert d <= 2 * cell

    def test_level_shift_translates_contour(self, cone_diag):
        t = 0.5
        k = cone_diag.k
        base = np.concatenate(contour2d(cone_diag, 0.0, (-2.0, -2.0, 2.0, 2.0), 81))
        lifted = np.concatenate(contour2d(cone_diag, t, (-2.0 + t, -2.0 + t, 2.0 + t, 2.0 + t), 81))
        moved = base + t * k
        for p in moved[::7]:
            d = np.min(np.linalg.norm(lifted - p, axis=1))
            assert d <= 2 * (4.0 / 80)

    def test_three_quadrant_zero_set_matches_formula(self, tq_handle):
        polys = contour2d(tq_handle, 0.0, (-3.0, -3.0, 3.0, 3.0), 121)
        pts = np.concatenate(polys)
        cell = 6.0 / 120
        tol = 2 * cell + 1e-9
        # traced points lie on the 0-sublevel boundary staircase: x=-1 above
        # y=0, the fold y=0 on [-1,0], x=0 on the middle band, and the fold
        # y=-1 right of x=0 where the value jumps from -inf to positive
        for x, y in pts:
            d1 = abs(x + 1.0) if y >= -tol else np.inf
            d2 = abs(y - 0.0) if -1 - tol <= x <= tol else np.inf
            d3 = abs(x - 0.0) if -1 - tol <= y <= tol else np.inf
            d4 = abs(y + 1.0) if x >= -tol else np.inf
            assert min(d1, d2, d3, d4) <= tol
        # and the formula's zero set is covered: x=0 on (-1,0], x=-1 on y>0
        zero_set = [(0.0, -1 + 0.05 * i) for i in range(1, 21)]
        zero_set += [(-1.0, 0.05 * i) for i in range(1, 60)]
        for q in zero_set:
            d = np.min(np.linalg.norm(pts - np.asarray(q), axis=1))
            assert d <= tol

    def test_all_nu_raises_empty(self, cone_edge, monkeypatch):
        # domain of the edge handle is {y2 <= 0}; sample far above it, in
        # one strip and in one-row strips
        with pytest.raises(EmptyContour):
            contour2d(cone_edge, 0.0, (2.0, 2.0, 5.0, 5.0), 16)
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", 1)
        with pytest.raises(EmptyContour):
            contour2d(cone_edge, 0.0, (2.0, 2.0, 5.0, 5.0), 16)

    def test_memory_independent_of_grid_area(self):
        # the whole 1024 x 1024 grid's points alone take 16 MiB
        h = _load_config(str(Path(__file__).parent / "golden" / "three_quadrant.json"), None)
        tracemalloc.start()
        try:
            segments = contour2d(h, 0.5, (-2.0, -2.0, 2.0, 2.0), 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert segments
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_level_rejected(self, cone_diag, level):
        with pytest.raises(InvalidInput, match="level must be finite"):
            contour2d(cone_diag, level, (-1.0, -1.0, 1.0, 1.0), 16)

    def test_grid_bounds_validated(self, cone_diag):
        with pytest.raises(InvalidInput):
            contour2d(cone_diag, 0.0, (-1.0, -1.0, 1.0, 1.0), 7)
        with pytest.raises(InvalidInput):
            contour2d(cone_diag, 0.0, (-1.0, -1.0, 1.0, 1.0), 5000)


class TestHandleValidation:
    def test_tolerances_validated(self, tq_set):
        from ulset import certify_direction

        k = certify_direction(tq_set, [1.0, 0.0])
        with pytest.raises(InvalidInput):
            FunctionalHandle(tq_set, k, Strategy.BISECTION, t_max=-1.0)
        with pytest.raises(InvalidInput):
            FunctionalHandle(tq_set, k, Strategy.BISECTION, tol=0.0)

    def test_direction_dim_checked(self, tq_set):
        from ulset import certify_direction

        k = certify_direction(neg_orthant(3), [1.0, 1.0, 1.0])
        with pytest.raises(InvalidInput):
            FunctionalHandle(tq_set, k, Strategy.BISECTION)

    @pytest.mark.parametrize("k, message", [
        ([0.0, 0.0], "direction vector is numerically zero"),
        ([1.0, float("nan")], "direction has non-finite entries"),
        ([1.0, 1.0, 1.0], "direction has dimension 3, expected 2"),
        ([[1.0, 0.0]], "direction must be one-dimensional"),
    ], ids=["zero", "non_finite", "wrong_dim", "not_a_vector"])
    def test_hand_built_handle_refuses_what_certification_refuses(self, tq_set, k, message):
        from ulset import certify_direction

        for build in (lambda: certify_direction(tq_set, k), lambda: make_handle(tq_set, k),
                      lambda: FunctionalHandle(tq_set, k, Strategy.CLOSED_FORM)):
            with pytest.raises(InvalidInput, match=message):
                build()

    def test_handle_keeps_a_read_only_copy_of_k(self, tq_set):
        k = np.array([1.0, 0.0])
        h = FunctionalHandle(tq_set, k, Strategy.CLOSED_FORM)
        k[0] = 2.0
        assert h.k.tolist() == [1.0, 0.0] and not h.k.flags.writeable


def _names(node) -> list[str]:
    """The names an ast node imports, reads or looks up as an attribute."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.name for a in node.names]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def _named_outside(exempt, wanted) -> list[tuple[str, int, str]]:
    """(file, line, name) of each name for which wanted(name) holds in the
    package's modules other than those named in exempt."""
    src = Path(__file__).parent.parent / "src" / "ulset"
    return [(path.name, node.lineno, name) for path in sorted(src.glob("*.py"))
            if path.name not in exempt for node in ast.walk(ast.parse(path.read_text()))
            for name in _names(node) if wanted(name)]


def test_only_the_evaluator_knows_kind_codes():
    """Past the evaluator every value travels as a lattice key: no module
    but evaluator (and the re-exporting __init__) names evaluate_batch,
    _from_keys or a KIND_* code, in an import, a name or an attribute."""
    assert _named_outside(("evaluator.py", "__init__.py"), lambda name: name in (
        "evaluate_batch", "_from_keys") or name.startswith("KIND_")) == []


def test_only_the_evaluator_names_its_kernels():
    """Every caller reaches the kernels through _keys's block loop: no
    module but evaluator names _closed_batch or _bisect_batch."""
    assert _named_outside(("evaluator.py",),
                          lambda name: name in ("_closed_batch", "_bisect_batch")) == []


def test_only_the_evaluator_names_the_block_budget():
    """Every block loop takes its edges from _spans or its sizes from _fit:
    no module but evaluator names _BLOCK_FLOATS."""
    assert _named_outside(("evaluator.py",), lambda name: name == "_BLOCK_FLOATS") == []


def test_only_rows_at_multiplies():
    """Every product over set rows goes through geometry._rows_at, which
    owns the lone-operand rule: the package's every @ is inside it, and no
    module names dot, matmul, einsum, inner, vdot or tensordot."""
    src = Path(__file__).parent.parent / "src" / "ulset"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}

    def matmults(tree):
        return sum(isinstance(node, ast.MatMult) for node in ast.walk(tree))

    rows_at, = (node for node in ast.walk(trees["geometry.py"])
                if isinstance(node, ast.FunctionDef) and node.name == "_rows_at")
    assert matmults(rows_at) > 0
    assert {name: matmults(tree) for name, tree in trees.items()} == {
        name: matmults(rows_at) if name == "geometry.py" else 0 for name in trees}
    assert _named_outside((), lambda name: name in (
        "dot", "matmul", "einsum", "inner", "vdot", "tensordot")) == []


def test_only_leaf_ak_meets_a_direction():
    """Every a·k in the package is one of geometry._leaf_ak's: each _rows_at
    call with a direction in an argument (a name k or kv, or an attribute
    .k) is inside _leaf_ak, so certification, both strategies, the dual
    route and the regularity checks read the same a·k for a row."""
    src = Path(__file__).parent.parent / "src" / "ulset"

    def meets_k(tree):
        return {(node.lineno, node.col_offset) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and _names(node.func) == ["_rows_at"]
                and any(isinstance(sub, ast.Name) and sub.id in ("k", "kv")
                        or isinstance(sub, ast.Attribute) and sub.attr == "k"
                        for arg in node.args for sub in ast.walk(arg))}

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    leaf_ak, = (node for node in ast.walk(trees["geometry.py"])
                if isinstance(node, ast.FunctionDef) and node.name == "_leaf_ak")
    assert meets_k(leaf_ak)
    assert {name: meets_k(tree) for name, tree in trees.items()} == {
        name: meets_k(leaf_ak) if name == "geometry.py" else set() for name in trees}
