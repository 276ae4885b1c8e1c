import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ulset import (
    ComplementClosure,
    DirectionRejected,
    HalfSpace,
    InvalidInput,
    Polyhedron,
    SetIntersection,
    SetUnion,
    Shift,
    Unsupported,
    certify_direction,
    complement_closure,
    contains,
    contains_many,
    recession_cone,
    set_from_json,
    set_to_json,
)
from ulset.evaluator import _translate_outside, make_handle
from ulset.geometry import EPS_MEMBERSHIP, _rows_at
from conftest import neg_orthant, reference_contains, three_quadrant_union


class TestMembership:
    def test_boundary_point_is_member(self):
        assert contains(neg_orthant(2), [0.0, 0.0], 1e-9)

    def test_small_positive_violation_rejected(self):
        assert not contains(neg_orthant(2), [1e-6, 0.0], 1e-9)

    def test_three_quadrant_boundary_point(self):
        assert contains(three_quadrant_union(), [0.0, -1.0])

    def test_union_any_semantics(self):
        s = three_quadrant_union()
        assert contains(s, [0.5, -2.0])      # third member only
        assert not contains(s, [0.5, -0.5])  # in none

    def test_intersection_all_semantics(self):
        s = SetIntersection((
            Polyhedron((HalfSpace([1.0, 0.0], 1.0),)),
            Polyhedron((HalfSpace([-1.0, 0.0], 1.0),)),
        ))
        assert contains(s, [0.0, 5.0])
        assert not contains(s, [2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            contains(neg_orthant(2), [0.0, 0.0, 0.0])

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidInput):
            contains(neg_orthant(2), [0.0, 0.0], eps=-1.0)

    def test_nan_eps_rejected(self):
        s = Polyhedron((HalfSpace([1.0, 0.0], 1.0),))
        with pytest.raises(InvalidInput, match="nonnegative number"):
            contains_many(s, [[0.0, 0.0], [5.0, 0.0]], float("nan"))
        with pytest.raises(InvalidInput, match="nonnegative number"):
            contains(s, [0.0, 0.0], float("nan"))

    @given(st.floats(min_value=0, max_value=1e-3),
           st.floats(min_value=0, max_value=1e-3),
           st.floats(min_value=-0.002, max_value=0.002),
           st.floats(min_value=-0.002, max_value=0.002))
    def test_membership_monotone_in_eps(self, e1, extra, x, y):
        e2 = e1 + extra
        s = neg_orthant(2)
        if contains(s, [x, y], e1):
            assert contains(s, [x, y], e2)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        s = three_quadrant_union()
        pts = rng.uniform(-3, 3, size=(200, 2))
        vec = contains_many(s, pts)
        assert all(bool(v) == contains(s, p) for v, p in zip(vec, pts))


def _poly(*rows):
    return Polyhedron(tuple(HalfSpace(a, b) for a, b in rows))


_P1 = _poly(([1.0, 0.0], 1.0), ([0.0, 1.0], 0.5), ([1.0, 1.0], 1.25))
_P2 = _poly(([1.0, -1.0], 0.5), ([0.0, 1.0], 2.0))
_P3 = _poly(([1.0, -1.0], 0.0), ([2.0, 0.0], 3.0))

#: Sets of every node type, each with a direction it certifies.
MEMBERSHIP_CASES = {
    "polyhedron": (_P1, [1.0, 1.0]),
    "union": (SetUnion((_P1, _P3)), [1.0, 1.0]),
    "intersection": (SetIntersection((_P1, _P2)), [1.0, 1.0]),
    "shift": (Shift(_P1, [0.25, -0.5]), [1.0, 1.0]),
    "complement": (ComplementClosure(_P1), [-1.0, -1.0]),
    "complement_of_union": (ComplementClosure(SetUnion((_P1, _P3))), [-1.0, -1.0]),
    "nested": (Shift(SetUnion((SetIntersection((_P1, _P2)),
                               SetIntersection((Shift(_P3, [-1.0, 0.5]), _P2)))),
                     [0.5, 0.25]), [1.0, 1.0]),
}


def _boundary_points(eps: float) -> np.ndarray:
    """Points with one coordinate at +-(b + d) or half of it, for every row
    offset b of the cases and d in (-eps, 0, eps), moved by every shift
    component, against a few values of the other coordinate; plus random
    points. Each case has a row a·y - b that some of them put exactly at
    eps."""
    vals = np.array(sorted({o + sign * scale * (b + d)
                            for b in (0.0, 0.5, 1.0, 1.25, 2.0, 3.0) for d in (-eps, 0.0, eps)
                            for sign in (1.0, -1.0) for scale in (1.0, 0.5)
                            for o in (0.0, 0.25, -0.5, -1.0, 0.5, 0.75)}))
    other = np.repeat([0.0, -0.5, 1.0, -3.0, 3.0], len(vals))
    vals = np.tile(vals, 5)
    rand = np.random.default_rng(3).uniform(-3.0, 3.0, (200, 2))
    return np.concatenate([np.stack([vals, other], 1), np.stack([other, vals], 1), rand])


def _row_sides(s, X: np.ndarray):
    """(rows, n) values a·x and (rows, 1) offsets b of every row a·x <= b of
    s at X, complement rows reversed."""
    if isinstance(s, Polyhedron):
        return s.normals @ X.T, s.offsets[:, None]
    if isinstance(s, Shift):
        return _row_sides(s.base, X - s.offset)
    if isinstance(s, ComplementClosure):
        sides = [(-p.normals @ X.T, -p.offsets[:, None]) for p in s.polyhedra]
    else:
        sides = [_row_sides(m, X) for m in s.members]
    return tuple(np.vstack(side) for side in zip(*sides))


@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6])
@pytest.mark.parametrize("case", list(MEMBERSHIP_CASES))
def test_membership_fold_matches_per_node_rules(case, eps):
    """contains_many equals the node-by-node rules bit for bit, also on
    points exactly at a·y = b + eps."""
    s, _ = MEMBERSHIP_CASES[case]
    Y = _boundary_points(eps)
    ay, b = _row_sides(s, Y)
    assert (ay == b + eps).any()
    got = contains_many(s, Y, eps)
    assert got.any() and not got.all()
    assert got.tobytes() == reference_contains(s, Y, eps).tobytes()


@pytest.mark.parametrize("case", list(MEMBERSHIP_CASES))
def test_translate_rule_matches_membership_of_translates(case):
    """The evaluator's translate rule equals contains_many on explicit
    translates y - t*k away from every row's eps."""
    s, k = MEMBERSHIP_CASES[case]
    Y = _boundary_points(EPS_MEMBERSHIP)
    t = np.random.default_rng(5).uniform(-2.0, 2.0, len(Y))
    X = Y - t[:, None] * np.array(k)
    ax, b = _row_sides(s, X)
    clear = (np.abs(ax - b - EPS_MEMBERSHIP) >= 1e-6).all(axis=0)
    assert clear.mean() > 0.9
    inside = ~_translate_outside(make_handle(s, k), Y.T, t)
    assert (inside[clear] == contains_many(s, X)[clear]).all()


class TestOneMembershipRule:
    """contains_many and bisection's translate test at t = 0 are one rule,
    a·y - b <= eps on the same row values, so they agree bit for bit, also
    within an ulp of a·y = b + eps."""

    @pytest.mark.parametrize("case", list(MEMBERSHIP_CASES))
    def test_boundary_points(self, case):
        s, k = MEMBERSHIP_CASES[case]
        Y = _boundary_points(EPS_MEMBERSHIP)
        inside = ~_translate_outside(make_handle(s, k), Y.T, 0.0)
        assert contains_many(s, Y).tobytes() == inside.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ulp_steps_across_one_row(self, d):
        """On each of 200 random rows, 81 points stepped one ulp at a time
        along a across a·y = b + eps, with k = a."""
        rng = np.random.default_rng(40 + d)
        flips = 0
        for _ in range(200):
            a, b = rng.normal(size=d), rng.normal(scale=2.0)
            y = a * (b + EPS_MEMBERSHIP) / (a @ a)
            up, down = [y], [y]
            for _ in range(40):
                up.append(np.nextafter(up[-1], np.copysign(np.inf, a)))
                down.append(np.nextafter(down[-1], -np.copysign(np.inf, a)))
            Y = np.array(down[:0:-1] + up)
            s = Polyhedron((HalfSpace(a, b),))
            got = contains_many(s, Y)
            assert got.tobytes() == (~_translate_outside(make_handle(s, a), Y.T, 0.0)).tobytes()
            flips += got.any() and not got.all()
        assert flips > 150  # the steps cross the boundary on most rows


@pytest.mark.parametrize("width", [2, 3, 7, 45, 300])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
class TestRowsAt:
    """A column's (row's) bits depend on that column (row) alone, however
    many share the product. Only inner dimensions 1-4 are checked: wider
    products round a column by their width under some BLAS kernels."""

    @pytest.mark.parametrize("rows", [1, 6])
    def test_each_column_is_its_own_product(self, d, width, rows):
        rng = np.random.default_rng(100 * d + width)
        R, P = rng.normal(size=(rows, d)), rng.normal(scale=3.0, size=(d, width))
        wide = _rows_at(R, P)
        for j in range(width):
            assert wide[:, [j]].tobytes() == _rows_at(R, P[:, [j]]).tobytes()

    @pytest.mark.parametrize("cols", [1, 3])
    def test_each_row_is_its_own_product(self, d, width, cols):
        rng = np.random.default_rng(100 * d + width + 1)
        W, G = np.abs(rng.uniform(-10, 10, size=(width, d))) * 0.3, rng.normal(size=(d, cols))
        wide = _rows_at(W, G)
        for i in range(width):
            assert wide[[i]].tobytes() == _rows_at(W[[i]], G).tobytes()


def test_lone_row_product_copies_no_points():
    """_rows_at doubles only the lone operand: a lone row against a block of
    coordinate-major points allocates the product, not a copy of the points."""
    P = np.random.default_rng(3).normal(size=(8192, 4)).T
    R = np.ones((1, 4))
    tracemalloc.start()
    try:
        G = _rows_at(R, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.tobytes() == _rows_at(np.ones((2, 4)), P)[:1].tobytes()
    assert peak < P.nbytes


class TestRecessionCone:
    def test_offsets_drop(self):
        cone = recession_cone(Polyhedron((HalfSpace([1.0], -1.0),)))
        assert cone.exact
        assert cone.halfspaces[0].b == 0.0
        assert cone.halfspaces[0].a.tolist() == [1.0]

    def test_orthant_is_its_own_cone(self):
        cone = recession_cone(neg_orthant(2))
        assert cone.exact
        rows = sorted(h.a.tolist() for h in cone.halfspaces)
        assert rows == [[0.0, 1.0], [1.0, 0.0]]

    def test_union_under_approximation(self):
        cone = recession_cone(three_quadrant_union())
        assert not cone.exact
        rows = sorted(h.a.tolist() for h in cone.halfspaces)
        assert rows == [[0.0, 1.0], [1.0, 0.0]]

    def test_union_cone_soundness_sampled(self):
        # every cone direction must keep sampled members inside the set
        rng = np.random.default_rng(7)
        s = three_quadrant_union()
        cone_poly = recession_cone(s).to_polyhedron()
        members = []
        while len(members) < 500:
            cand = rng.uniform(-10, 10, size=(1000, 2))
            members.extend(cand[contains_many(s, cand)])
        members = np.array(members[:500])
        dirs = []
        while len(dirs) < 50:
            cand = rng.uniform(-1, 1, size=(200, 2))
            dirs.extend(cand[contains_many(cone_poly, cand)])
        dirs = np.array(dirs[:50])
        for t in (1.0, 10.0, 100.0):
            for u in dirs[:10]:
                assert contains_many(s, members + t * u, 1e-6).all()

    def test_shift_keeps_cone(self):
        base = neg_orthant(2)
        assert recession_cone(Shift(base, [5.0, -3.0])).exact

    def test_intersection_concatenates_rows(self):
        s = SetIntersection((neg_orthant(2), Polyhedron((HalfSpace([1.0, 1.0], 4.0),))))
        cone = recession_cone(s)
        assert cone.exact
        assert len(cone.halfspaces) == 3

    def test_complement_unsupported(self):
        # the reversed rows through the origin, deduplicated: a sound
        # under-approximation, so never flagged exact
        base = SetUnion((neg_orthant(2), Polyhedron((HalfSpace([1.0, 0.0], 3.0),))))
        cone = recession_cone(ComplementClosure(base))
        assert cone.exact is False
        assert [h.a.tolist() for h in cone.halfspaces] == [[-1.0, -0.0], [-0.0, -1.0]]
        assert all(h.b == 0.0 for h in cone.halfspaces)


class TestCertifyDirection:
    def test_interior_direction_accepted(self):
        k = certify_direction(neg_orthant(2), [1.0, 1.0])
        assert k.tolist() == [1.0, 1.0] and not k.flags.writeable
        assert make_handle(neg_orthant(2), k).interior

    def test_boundary_direction_accepted_not_interior(self):
        k = certify_direction(neg_orthant(2), [1.0, 0.0])
        assert not make_handle(neg_orthant(2), k).interior

    def test_leaving_direction_rejected(self):
        with pytest.raises(DirectionRejected) as err:
            certify_direction(neg_orthant(2), [-1.0, 0.0])
        assert "row" in str(err.value)

    def test_zero_direction_invalid(self):
        with pytest.raises(InvalidInput):
            certify_direction(neg_orthant(2), [0.0, 0.0])

    def test_complement_needs_waiver(self, tmp_path, capsys):
        # the complement of the unit box admits no direction: its reversed
        # rows point both ways along each axis
        import json

        from ulset.cli import main

        box = Polyhedron((HalfSpace([1.0, 0.0], 1.0), HalfSpace([-1.0, 0.0], 0.0),
                          HalfSpace([0.0, 1.0], 1.0), HalfSpace([0.0, -1.0], 0.0)))
        with pytest.raises(DirectionRejected):
            certify_direction(ComplementClosure(box), [1.0, 0.0])
        config = tmp_path / "box_complement.json"
        config.write_text(json.dumps({"k": [1.0, 0.0], **set_to_json(ComplementClosure(box))}))
        assert main(["eval", str(config), "--point", "2,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: recession-cone row")
        assert captured.err.count("\n") == 1
        h = make_handle(ComplementClosure(neg_orthant(2)), [-1.0, -1.0])
        assert h.interior
        assert h.cert is h.cert
        assert [c.a.tolist() for c in h.cert.halfspaces] == [[-1.0, -0.0], [-0.0, -1.0]]


class TestShift:
    def test_shifted_orthant_contains_new_apex(self):
        s = Shift(neg_orthant(2), [1.0, 1.0])
        assert contains(s, [1.0, 1.0])
        assert not contains(s, [1.1, 1.0])

    def test_zero_shift_is_identity_on_membership(self):
        rng = np.random.default_rng(3)
        s = three_quadrant_union()
        shifted = Shift(s, [0.0, 0.0])
        pts = rng.uniform(-4, 4, size=(100, 2))
        assert (contains_many(s, pts) == contains_many(shifted, pts)).all()

    def test_shift_coherence(self):
        rng = np.random.default_rng(4)
        y0 = np.array([2.0, -1.0])
        s = three_quadrant_union()
        shifted = Shift(s, y0)
        pts = rng.uniform(-4, 4, size=(100, 2))
        assert (contains_many(shifted, pts) == contains_many(s, pts - y0)).all()


class TestComplementClosure:
    def test_orthant_complement_expansion(self):
        exp = complement_closure(neg_orthant(2))
        assert isinstance(exp, SetUnion)
        assert contains(exp, [1.0, -5.0])
        assert not contains(exp, [-1.0, -1.0])

    def test_lazy_node_matches_expansion(self):
        rng = np.random.default_rng(5)
        base = three_quadrant_union()
        lazy = ComplementClosure(base)
        exp = complement_closure(base)
        pts = rng.uniform(-4, 4, size=(300, 2))
        assert (contains_many(lazy, pts) == contains_many(exp, pts)).all()

    def test_covers_everything(self):
        rng = np.random.default_rng(6)
        for s in (neg_orthant(2), three_quadrant_union()):
            comp = complement_closure(s)
            pts = rng.uniform(-5, 5, size=(500, 2))
            either = contains_many(s, pts, 1e-9) | contains_many(comp, pts, 1e-9)
            assert either.all()

    def test_nested_intersection_unsupported(self):
        s = SetIntersection((neg_orthant(2), neg_orthant(2)))
        with pytest.raises(Unsupported):
            complement_closure(s)
        with pytest.raises(Unsupported):
            ComplementClosure(s)


class TestJson:
    def test_round_trip(self):
        s = SetUnion((
            neg_orthant(2),
            Shift(three_quadrant_union(), [1.0, 2.0]),
            ComplementClosure(neg_orthant(2)),
        ))
        doc = set_to_json(s)
        back = set_from_json(doc)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-4, 4, size=(200, 2))
        assert (contains_many(s, pts) == contains_many(back, pts)).all()

    def test_schema_example(self):
        doc = {
            "dim": 2,
            "set": {
                "type": "union",
                "members": [
                    {"type": "polyhedron",
                     "halfspaces": [{"a": [1, 0], "b": -1}]},
                ],
            },
        }
        s = set_from_json(doc)
        assert contains(s, [-2.0, 7.0])

    def test_missing_keys_invalid(self):
        with pytest.raises(InvalidInput):
            set_from_json({"dim": 2})
        with pytest.raises(InvalidInput):
            set_from_json({"dim": 2, "set": {"type": "mystery"}})

    def test_dim_mismatch_invalid(self):
        doc = {"dim": 3,
               "set": {"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}]}}
        with pytest.raises(InvalidInput):
            set_from_json(doc)


class TestValidation:
    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidInput):
            HalfSpace([0.0, 0.0], 1.0)

    def test_empty_polyhedron_list_rejected(self):
        with pytest.raises(InvalidInput):
            Polyhedron(())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidInput):
            Polyhedron((HalfSpace([1.0], 0.0), HalfSpace([1.0, 0.0], 0.0)))
        with pytest.raises(InvalidInput):
            SetUnion((neg_orthant(2), neg_orthant(3)))

    @pytest.mark.parametrize("cls, noun", [(SetUnion, "union"), (SetIntersection, "intersection")])
    def test_member_errors_name_the_node(self, cls, noun):
        with pytest.raises(InvalidInput, match=f"^{noun} needs at least one member$"):
            cls(())
        with pytest.raises(InvalidInput,
                           match=rf"^{noun} members disagree on dimension: \[2, 3\]$"):
            cls((neg_orthant(3), neg_orthant(2)))
        assert set_to_json(cls((neg_orthant(2),)))["set"]["type"] == noun
