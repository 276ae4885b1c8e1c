import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulset import (
    DirectionRejected,
    HalfSpace,
    InvalidInput,
    MINUS_INF,
    NU,
    OrderCone,
    PointCloud,
    PreconditionFailed,
    Polyhedron,
    Shift,
    evaluate_batch,
    load_points_csv,
    make_handle,
    order_unit_norm,
    scalarize,
    trace_front,
    weakly_efficient,
)
from ulset.evaluator import _BLOCK_FLOATS, _keys
from ulset.geometry import EPS_MEMBERSHIP, _rows_at
import ulset.scalarization as scalarization
from ulset.boxes import Boxes
from ulset.scalarization import (ARGMIN_TOL, DIFFERENCE_OVERFLOW, _LINE_FLOATS, _minimize,
                                 _parse_lines, _read_points_csv)

from conftest import reference_candidates, reference_exact, reference_weakly_efficient

GOLDEN = Path(__file__).parent / "golden"


def random_cloud(rng, m, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    return PointCloud(rng.uniform(-5, 5, size=(n, m)))


def sphere_front(rng, n, m=3):
    """n points on the unit sphere's positive orthant, pushed out by radial
    noise, so that a part of them is dominated."""
    u = np.abs(rng.normal(size=(n, m)))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * (1 + 0.05 * np.abs(rng.normal(size=(n, 1))))


class TestScalarize:
    def test_fixture_origin_reference(self, pareto_cloud, orthant2):
        arg, val = scalarize(pareto_cloud, orthant2, [1.0, 1.0], [0.0, 0.0])
        assert arg == [1]
        assert val == 1.0

    def test_fixture_shifted_reference(self, pareto_cloud, orthant2):
        arg, val = scalarize(pareto_cloud, orthant2, [1.0, 1.0], [1.0, 1.0])
        assert arg == [1]
        assert val == 0.0

    def test_single_point_cloud(self, orthant2):
        F = PointCloud(np.array([[4.0, -2.0]]))
        arg, val = scalarize(F, orthant2, [1.0, 1.0], [0.0, 0.0])
        assert arg == [0]
        assert val.is_finite

    def test_values_are_weighted_chebyshev(self, orthant2):
        rng = np.random.default_rng(0)
        F = PointCloud(rng.uniform(-5, 5, size=(30, 2)))
        w = np.array([1.0, 3.0])
        a = np.array([0.5, -0.5])
        arg, val = scalarize(F, orthant2, w, a)
        scores = ((F.points - a) / w).max(axis=1)
        assert abs(val.value - scores.min()) < 1e-12
        assert set(arg) == set(np.flatnonzero(scores <= scores.min() + 1e-9))

    def test_direction_outside_cone_rejected(self, pareto_cloud, orthant2):
        with pytest.raises(DirectionRejected):
            scalarize(pareto_cloud, orthant2, [1.0, -1.0], [0.0, 0.0])

    def test_static_cone_scores_minus_inf_and_nu(self, pareto_cloud):
        # -C = {y2 <= 0} does not move along k = (1, 0): a point scores -inf
        # where y2 <= a2 and nu where y2 > a2
        C = OrderCone(Polyhedron((HalfSpace([0.0, -1.0], 0.0),)))
        arg, val = scalarize(pareto_cloud, C, [1.0, 0.0], [0.0, 1.5])
        assert (arg, val) == ([1, 2], MINUS_INF) and val is MINUS_INF
        arg, val = scalarize(pareto_cloud, C, [1.0, 0.0], [0.0, -1.0])
        assert arg == [] and val is NU

    def test_ties_all_returned(self, orthant2):
        F = PointCloud(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        arg, val = scalarize(F, orthant2, [1.0, 1.0], [0.0, 0.0])
        assert arg == [0, 1]
        assert val == 1.0


class TestWeaklyEfficient:
    def test_fixture_front(self, pareto_cloud, orthant2):
        assert weakly_efficient(pareto_cloud, orthant2) == [0, 1, 2]

    def test_all_incomparable(self, orthant2):
        F = PointCloud(np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]))
        assert weakly_efficient(F, orthant2) == [0, 1, 2, 3]

    def test_duplicates_both_retained(self, orthant2):
        F = PointCloud(np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]]))
        assert weakly_efficient(F, orthant2) == [0, 1]

    def test_weak_but_not_strict_efficiency(self, orthant2):
        # (0,1) vs (0,2): difference (0,1) is on the orthant boundary, not interior
        F = PointCloud(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert weakly_efficient(F, orthant2) == [0, 1]

    def test_non_finite_difference_rejected(self, orthant2):
        # (1e308, 1e308) - (-1e308, -1e308) overflows; 0·inf must not read as efficient
        F = np.array([[1e308, 1e308], [-1e308, -1e308]])
        assert weakly_efficient(0.1 * F, orthant2) == [1]
        with pytest.raises(InvalidInput, match=DIFFERENCE_OVERFLOW), np.errstate(over="ignore"):
            weakly_efficient(F, orthant2)

    def test_interior_test_refuses_wrong_width(self, orthant2):
        with pytest.raises(InvalidInput, match=r"shape \(n, 2\)"):
            orthant2.interior_contains_many(np.ones((4, 3)))

    @pytest.mark.parametrize("budget, n_max", [(_BLOCK_FLOATS, 400), (64, 120)])
    def test_blocks_match_one_point_at_a_time(self, budget, n_max, monkeypatch):
        # coarse coordinates give ties, the repeated rows duplicates; a small
        # budget splits the cloud into many blocks of points and of columns
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        rng = np.random.default_rng(budget)
        for m in (1, 2, 3, 4):
            k = rng.uniform(0.2, 2.0, size=m)
            for C in (OrderCone.nonneg(m), TestFilterRefine.moving_cone(rng, m, k)):
                F = np.round(rng.normal(size=(int(rng.integers(1, n_max)), m)), 1)
                F = np.concatenate([F, F[:10]])
                assert weakly_efficient(F, C) == reference_weakly_efficient(F, C)

    def test_noisy_front(self):
        F = sphere_front(np.random.default_rng(62), 1500)
        C = OrderCone.nonneg(3)
        assert weakly_efficient(F, C) == reference_weakly_efficient(F, C)


def test_overflow_is_named_without_a_warning(orthant2):
    # finite points whose difference overflows are refused by name, with no
    # numpy overflow warning; a NaN point keeps its own message
    big = np.array([[1e308, 1e308], [-1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=DIFFERENCE_OVERFLOW):
            weakly_efficient(big, orthant2)
        with pytest.raises(InvalidInput, match=DIFFERENCE_OVERFLOW):
            scalarize(np.array([[1e308, 0.0]]), orthant2, [1.0, 1.0], [-1e308, 0.0])
        with pytest.raises(InvalidInput, match="finite coordinates"):
            weakly_efficient(np.array([[np.nan, 0.0], [0.0, 0.0]]), orthant2)


class TestMinimizeBlocks:
    """Blocked scoring gives, bit for bit, what one _keys call per
    reference gives: the minimum key and the indices within ARGMIN_TOL."""

    @staticmethod
    def per_reference(F, C, k, refs):
        h = make_handle(C.negated(), k)
        out = []
        for a in refs:
            keys = _keys(h, F - a)
            low = keys.min()
            out.append(([], np.inf) if low == np.inf else
                       (np.flatnonzero(keys <= low + ARGMIN_TOL).tolist(), low))
        return out

    @classmethod
    def assert_bitwise(cls, F, C, k, refs):
        got = _minimize(F, C, k, refs)
        want = cls.per_reference(F, C, k, refs)
        assert [arg for arg, _ in got] == [arg for arg, _ in want]
        assert (np.array([key for _, key in got]).tobytes()
                == np.array([low for _, low in want]).tobytes())

    @staticmethod
    def random_cone(rng, m, k):
        """Rows a with a·k <= 0, the last one static (a·k == 0 up to rounding)."""
        rows = []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.normal(size=m) * rng.uniform(0.5, 3.0)
            rows.append(-a if a @ k > 0 else a)
        a = rng.normal(size=m)
        rows.append(a - (a @ k) / (k @ k) * k)
        return OrderCone(Polyhedron(tuple(HalfSpace(a, 0.0) for a in rows)))

    def test_random_cones_with_static_row(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            k = rng.uniform(0.2, 2.0, size=m)
            C = self.random_cone(rng, m, k)
            # coarse coordinates give ties; references on the cloud give zeros
            F = np.round(rng.normal(size=(int(rng.integers(1, 400)), m)), 1)
            refs = np.concatenate([F[:5], np.round(rng.normal(size=(40, m)), 1)])
            self.assert_bitwise(F, C, k, refs)

    def test_one_point_clouds(self):
        rng = np.random.default_rng(32)
        for m in (1, 2, 3):
            k = rng.uniform(0.2, 2.0, size=m)
            C = OrderCone.nonneg(m) if m == 1 else self.random_cone(rng, m, k)
            F = rng.normal(size=(1, m))
            self.assert_bitwise(F, C, k, np.concatenate([F, rng.normal(size=(70, m))]))

    def test_cloud_above_the_block_budget(self):
        # 3000 points by 3 coordinates exceed half the budget: one reference per block
        rng = np.random.default_rng(33)
        k = np.array([1.0, 2.0, 0.5])
        C = OrderCone(Polyhedron(tuple(HalfSpace(a, 0.0) for a in (
            [-1.0, 0.25, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -1.0],
            [2.0, -1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, -1.0, -1.0]))))
        F = np.round(rng.normal(size=(3000, 3)), 2)
        self.assert_bitwise(F, C, k, np.concatenate([F[:3], rng.normal(size=(4, 3))]))

    @pytest.mark.parametrize("budget", [1, 100, 777])
    def test_block_edges(self, budget, monkeypatch):
        # small budgets put block edges at 1, 16 and 129 references of 6 points by 1 coordinate
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        rng = np.random.default_rng(budget)
        k = np.array([1.0])
        F = np.round(rng.normal(size=(6, 1)), 1)
        self.assert_bitwise(F, OrderCone.nonneg(1), k, np.round(rng.normal(size=(300, 1)), 1))

    def test_non_finite_difference_rejected(self, orthant2):
        with pytest.raises(InvalidInput, match=DIFFERENCE_OVERFLOW), np.errstate(over="ignore"):
            _minimize(np.array([[1e308, 0.0]]), orthant2, [1.0, 1.0], np.array([[-1e308, 0.0]]))

    @staticmethod
    def wide_cone(rng, m, k):
        """5-8 rows a with a·k <= 0, two of them static, in random order."""
        rows = []
        for _ in range(int(rng.integers(3, 7))):
            a = rng.normal(size=m) * rng.uniform(0.5, 3.0)
            rows.append(-a if a @ k > 0 else a)
        for _ in range(2):
            a = rng.normal(size=m)
            rows.append(a - (a @ k) / (k @ k) * k)
        rng.shuffle(rows)
        return OrderCone(Polyhedron(tuple(HalfSpace(a, 0.0) for a in rows)))

    @pytest.mark.parametrize("n, refs", [(40, 250), (4200, 15)], ids=["B>1", "B=1"])
    def test_wide_cones_with_two_static_rows(self, n, refs):
        # _minimize's one _keys call per block of B references against
        # one _keys call per reference
        rng = np.random.default_rng(n)
        for _ in range(4):
            m = int(rng.integers(2, 5))
            k = rng.uniform(0.2, 2.0, size=m)
            C = self.wide_cone(rng, m, k)
            assert 5 <= len(C.rep.halfspaces) <= 8
            block = max(1, _BLOCK_FLOATS // (n * m))
            assert (block > 1) == (n == 40) and block < refs
            F = np.round(rng.normal(size=(n, m)), 1)
            R = np.concatenate([F[:3], np.round(rng.normal(size=(refs - 3, m)), 1)])
            self.assert_bitwise(F, C, k, R)

    def test_overflow_in_the_last_block(self, orthant2):
        # 6 points by 2 coordinates: blocks of 1365 references, the last one alone
        F = np.array([[1e308, 0.0]] + [[0.0, 1.0]] * 5)
        refs = np.zeros((2 * 1365 + 1, 2))
        refs[-1] = [-1e308, 0.0]
        assert np.isfinite(F - refs[-2]).all()
        assert len(_minimize(F, orthant2, [1.0, 1.0], refs[:-1])) == 2 * 1365
        with pytest.raises(InvalidInput, match=DIFFERENCE_OVERFLOW), np.errstate(over="ignore"):
            _minimize(F, orthant2, [1.0, 1.0], refs)


class TestFilterRefine:
    """Where every row of -C moves along k, _minimize gives exact keys only
    to the points its certified filter cannot rule out: bit for bit what
    one _keys call per reference gives (TestMinimizeBlocks.per_reference)."""

    assert_bitwise = TestMinimizeBlocks.assert_bitwise

    @staticmethod
    def moving_cone(rng, m, k):
        """1-6 rows a with a·k < 0 by a margin, so every row of -C moves
        along k, with a·k other than 1."""
        rows, count = [], int(rng.integers(1, 7))
        while len(rows) < count:
            a = rng.normal(size=m) * rng.uniform(0.5, 3.0)
            a = -a if a @ k > 0 else a
            if a @ k < -0.1 * np.linalg.norm(a) * np.linalg.norm(k):
                rows.append(a)
        return OrderCone(Polyhedron(tuple(HalfSpace(a, 0.0) for a in rows)))

    @staticmethod
    def scored(F, C, k, refs):
        """_minimize's result and the number of points it gave exact keys."""
        with mock.patch.object(scalarization, "_keys", wraps=_keys) as spy:
            out = _minimize(F, C, k, refs)
        return out, sum(len(call.args[1]) for call in spy.call_args_list)

    @staticmethod
    def near_ties(rng, F, k):
        """F with copies of some of its points moved by 0.5, 1 and 1.5
        ARGMIN_TOL along k, which moves their scores by as much."""
        picks = F[rng.integers(0, len(F), size=4)]
        return np.concatenate([F, *(picks + c * ARGMIN_TOL * k for c in (0.5, 1.0, 1.5))])

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e9])
    def test_moving_cones(self, scale):
        # coarse coordinates give duplicates and exact ties; at 1e9 a tie
        # within ARGMIN_TOL is one of floats a few ulp apart
        rng = np.random.default_rng(41 + int(np.log10(scale)))
        for _ in range(24):
            m = int(rng.integers(1, 5))
            k = rng.uniform(0.2, 2.0, size=m)
            C = self.moving_cone(rng, m, k)
            F = self.near_ties(rng, np.round(rng.normal(size=(int(rng.integers(1, 300)), m)), 1)
                               * scale, k)
            refs = np.concatenate([F[:5], F[-3:], np.round(rng.normal(size=(30, m)), 1) * scale,
                                   rng.normal(size=(5, m)) * scale])
            self.assert_bitwise(F, C, k, refs)
            assert self.scored(F, C, k, refs)[1] < len(F) * len(refs)

    def test_one_point_clouds_and_duplicates(self):
        rng = np.random.default_rng(42)
        for m in (1, 2, 3, 4):
            k = rng.uniform(0.2, 2.0, size=m)
            C = self.moving_cone(rng, m, k)
            y = rng.normal(size=(1, m))
            for F in (y, np.repeat(y, 5, axis=0), np.concatenate([y, y + k, y])):
                self.assert_bitwise(F, C, k, np.concatenate([y, F, rng.normal(size=(20, m))]))

    def test_cloud_above_the_block_budget(self):
        # 17000 points exceed the budget alone: one reference per block
        rng = np.random.default_rng(43)
        k = np.array([1.0, 2.0])
        C = OrderCone(Polyhedron((HalfSpace([-1.0, 0.25], 0.0), HalfSpace([0.5, -1.0], 0.0))))
        F = np.round(rng.normal(size=(17000, 2)), 2)
        assert len(F) > _BLOCK_FLOATS
        refs = np.concatenate([F[:3], rng.normal(size=(4, 2))])
        self.assert_bitwise(F, C, k, refs)
        assert self.scored(F, C, k, refs)[1] < len(F)

    @pytest.mark.parametrize("budget", [1, 100, 777])
    def test_block_edges(self, budget, monkeypatch):
        # blocks of 1, 16 and 129 references of 6 points, the candidates
        # refined together across block edges
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        rng = np.random.default_rng(budget)
        k = np.array([1.5, 0.5])
        C = self.moving_cone(rng, 2, k)
        F = np.round(rng.normal(size=(6, 2)), 1)
        refs = np.concatenate([F, np.round(rng.normal(size=(300, 2)), 1)])
        self.assert_bitwise(F, C, k, refs)
        assert self.scored(F, C, k, refs)[1] < len(F) * len(refs)

    def test_bound_beyond_the_float_range(self):
        # near 1e308 S is not below 2**1021, so every point is a candidate,
        # though every difference and key is finite
        F = np.array([[1e308, 1e308], [1e308, 9e307], [8e307, 1e308]])
        k = np.array([1.0, 1.0])
        self.assert_bitwise(F, OrderCone.nonneg(2), k, F)
        assert self.scored(F, OrderCone.nonneg(2), k, F)[1] == len(F) ** 2

    def test_candidates_do_not_depend_on_the_block_budget(self, monkeypatch):
        # one bound S over every reference: the far second reference widens
        # every reference's reach to take in the copies moved 3e-8 along k,
        # not only the reach of the references in its block
        rng = np.random.default_rng(58)
        k = np.ones(3)
        F = sphere_front(rng, 2000)
        F = np.concatenate([F, F[:200] + 3e-8 * k])
        refs = np.concatenate([F[:1], [[1e7, 1e7, 1e7]], F[1:600]])
        h = make_handle(OrderCone.nonneg(3).negated(), k)
        got = []
        for budget in (2**14, 2**9):
            monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
            got.append(np.concatenate(list(scalarization._candidate_chunks(h, F, refs))).tolist())
        assert got[0] == got[1]
        self.assert_bitwise(F, OrderCone.nonneg(3), k, refs)

    @pytest.mark.parametrize("budget", [_BLOCK_FLOATS, 2**9])
    def test_one_far_reference_makes_every_pair_a_candidate(self, budget, monkeypatch):
        # S near 3e307 is not below 2**1021, and it is taken over every
        # reference, so every point is a candidate of every reference, also
        # where the references span several blocks
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        rng = np.random.default_rng(59)
        F = sphere_front(rng, 300, m=2)
        refs = np.concatenate([rng.normal(size=(30, 2)), [[3e307, 3e307]],
                               rng.normal(size=(30, 2))])
        k = np.ones(2)
        self.assert_bitwise(F, OrderCone.nonneg(2), k, refs)
        assert self.scored(F, OrderCone.nonneg(2), k, refs)[1] == len(F) * len(refs)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_scores_a_few_ulp_apart(self, data):
        # points a few ulp from one point y, scored against y, against points
        # a few ulp from it and against one far reference
        m = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = rng.uniform(0.2, 2.0, size=m)
        C = self.moving_cone(rng, m, k)
        y = rng.normal(size=m) * 10.0 ** data.draw(st.integers(-3, 9))
        F = y + rng.integers(-3, 4, size=(data.draw(st.integers(1, 60)), m)) * np.spacing(y)
        refs = np.concatenate([y[None], F[:3], y + rng.integers(-3, 4, size=(3, m)) * np.spacing(y),
                               rng.normal(size=(1, m)) * np.abs(y).max()])
        self.assert_bitwise(F, C, k, refs)

    def test_ties_refine_one_block_at_a_time(self):
        # 2000 identical points all tie, 4,000,000 candidates in all: beyond
        # what the result itself holds, a block's worth is held at a time
        F, refs = np.ones((2000, 3)), np.random.default_rng(44).normal(size=(2000, 3))
        tracemalloc.start()
        try:
            out = _minimize(F, OrderCone.nonneg(3), np.ones(3), refs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(arg == list(range(2000)) for arg, _ in out)
        assert peak - held < 4 * 2**20


class TestBoxPrune:
    """Boxes.candidates finds, as flat indices reference * n + point, the
    candidates the dense filter marks (conftest's reference_candidates) for
    the same U, V and reach, from box bounds and the points of the boxes
    those cannot rule out."""

    @staticmethod
    def filter_values(rng, F, refs, rows=None):
        """_minimize's U and V for the cloud F and the references refs, on a
        cone of rows rows (1-6 at random by default) a random k moves along."""
        m = F.shape[1]
        k = rng.uniform(0.2, 2.0, size=m)
        count, cone = rows or int(rng.integers(1, 7)), []
        while len(cone) < count:
            a = rng.normal(size=m) * rng.uniform(0.5, 3.0)
            a = -a if a @ k > 0 else a
            if a @ k < -0.1 * np.linalg.norm(a) * np.linalg.norm(k):
                cone.append(HalfSpace(a, 0.0))
        h = make_handle(OrderCone(Polyhedron(tuple(cone))).negated(), k)
        R, ak = h.set.normals, h.motions[0].divisor
        return _rows_at(R, F.T) / ak, _rows_at(R, refs.T) / ak

    @staticmethod
    def assert_exact(U, V, reach=ARGMIN_TOL, pruned=True):
        boxes = Boxes(U.copy(), V.shape[1])
        assert (len(boxes.lo[0]) > 1) == pruned
        got = np.concatenate(list(boxes.candidates(V, reach)))
        assert got.tolist() == np.flatnonzero(reference_candidates(U, V, reach)).tolist()

    @pytest.mark.parametrize("reach", [ARGMIN_TOL, 1e-2])
    def test_noisy_sphere_front(self, reach):
        rng = np.random.default_rng(51)
        F = sphere_front(rng, 2000)
        self.assert_exact(*self.filter_values(rng, F, F, rows=3), reach)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("budget", [_BLOCK_FLOATS, 40])
    def test_gaussian_blobs(self, m, budget, monkeypatch):
        # a small budget splits the tree's levels and the kept points into
        # many blocks
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        rng = np.random.default_rng(52 + m)
        for rows in range(1, 7):
            centres = rng.normal(size=(5, m)) * 5
            F = centres[rng.integers(0, 5, size=600)] + rng.normal(size=(600, m)) * 0.3
            refs = np.concatenate([F[:8], rng.normal(size=(40, m)) * 5])
            self.assert_exact(*self.filter_values(rng, F, refs, rows))

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_rounded_coordinates(self, scale):
        # duplicates and exact ties; at 1e9 a tie within ARGMIN_TOL is one of
        # floats a few ulp apart
        rng = np.random.default_rng(53)
        for m in (1, 2, 3, 4):
            F = np.round(rng.normal(size=(800, m)), 1) * scale
            refs = np.concatenate([F[:20], np.round(rng.normal(size=(30, m)), 1) * scale])
            self.assert_exact(*self.filter_values(rng, F, refs))

    def test_identical_points(self):
        rng = np.random.default_rng(54)
        F = np.full((500, 3), 0.7)
        self.assert_exact(*self.filter_values(rng, F, rng.normal(size=(64, 3))))

    def test_one_point_and_one_reference_take_one_box(self):
        rng = np.random.default_rng(55)
        F = rng.normal(size=(1, 3))
        self.assert_exact(*self.filter_values(rng, F, rng.normal(size=(40, 3))), pruned=False)
        F = sphere_front(rng, 2000)
        self.assert_exact(*self.filter_values(rng, F, F[:1]), pruned=False)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_references_far_outside(self, scale):
        rng = np.random.default_rng(56)
        F = sphere_front(rng, 1000) * scale
        far = rng.normal(size=(30, 3))
        refs = far / np.linalg.norm(far, axis=1, keepdims=True) * 1e3 * scale
        self.assert_exact(*self.filter_values(rng, F, refs))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_values_a_few_ulp_apart(self, data):
        m = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.normal(size=m) * 10.0 ** data.draw(st.integers(-3, 9))
        F = y + rng.integers(-3, 4, size=(data.draw(st.integers(300, 600)), m)) * np.spacing(y)
        refs = np.concatenate([y[None], F[:3], y + rng.integers(-3, 4, size=(20, m)) * np.spacing(y)])
        self.assert_exact(*self.filter_values(rng, F, refs))

    @pytest.mark.parametrize("n", [256, 255, 257, 2003, 4096])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("budget", [_BLOCK_FLOATS, 40])
    def test_box_tree(self, n, rows, budget, monkeypatch):
        # order permutes the cloud, every box but the last is width wide, lo
        # is each box's least value per row, and at every level, inside each
        # node, the left half's values on that level's row are at most the
        # right half's; coarse values give ties
        monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", budget)
        U = np.round(np.random.default_rng(n + rows).normal(size=(rows, n)), 1)
        boxes = Boxes(U.copy(), n)
        assert sorted(boxes.order.tolist()) == list(range(n))
        assert (boxes.U == U[:, boxes.order]).all()
        levels = (len(boxes.size) - 1).bit_length()
        width = -(-n // 2**levels)
        assert levels >= 4 and len(boxes.size) == -(-n // width)
        assert (boxes.size[:-1] == width).all() and 0 < boxes.size[-1] <= width
        for g, a in enumerate(range(0, n, width)):
            assert (boxes.lo[:, g] == boxes.U[:, a:a + width].min(axis=1)).all()
        for level in range(levels):
            node, key = width << (levels - level), boxes.U[level % rows]
            for a in range(0, n, node):
                left, right = key[a:a + node // 2], key[a + node // 2:a + node]
                assert not right.size or left.max() <= right.min()

    def test_front_scores_few_filter_values(self, monkeypatch):
        # _minimize on a 2000-point noisy 3-d front against itself computes
        # fewer than 10% of the n·r filter values of points; with one box it
        # computes every one of them, to the same result
        F = sphere_front(np.random.default_rng(57), 2000)
        values, values_at = Boxes._values, Boxes._values_at

        def scored():
            counts = []

            def dense(U, V):
                if U.shape[1] == len(F):  # not the box bounds
                    counts.append(U.shape[1] * V.shape[1])
                return values(U, V)

            def gathered(self, ref, pos, V):
                counts.append(len(pos))
                return values_at(self, ref, pos, V)

            with mock.patch.object(Boxes, "_values", staticmethod(dense)), \
                    mock.patch.object(Boxes, "_values_at", gathered):
                return _minimize(F, OrderCone.nonneg(3), np.ones(3), F), sum(counts)

        out, count = scored()
        assert count < 0.1 * len(F) ** 2
        monkeypatch.setattr(Boxes, "POINTS_PER_BOX", len(F))
        assert scored() == (out, len(F) ** 2)


class TestParetoOracle:
    """_minimize against exact arithmetic, on cones whose every row moves:
    each (reference, point) pair is scored by reference_exact on the shifted
    cone a - C, which takes F_p - a exactly. With B = 2·γ_{m+3}·max_r S_r +
    2**-1000 (S_r as in _minimize's docstring), the returned minimum lies
    within B of the exact one, every point within ARGMIN_TOL - 2B of the
    exact minimum is returned, and none beyond ARGMIN_TOL + 2B."""

    @staticmethod
    def assert_exact(F, C, k, refs):
        m = F.shape[1]
        R = np.array([h.a for h in C.negated().halfspaces])
        big = np.abs(F).max(axis=0) + np.abs(refs).max(axis=0)
        gamma = (m + 3) * 2.0**-53 / (1 - (m + 3) * 2.0**-53)
        B = Fraction(2 * gamma * (np.abs(R) @ big / (R @ k)).max() + 2.0**-1000)
        tol = Fraction(ARGMIN_TOL)
        for a, (arg, key) in zip(refs, _minimize(F, C, k, refs)):
            shifted = Shift(C.negated(), a)
            exact = [reference_exact(shifted, k, y) for y in F]
            low = min(exact)
            assert abs(Fraction(key) - low) <= B
            assert {p for p, e in enumerate(exact) if e - low <= tol - 2 * B} <= set(arg)
            assert all(exact[p] - low <= tol + 2 * B for p in arg)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e9])
    def test_dense_route(self, scale):
        # at most 50 points and 20 references take one box; coarse
        # coordinates give exact duplicates and ties, and the copies moved
        # along k tie within ARGMIN_TOL or just beyond
        rng = np.random.default_rng(61 + int(np.log10(scale)))
        for m in range(1, 9):
            k = rng.uniform(0.2, 2.0, size=m)
            C = TestFilterRefine.moving_cone(rng, m, k)
            F = TestFilterRefine.near_ties(
                rng, np.round(rng.normal(size=(int(rng.integers(1, 39)), m)), 1) * scale, k)
            refs = np.concatenate([F[:3], F[-2:], np.round(rng.normal(size=(15, m)), 1) * scale])
            self.assert_exact(F, C, k, refs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_box_route(self, m):
        # 348 points and 16 references take 16 boxes; each reference's
        # minimizer, by a float brute force, has copies moved 0.5, 1 and 1.5
        # ARGMIN_TOL along k, which tie with it within ARGMIN_TOL or not
        rng = np.random.default_rng(64 + m)
        k = rng.uniform(0.2, 2.0, size=m)
        C = TestFilterRefine.moving_cone(rng, m, k)
        F = np.round(rng.normal(size=(300, m)), 1)
        refs = np.concatenate([F[:8], np.round(rng.normal(size=(8, m)), 1)])
        R = np.array([h.a for h in C.negated().halfspaces])
        best = F[((F[:, None] - refs) @ R.T / (R @ k)).max(axis=2).argmin(axis=0)]
        F = np.concatenate([F, *(best + c * ARGMIN_TOL * k for c in (0.5, 1.0, 1.5))])
        assert len(Boxes(np.zeros((1, len(F))), len(refs)).size) == 16
        self.assert_exact(F, C, k, refs)


class TestTraceFront:
    def test_single_origin_ref(self, pareto_cloud, orthant2):
        front = trace_front(pareto_cloud, orthant2, [1.0, 1.0], np.array([[0.0, 0.0]]))
        assert front == {0: (1,)}

    def test_refs_equal_cloud_recovers_front(self, pareto_cloud, orthant2):
        front = trace_front(pareto_cloud, orthant2, [1.0, 1.0], pareto_cloud)
        union = sorted(set(i for arg in front.values() for i in arg))
        assert union == weakly_efficient(pareto_cloud, orthant2)

    def test_one_handle_matches_shifted_handles(self):
        """Scores through one handle on -C at F - a are bitwise those of a
        handle on the shifted cone a - C."""
        rng = np.random.default_rng(11)
        C = OrderCone(Polyhedron((HalfSpace([-1.0, 0.25, 0.0], 0.0), HalfSpace([0.5, -1.0, 0.0], 0.0),
                                  HalfSpace([0.0, 0.0, -1.0], 0.0))))
        k = np.array([1.0, 2.0, 0.5])
        F = rng.normal(size=(200, 3))
        one = make_handle(C.negated(), k)
        for a in rng.normal(size=(20, 3)):
            shifted = evaluate_batch(make_handle(Shift(C.negated(), a), k), F)
            for got, want in zip(evaluate_batch(one, F - a), shifted):
                assert got.tobytes() == want.tobytes()

    def test_empty_refs_empty_map(self, pareto_cloud, orthant2):
        assert trace_front(pareto_cloud, orthant2, [1.0, 1.0], np.zeros((0, 2))) == {}

    def test_completeness_random_clouds(self, orthant2):
        rng = np.random.default_rng(123)
        for _ in range(20):
            m = int(rng.integers(2, 4))
            C = OrderCone.nonneg(m)
            F = random_cloud(rng, m)
            k = np.ones(m)
            front = trace_front(F, C, k, F)
            union = sorted(set(i for arg in front.values() for i in arg))
            assert union == weakly_efficient(F, C)

    def test_soundness_unique_minimizers(self, orthant2):
        rng = np.random.default_rng(9)
        C = orthant2
        for _ in range(20):
            F = random_cloud(rng, 2)
            a = rng.uniform(-5, 5, size=2)
            arg, _ = scalarize(F, C, [1.0, 1.0], a)
            we = set(weakly_efficient(F, C))
            if len(arg) == 1:
                assert arg[0] in we


class TestInvariances:
    def test_scaling_leaves_argmin(self, pareto_cloud, orthant2):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.uniform(-3, 3, size=2)
            base, _ = scalarize(pareto_cloud, orthant2, [1.0, 1.0], a)
            tripled, _ = scalarize(pareto_cloud, orthant2, [3.0, 3.0], a)
            assert base == tripled

    def test_shift_consistency(self, pareto_cloud, orthant2):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(-3, 3, size=2)
            arg1, val1 = scalarize(pareto_cloud, orthant2, [1.0, 1.0], a)
            moved = PointCloud(pareto_cloud.points - a)
            arg2, val2 = scalarize(moved, orthant2, [1.0, 1.0], [0.0, 0.0])
            assert arg1 == arg2
            assert abs(val1.value - val2.value) < 1e-12


class TestOrderCone:
    def test_orthant_generators(self):
        C = OrderCone.nonneg(3)
        assert len(C.generators) == 3
        assert C.maybe_pointed()

    def test_offset_rows_rejected(self):
        with pytest.raises(InvalidInput):
            OrderCone(Polyhedron((HalfSpace([1.0, 0.0], 1.0),)))

    def test_many_generators_built_in_little_memory(self):
        # pointedness reads the three rows, whatever the number of generators
        gens = tuple(np.random.default_rng(2).uniform(0.0, 1.0, size=(300, 3)))
        tracemalloc.start()
        try:
            C = OrderCone(OrderCone.nonneg(3).rep, generators=gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert C.maybe_pointed()
        assert order_unit_norm(C, [1.0, 1.0, 1.0], [2.0, -1.0, 0.5]) == 2.0

    def test_line_the_generators_miss_not_pointed(self):
        # {x1 >= 0} holds the line x1 = 0, which no generator of either set
        # lies on; the rows decide it, whatever the generators show
        rep = Polyhedron((HalfSpace([-1.0, 0.0], 0.0),))
        for gens in (([1.0, 0.0], [1.0, 1.0]),
                     (*([2.0, 0.1 * i] for i in range(4)), [1.0, 0.5], [-1.0, 1.0])):
            with pytest.warns(UserWarning, match="not pointed"):
                C = OrderCone(rep, generators=tuple(np.array(g) for g in gens))
            assert not C.maybe_pointed()

    def test_norm_refused_without_generators(self):
        C = OrderCone(Polyhedron((HalfSpace([-1.0, 0.0], 0.0),)))
        with pytest.raises(PreconditionFailed, match="^order cone is not pointed"):
            order_unit_norm(C, [1.0, 1.0], [2.0, 1.0])

    @pytest.mark.parametrize("delta, pointed", [(1e-6, True), (1e-12, False)])
    def test_rank_at_membership_tolerance(self, delta, pointed):
        # the least singular value of the rows is about delta / sqrt(2), on
        # either side of EPS_MEMBERSHIP
        rows = (HalfSpace([-1.0, 0.0], 0.0), HalfSpace([1.0, delta], 0.0))
        assert OrderCone(Polyhedron(rows)).maybe_pointed() is pointed

    def test_many_generators_change_nothing(self):
        C = OrderCone.nonneg(3)
        gens = tuple(np.random.default_rng(8000).uniform(0.0, 1.0, size=(8000, 3)))
        assert OrderCone(C.rep, generators=gens).maybe_pointed() is OrderCone(C.rep).maybe_pointed()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_orthants_pointed(self, m, no_svd):
        # the rows -I certify the orthant, which is built with no SVD
        assert OrderCone.nonneg(m).maybe_pointed() is True

    def test_golden_cones_pointed(self):
        doc = json.loads((GOLDEN / "pareto_blocks_cone.json").read_text())
        rows = tuple(HalfSpace(r["a"], 0.0) for r in doc["halfspaces"])
        assert OrderCone(Polyhedron(rows)).maybe_pointed()
        # the cone of test_golden.test_big_cone_matches_golden, built with no warning
        gens = tuple(np.random.default_rng(2000).uniform(0.0, 1.0, size=(2000, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OrderCone(OrderCone.nonneg(3).rep, generators=gens).maybe_pointed()

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("c", [-1.0, 2 * EPS_MEMBERSHIP, 1.0, 1e12])
    def test_axis_rows_certify_without_svd(self, c, m, no_svd):
        # a row c·e_j on every axis, shuffled among rows that are not axes
        rng = np.random.default_rng(m)
        rows = np.vstack([c * np.eye(m), rng.normal(size=(3, m))])[rng.permutation(m + 3)]
        C = OrderCone(Polyhedron(tuple(HalfSpace(r, 0.0) for r in rows)))
        assert C.maybe_pointed() is True

    @pytest.mark.parametrize("rows", [-EPS_MEMBERSHIP * np.eye(2), np.diag([-1.0, EPS_MEMBERSHIP]),
                                      EPS_MEMBERSHIP * np.eye(3)], ids=["neg", "mixed", "pos"])
    def test_axis_rows_at_tolerance_take_the_svd(self, rows, monkeypatch):
        # |c| = EPS_MEMBERSHIP certifies nothing; the SVD finds a singular
        # value of EPS_MEMBERSHIP, not above the tolerance
        calls = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank",
                            lambda *args, **kwargs: calls.append(args) or rank(*args, **kwargs))
        assert OrderCone(Polyhedron(tuple(HalfSpace(r, 0.0) for r in rows))).maybe_pointed() is False
        assert len(calls) == 1

    def test_certificate_agrees_with_rank(self):
        # random rows, half of them confined to a hyperplane (often normal to
        # an axis), then a row c·e_j on all axes or on all but one; cases
        # within a factor 1e3 of the tolerance are skipped
        rng = np.random.default_rng(37)
        seen = set()
        for _ in range(400):
            m = int(rng.integers(1, 7))
            R = rng.normal(size=(int(rng.integers(1, m + 2)), m))
            if m > 1 and rng.random() < 0.5:
                v = np.eye(m)[rng.integers(m)] if rng.random() < 0.5 else rng.normal(size=m)
                R = R - np.outer(R @ v, v) / (v @ v)
            full = rng.random() < 0.5
            axes = rng.permutation(m)[:m if full else m - 1]
            c = rng.choice([-1.0, 1.0], size=len(axes)) * rng.uniform(0.5, 2.0, size=len(axes))
            R = np.vstack([R, c[:, None] * np.eye(m)[axes]])
            sigma = np.linalg.svd(R, compute_uv=False)
            least = sigma[m - 1] if len(sigma) >= m else 0.0
            if 1e-3 * EPS_MEMBERSHIP < least < 1e3 * EPS_MEMBERSHIP:
                continue
            pointed = OrderCone(Polyhedron(tuple(HalfSpace(r, 0.0) for r in R))).maybe_pointed()
            assert pointed is (int(np.linalg.matrix_rank(R, tol=EPS_MEMBERSHIP)) == m)
            seen.add((full, pointed))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_non_pointed_warns(self):
        # halfplane: contains e2 and -e2; the warning names this call
        rep = Polyhedron((HalfSpace([-1.0, 0.0], 0.0),))
        with pytest.warns(UserWarning) as caught:
            OrderCone(rep, generators=(np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                                       np.array([1.0, 0.0])))
        assert caught[0].filename == __file__


class TestCsv:
    def test_round_trip_plain(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,3\n1,1\n3,0\n2,2\n")
        cloud = load_points_csv(path)
        assert cloud.points.shape == (4, 2)
        assert cloud.labels is None

    def test_trailing_labels(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,3,alpha\n1,1,beta\n")
        cloud = load_points_csv(path)
        assert cloud.labels == ("alpha", "beta")
        assert cloud.points.tolist() == [[0.0, 3.0], [1.0, 1.0]]

    def test_empty_file_invalid(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\n")
        with pytest.raises(InvalidInput):
            load_points_csv(path)

    def test_ragged_rows_invalid(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,3\n1,1,2\n")
        with pytest.raises(InvalidInput):
            load_points_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("abc\n", 1),
        ("# note\n", 1),
        ("1,2\n\nabc\n", 3),
    ])
    def test_label_only_line_invalid(self, tmp_path, text, line):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput, match=f"^line {line}: no coordinates$"):
            load_points_csv(path)


#: (file text, whether it reads with no chunk through the line parser)
PARSER_CASES = {
    "minus-zero": ("-0,0\n", True),
    "plus-sign": ("+1.5,2\n", True),
    "padded": (" 2.5 , 3\n", True),
    "tab": ("\t3,4\n", True),
    "trailing-dot": ("1.,2\n", True),
    "leading-dot": (".5,2\n", True),
    "upper-exponent": ("1E5,2\n", True),
    "subnormal-and-min-normal": ("4.9e-324,2.2250738585072011e-308\n", True),
    "30-digit-integer": ("123456789012345678901234567890,1\n", True),
    "long-decimal": ("0.1000000000000000055511151231257827,1\n", True),
    "inf-nan": ("inf,-Infinity,nan\n", True),
    "underscore": ("1_0,2\n", False),
    "arabic-indic-digits": ("١٢,2\n", False),
    "empty-field": ("1,,2\n", False),
    "trailing-comma": ("1,2,\n", False),
    "crlf": ("1,2\r\n3,4\r\n", True),
    "cr": ("1,2\r3,4\r", True),
    "blank-lines": ("\n1,2\n\n3,4\n\n", True),
    "whitespace-line": ("1,2\n   \n3,4\n", False),
    "single-column": ("5\n6\n7\n", True),
    "single-row": ("1,2,3\n", True),
    "empty": ("", False),
    "ragged": ("1,2\n3\n", False),
    "labels": ("1,2,a\n3,4,b\n", False),
    "hash-label": ("1,2,# note\n", False),
    "hash-after-number": ("1,2 # note\n", False),
    "label-only": ("abc\n", False),
    # a line break to str.splitlines, not to either parser
    "file-separator": ("1,\x1c2\n", True),
}

#: Files that only a chunked read can get wrong, for a chunk of n lines:
#: (file text, whether it reads with no chunk through the line parser).
CHUNK_CASES = {
    "width-change-after-first-chunk": (lambda n: "1,2\n" * n + "3,4,5\n", False),
    "label-in-last-chunk": (lambda n: "1,2\n" * 2 * n + "5,6,a\n", False),
    "blank-chunk": (lambda n: "1,2\n" + "\n" * (2 * n) + "3,4\n", True),
    "lone-final-row": (lambda n: "".join(f"{i},-{i}.5\n" for i in range(n + 1)), True),
    "blank-chunks-only": (lambda n: "\n" * (2 * n), False),
    "label-after-numeric-chunks": (lambda n: "1,2\n" * 2 * n + "3,4,a\n" + "5,6\n" * n, False),
    "label-before-numeric-chunks": (lambda n: "1,2,a\n" + "3,4\n" * 2 * n, False),
    "malformed-line-in-later-chunk": (lambda n: "1,2\n" * 2 * n + "3,x,4\n", False),
    "trailing-comma-in-later-chunk": (lambda n: "1,2\n" * 2 * n + "3,4,\n", False),
    "width-change-then-malformed": (
        lambda n: "1,2\n" * n + "3,4,5\n" * n + "1,2\n" * n + "x,1\n", False),
    "whitespace-line-in-later-chunk": (lambda n: "1,2\n" * 2 * n + "   \n3,4\n", False),
}


def _read_chunks(path) -> list[np.ndarray] | None:
    """The chunk reader's chunks of the file at path, or None where it
    reports an error or parses any chunk with the line parser."""
    with open(path) as f, mock.patch.object(scalarization, "_parse_lines",
                                            wraps=_parse_lines) as spy:
        try:
            chunks = list(scalarization._read_chunks(f, path))
        except InvalidInput:
            return None
    return None if spy.called else chunks


def _parse_whole(path) -> PointCloud:
    """The line parser over all of the file's lines, then the chunk
    reader's two end-of-file checks."""
    with open(path) as f:
        rows, labels = _parse_lines(list(f), 1)
    if not rows:
        raise InvalidInput(f"no points found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidInput(f"rows disagree on dimension: {sorted(widths)}")
    return PointCloud(np.array(rows), None if labels is None else tuple(labels))


def _assert_reads_agree(path, numeric):
    """Same bits (sign of zero included), labels and errors from the chunk
    reader as from the line parser over the whole file; numeric says that
    no chunk goes through the line parser."""
    chunks = _read_chunks(path)
    assert (chunks is not None) == numeric

    def attempt(load):
        try:
            return load()
        except InvalidInput as exc:
            return exc

    expected = attempt(lambda: _parse_whole(path))
    got = attempt(lambda: load_points_csv(path))
    streamed = attempt(lambda: _read_points_csv(path, lambda c: np.concatenate(list(c))))
    if isinstance(expected, InvalidInput):
        assert chunks is None
        for err in (got, streamed):
            assert isinstance(err, InvalidInput) and str(err) == str(expected)
        return
    assert got.labels == expected.labels
    for pts in [got.points, streamed] + ([] if chunks is None else [np.concatenate(chunks)]):
        assert pts.shape == expected.points.shape
        assert pts.tobytes() == expected.points.tobytes()


@pytest.mark.parametrize("text, one_pass", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_one_pass_read_agrees_with_line_parser(tmp_path, text, one_pass):
    path = tmp_path / "pts.csv"
    path.write_text(text, newline="")
    _assert_reads_agree(path, one_pass)


@pytest.mark.parametrize("lines", [1, 2, 3])
@pytest.mark.parametrize("make, numeric", [
    *((lambda n, text=text: text, numeric) for text, numeric in PARSER_CASES.values()),
    *CHUNK_CASES.values()], ids=[*PARSER_CASES, *CHUNK_CASES])
def test_chunked_read_agrees_with_line_parser(tmp_path, monkeypatch, lines, make, numeric):
    """Every case in chunks of a few lines against the line parser over the
    whole file: a width change after the first chunk, for one, still fails
    with "rows disagree on dimension: [2, 3]"."""
    monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", lines * _LINE_FLOATS)
    path = tmp_path / "pts.csv"
    path.write_text(make(lines), newline="")
    _assert_reads_agree(path, numeric)


def test_chunks_hold_whole_lines(tmp_path, monkeypatch):
    """Chunks of 2 lines: the blank-only chunk yields nothing and the last
    row comes alone."""
    monkeypatch.setattr("ulset.evaluator._BLOCK_FLOATS", 2 * _LINE_FLOATS)
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3,4\n\n\n5,6\n7,8\n\n9,10\n")
    assert [c.tolist() for c in _read_chunks(path)] == [
        [[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10]]]


def test_labelled_file_is_read_a_chunk_at_a_time(tmp_path):
    """Every line of 25,000 carries a label, so every chunk goes through the
    line parser; a consumer that drops each chunk holds about one chunk's
    lines and rows at a time (1.9 MiB here), not the file's."""
    n = 25_000
    P = np.random.default_rng(7).uniform(-3.0, 3.0, size=(n, 2))
    path = tmp_path / "labelled.csv"
    path.write_text("".join(f"{x!r},{y!r},p{i}\n" for i, (x, y) in enumerate(P.tolist())))
    tracemalloc.start()
    try:
        rows = _read_points_csv(path, lambda chunks: sum(len(c) for c in chunks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n
    assert peak < 4 * 2**20
