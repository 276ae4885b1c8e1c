import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from ulset import (
    ComplementClosure,
    FunctionalHandle,
    HalfSpace,
    InvalidInput,
    OrderCone,
    Polyhedron,
    SetIntersection,
    SetUnion,
    Shift,
    Strategy,
    make_handle,
    recession_cone,
)
import ulset.analysis as analysis
from ulset.evaluator import _keys
from ulset.geometry import (AK_POSITIVE_MIN, EPS_MEMBERSHIP, contains_many, _as_points, _as_vector,
                            _leaf_ak)


def three_quadrant_union() -> SetUnion:
    """Union of {y1 <= -1}, {y1 <= 0, y2 <= 0} and {y2 <= -1}.

    With k = (1, 0) the functional is piecewise: -inf below y2 = -1,
    y1 on the middle band, y1 + 1 above y2 = 0.
    """
    return SetUnion((
        Polyhedron((HalfSpace([1.0, 0.0], -1.0),)),
        Polyhedron((HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], 0.0))),
        Polyhedron((HalfSpace([0.0, 1.0], -1.0),)),
    ))


def three_quadrant_value(y1: float, y2: float):
    """Reference formula for the three-quadrant union with k = (1, 0)."""
    if y2 <= -1.0:
        return None  # stands for -inf
    if y2 <= 0.0:
        return y1
    return y1 + 1.0


def reference_contains(s, pts: np.ndarray, eps: float) -> np.ndarray:
    """Membership of the rows of pts, written out node by node: a·y - b <= eps
    on a polyhedron's rows, b - a·y <= eps on one row of each complement
    member, or over a union's members, and over an intersection's."""
    if isinstance(s, Polyhedron):
        return (s.normals @ pts.T - s.offsets[:, None] <= eps).all(axis=0)
    if isinstance(s, SetUnion):
        return reduce(np.logical_or, (reference_contains(m, pts, eps) for m in s.members))
    if isinstance(s, SetIntersection):
        return reduce(np.logical_and, (reference_contains(m, pts, eps) for m in s.members))
    if isinstance(s, Shift):
        return reference_contains(s.base, pts - s.offset, eps)
    if isinstance(s, ComplementClosure):
        return reduce(np.logical_and, ((p.offsets[:, None] - p.normals @ pts.T <= eps).any(axis=0)
                                       for p in s.polyhedra))
    raise TypeError(f"no reference for {type(s).__name__}")


def kernel_handle(s, k, strategy=Strategy.CLOSED_FORM) -> FunctionalHandle:
    """A handle on s and k with k not certified, by default on the closed
    form, so that kernel tests can use one k for every set, a complement
    closure included."""
    return FunctionalHandle(s, k, Strategy(strategy))


# The closed form and the outside mask before the row plan: one walk of the
# set tree per call, which rebuilds each polyhedron's rows, a·k and moving
# mask, on row-major points (axis -1 is the coordinate).


def reference_fold_rows(s, Y: np.ndarray, rows) -> np.ndarray:
    """rows(R, c, Y, union) on each polyhedron's rows (union=False) and each
    complement member's reversed rows (union=True); a shift moves Y, a union
    folds with the elementwise min, the rest with the max."""
    if isinstance(s, Polyhedron):
        return rows(s.normals, s.offsets, Y, False)
    if isinstance(s, Shift):
        return reference_fold_rows(s.base, Y - s.offset, rows)
    if isinstance(s, (SetUnion, SetIntersection)):
        parts = (reference_fold_rows(m, Y, rows) for m in s.members)
        return reduce(np.minimum if isinstance(s, SetUnion) else np.maximum, parts)
    if isinstance(s, ComplementClosure):
        return reduce(np.maximum, (rows(-p.normals, -p.offsets, Y, True) for p in s.polyhedra))
    raise TypeError(f"no reference for {type(s).__name__}")


def reference_rows_keys(G: np.ndarray, ak: np.ndarray, union: bool) -> np.ndarray:
    """Keys of a polyhedron's rows from G = R·y - c, with the moving mask
    taken from a·k in ak on every call."""
    moving = ak > AK_POSITIVE_MIN
    parts = []
    if not moving.all():
        S = G[~moving]
        if not np.isfinite(S).all():
            raise InvalidInput("overflow")
        violated = S > EPS_MEMBERSHIP
        parts.append(np.where(violated.all(axis=0) if union else violated.any(axis=0),
                              np.inf, -np.inf))
    if moving.any():
        T = G if moving.all() else G[moving]
        T /= ak[moving, None]
        if not np.isfinite(T).all():
            raise InvalidInput("overflow")
        parts.append(T.min(axis=0) if union else T.max(axis=0))
    return reduce(np.minimum if union else np.maximum, parts)


def reference_closed_batch(s, k: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Keys at the points Y, an (n, m) array, from (R·y - c) / a·k on every
    moving row: c is subtracted and a·k divided by whatever their values,
    +0.0 and 1.0 included."""
    return reference_fold_rows(s, Y, lambda R, c, P, union: reference_rows_keys(
        R @ P.T - c[:, None], R @ k, union))


def reference_exact(s, k, y):
    """The closed form's key at the point y in exact rational arithmetic: a
    Fraction, -inf or nu (+inf), by a walk of the set tree.

    Each row is moving or static by the float a·k a handle on s and k
    reads (geometry._leaf_ak), taken exactly as a Fraction, so that kinds
    agree with the closed form's by construction. At the point z a row
    sees (y less every shift above it, exactly), a moving row is reached
    at t = (a·z - b) / (a·k); a static row gives -inf where a·z - b <=
    EPS_MEMBERSHIP and nu elsewhere. A polyhedron's rows combine by max,
    a complement member's reversed rows (-a)·z <= -b by min, a union's
    members by min, and an intersection's and a complement's by max."""
    aks = iter(_leaf_ak(s, _as_vector(k, s.dim)))
    eps = Fraction(EPS_MEMBERSHIP)

    def rows(p, z, sign):  # sign -1: a complement member, whose leaf holds -a
        keys = []
        for h, ak in zip(p.halfspaces, next(aks).tolist()):
            g = sign * (sum(Fraction(a) * zi for a, zi in zip(h.a.tolist(), z)) - Fraction(h.b))
            keys.append(g / Fraction(ak) if ak > AK_POSITIVE_MIN
                        else -math.inf if g <= eps else math.inf)
        return max(keys) if sign > 0 else min(keys)

    def walk(s, z):
        if isinstance(s, Polyhedron):
            return rows(s, z, 1)
        if isinstance(s, Shift):
            return walk(s.base, [zi - Fraction(o) for zi, o in zip(z, s.offset.tolist())])
        if isinstance(s, (SetUnion, SetIntersection)):
            return (min if isinstance(s, SetUnion) else max)(walk(m, z) for m in s.members)
        if isinstance(s, ComplementClosure):
            return max(rows(p, z, -1) for p in s.polyhedra)
        raise TypeError(f"no reference for {type(s).__name__}")

    return walk(s, [Fraction(v) for v in np.asarray(y, dtype=float).tolist()])


def reference_outside(s, pts: np.ndarray, holds) -> np.ndarray:
    """Mask of the points outside s, where holds(R, c, pts) is the (rows, n)
    mask of the rows R·y <= c that each point satisfies."""
    return reference_fold_rows(s, pts, lambda R, c, Y, union:
                               ~(holds(R, c, Y).any(0) if union else holds(R, c, Y).all(0)))


def reference_translates(s, Y, t, k) -> np.ndarray:
    """Membership of y - t*k for each row y of Y, with t one value per row
    (or one for all): the translate test bisection made before it read the
    handle's row motions, folded by the tree walk of reference_outside.

    Each halfspace is tested as a·y - b - t·(a·k) <= EPS_MEMBERSHIP, so a
    large t is not subtracted from y first, where it would round away y's
    distance to a static row. Rows with a·k <= AK_POSITIVE_MIN are
    static, as in the closed form: their t term is dropped. A row value
    that is not finite is refused, as in the closed form.
    """
    pts = _as_points(Y, s.dim)
    t = np.asarray(t, dtype=float)
    k = _as_vector(k, s.dim, "direction")

    def holds(R, c, P):
        ak = R @ k
        ak = np.where(ak > AK_POSITIVE_MIN, ak, 0.0)
        G = R @ P.T - c[:, None] - ak[:, None] * t
        if not np.isfinite(G).all():
            raise InvalidInput("overflow")
        return G <= EPS_MEMBERSHIP

    return ~reference_outside(s, pts, holds)


def reference_bisect(h, Y: np.ndarray) -> np.ndarray:
    """Bisection keys by two-pass bracketing: plain membership a·y <= b + eps
    splits the points at t = 0, then one loop doubles t upward for the
    non-members and a mirrored loop doubles it downward for the members;
    the refinement is the evaluator's. Every pass is over all the points."""
    s, k = h.set, h.k
    n = Y.shape[0]
    lo = np.zeros(n)
    hi = np.zeros(n)

    member0 = contains_many(s, Y, EPS_MEMBERSHIP)

    active = np.where(~member0)[0]
    t = 1.0
    while active.size:
        t_now = min(t, h.t_max)
        m = reference_translates(s, Y[active], t_now, k)
        hi[active[m]] = t_now
        misses = active[~m]
        lo[misses] = t_now
        if t_now == h.t_max:
            hi[misses] = np.inf
            active = misses[:0]
        else:
            active = misses
        t *= 2.0

    active = np.where(member0)[0]
    t = -1.0
    while active.size:
        t_now = max(t, -h.t_max)
        m = reference_translates(s, Y[active], t_now, k)
        lo[active[~m]] = t_now
        stays = active[m]
        hi[stays] = t_now
        if t_now == -h.t_max:
            hi[stays] = -np.inf
            active = stays[:0]
        else:
            active = stays
        t *= 2.0

    bracketed = np.flatnonzero(np.isfinite(hi))
    while bracketed.size:
        todo = bracketed[hi[bracketed] - lo[bracketed] > h.tol * (1.0 + np.abs(hi[bracketed]))]
        mid = 0.5 * (lo[todo] + hi[todo])
        inside = (lo[todo] < mid) & (mid < hi[todo])
        todo, mid = todo[inside], mid[inside]
        if not todo.size:
            break
        m = reference_translates(s, Y[todo], mid, k)
        hi[todo[m]] = mid[m]
        lo[todo[~m]] = mid[~m]
    return hi


def reference_candidates(U: np.ndarray, V: np.ndarray, reach: float) -> np.ndarray:
    """The (B, n) mask of a block's Pareto candidates, by the dense filter
    scalarization._minimize ran before its box prune: A <= min A + reach
    with a relative margin of 2**-50, where A is the max over rows of U - V,
    U the cloud's (rows, n) filter values and V the block's (rows, B) ones,
    every pair computed."""
    A = np.subtract(U[0], V[0][:, None])
    T = np.empty_like(A)
    for u, v in zip(U[1:], V[1:]):
        np.maximum(A, np.subtract(u, v[:, None], out=T), out=A)
    low = A.min(axis=1)
    return A <= (low + reach + 2.0**-50 * (np.abs(low) + reach))[:, None]


def reference_weakly_efficient(F: np.ndarray, C: OrderCone) -> list[int]:
    """The weakly efficient points of F, one point at a time against every
    point of F, as scalarization.weakly_efficient tested them before it
    went in blocks."""
    return [i for i in range(len(F)) if not C.interior_contains_many(F[i] - F).any()]


def biased_eval(bias_scale=0.05):
    """Fault injector: adds bias_scale * ||y||^2 to every finite value.

    Checks are expected to call it in place of the lattice keys
    ``ulset.analysis._keys`` (monkeypatched there).
    """

    def patched(h, Y):
        keys = _keys(h, Y)
        pts = np.atleast_2d(np.asarray(Y, dtype=float))
        bump = bias_scale * (pts ** 2).sum(axis=1)
        return np.where(np.isfinite(keys), keys + bump, keys)

    return patched


# check_monotone before its draw kept steps: the draw kept every extra column
# of a kept sample, (n, generators) floats, and each block of kept samples
# made its steps (0.3 * |E|) @ G from them.


def reference_draw_domain(h, n: int, rng, bbox, extra_cols: int):
    """Rejection-sample as analysis._draw_domain does, keeping each kept
    sample's point, key and all of its extra columns."""
    lo, hi = bbox
    dim = h.set.dim
    P, V, E = np.empty((n, dim)), np.empty(n), np.empty((n, extra_cols))
    blocks = list(analysis._blocks(h, n, extra_cols))
    kept = 0
    for _ in range(10):
        if kept == n:
            break
        first = kept
        keep = np.zeros(n, dtype=bool)
        for a, b in blocks:
            cand = rng.uniform(lo, hi, size=(b - a, dim))
            if kept == n:
                continue
            keys = _keys(h, cand)
            rows = np.flatnonzero(keys < np.inf)[: n - kept]
            keep[a + rows] = True
            P[kept: kept + len(rows)] = cand[rows]
            V[kept: kept + len(rows)] = keys[rows]
            kept += len(rows)
        for a, b in blocks:
            extras = rng.uniform(-10.0, 10.0, size=(b - a, extra_cols))[keep[a:b]]
            E[first: first + len(extras)] = extras
            first += len(extras)
    return P[:kept], V[:kept], E[:kept]


def reference_check_monotone(h, cone, strict: bool = False, n_samples: int = 1000,
                             seed: int = 42, bbox=analysis.DEFAULT_BBOX):
    """analysis.check_monotone on the reference draw, with each block's steps
    made from the extra columns of that block of kept samples, in blocks of
    kept samples sized for those columns."""
    rng = np.random.default_rng(seed)
    G = cone.matrix(h.set.dim)
    P, V, E = reference_draw_domain(h, n_samples, rng, bbox, max(G.shape[0], 1))
    k = h.k
    functional, escaped = analysis._Worst(0.0), analysis._Worst(0.0)
    for a, b in analysis._blocks(h, len(P), G.shape[0]):
        y, v = P[a:b], V[a:b]
        W = np.abs(E[a:b, : G.shape[0]]) * 0.3
        # one deviation: a one-row product goes through gemv, which rounds
        # unlike gemm, so a lone row is multiplied as two copies, as
        # geometry._rows_at multiplies a lone row or point
        B = (np.repeat(W, 2, axis=0) @ G)[:1] if b - a == 1 else W @ G
        v1 = _keys(h, y - B)
        ok = v1 < np.inf
        y2, step, v1, v2 = y[ok], B[ok], v1[ok], v[ok]
        defect = analysis._le_defect(v1, v2, slack=1e-7)
        if strict:
            gap = analysis.STRICT_MARGIN * (1.0 + np.abs(v2))
            moved = np.linalg.norm(step, axis=1) > 1e-6
            defect = np.maximum(defect, np.where(moved, analysis._le_defect(v1, v2 - gap), 0.0))
        functional.add(defect, lambda i: {
            "inputs": {"y2": y2[i].tolist(), "step": step[i].tolist()},
            "values": {"phi_y1": analysis._ext_json(v1[i]),
                       "phi_y2": analysis._ext_json(v2[i])},
        })
        finite = np.isfinite(v)
        boundary = y[finite] - v[finite, None] * k - B[finite]
        escaped.add((~contains_many(h.set, boundary, 1e-6)).astype(float), lambda i: {
            "inputs": {"boundary_minus_step": boundary[i].tolist(),
                       "step": B[finite][i].tolist()},
            "values": {"set_level": "boundary point minus step escaped the set"},
        })
    worst = functional if functional.defect >= escaped.defect else escaped
    name = "strictly_monotone" if strict else "monotone"
    return analysis._verdict(name, seed, n_samples, worst, applicable=functional.count)


def rec_handle_for(h):
    return make_handle(recession_cone(h.set).to_polyhedron(), h.k)


def neg_orthant(n: int = 2) -> Polyhedron:
    eye = np.eye(n)
    return Polyhedron(tuple(HalfSpace(eye[i], 0.0) for i in range(n)))


@pytest.fixture
def tq_set():
    return three_quadrant_union()


@pytest.fixture
def tq_handle(tq_set):
    return make_handle(tq_set, [1.0, 0.0])


@pytest.fixture
def tq_bisect(tq_set):
    return make_handle(tq_set, [1.0, 0.0], strategy="bisection")


@pytest.fixture
def cone_diag():
    """Negative orthant with the strictly interior direction (1, 1)."""
    return make_handle(neg_orthant(2), [1.0, 1.0])


@pytest.fixture
def cone_edge():
    """Negative orthant with the boundary direction (1, 0)."""
    return make_handle(neg_orthant(2), [1.0, 0.0])


@pytest.fixture
def pareto_cloud():
    from ulset import PointCloud

    return PointCloud(np.array([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]]))


@pytest.fixture
def orthant2():
    return OrderCone.nonneg(2)


@pytest.fixture
def no_svd(monkeypatch):
    """np.linalg's SVD and rank test raise, so only what runs no SVD passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg SVD called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)


def random_polyhedral_fixture(rng: np.random.Generator, dim: int,
                              max_halfspaces: int = 6, k=None, strict: bool = False):
    """Random polyhedron or union with a direction its rows certify.

    Rows are made either exactly orthogonal to k (so they stay
    t-independent under closed form and bisection alike) or clearly
    aligned with it (a·k at least 0.3 * ||a|| * ||k||). A given k is
    reused; ``strict`` makes every row aligned (strict recession).
    """
    if k is None:
        k = rng.normal(size=dim)
        k /= np.linalg.norm(k)

    def row():
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        s = float(a @ k)
        if not strict and rng.uniform() < 0.25:
            a = a - s * k
            norm = np.linalg.norm(a)
            if norm < 1e-6:
                a = rng.normal(size=dim)
                a -= float(a @ k) * k
                norm = np.linalg.norm(a)
            a /= norm
        else:
            if s < 0:
                a, s = -a, -s
            if s < 0.3:
                a = a - s * k + 0.5 * k
                a /= np.linalg.norm(a)
        return HalfSpace(a, float(rng.uniform(-3.0, 3.0)))

    n_members = int(rng.integers(1, 4))
    members = []
    for _ in range(n_members):
        n_rows = int(rng.integers(1, max_halfspaces + 1))
        members.append(Polyhedron(tuple(row() for _ in range(n_rows))))
    s = members[0] if n_members == 1 else SetUnion(tuple(members))
    return s, k
