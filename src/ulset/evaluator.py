"""Evaluation of the translation functional phi(y) = inf {t : y in t*k + A}.

The functional is evaluated with extended-value semantics over the
lattice {finite t} + {-inf} + {nu}, where nu stands for the infimum of
the empty set (the point lies outside the domain: no translate of A
along k ever reaches it). nu is deliberately kept distinct from +inf:
every order predicate involving nu is false and arithmetic with nu
raises, which keeps min-over-union semantics honest.

Two evaluation strategies are provided. The closed form, the default,
covers the whole set grammar and is exact up to floating point: for a
direction admissible for every member, each member's feasible t is an
up-ray, so phi of a union is the min over its members, phi of an
intersection is the max, a polyhedron is the intersection of its
halfspaces and a complement closure the intersection, over the base's
members, of the union of that member's reversed halfspaces. Bisection
is the independent oracle, opt in with ``strategy="bisection"``: it
goes through the membership oracle only, brackets the threshold by
exponential doubling from t=0 out to +-t_max and refines to a mixed
tolerance tol*(1+|t|). A bisection result of MinusInf means membership
persisted at -t_max; that is a bounded numerical certificate, not a
proof that the whole line lies in the set. Ties at the bracket edge
resolve toward membership, matching the fact that the infimum is
attained for closed sets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import EmptyContour, InvalidInput, PreconditionFailed, UlsetError
from .geometry import (
    EPS_MEMBERSHIP,
    ComplementClosure,
    Direction,
    Polyhedron,
    SetExpr,
    SetIntersection,
    SetUnion,
    Shift,
    certify_direction,
    contains_many,
    _as_points,
)

#: Rows with a·k above this threshold contribute to the closed-form max.
AK_POSITIVE_MIN = 1e-9

DEFAULT_T_MAX = 1e12
DEFAULT_TOL = 1e-9

#: Integer codes used by :func:`evaluate_batch`.
KIND_FINITE = 0
KIND_MINUS_INF = 1
KIND_NU = 2

#: Stand-in value for -inf when a finite float is needed (contour sign tests).
MINUS_INF_SENTINEL = -1e30


@dataclass(frozen=True)
class ExtReal:
    """Value lattice {finite, -inf, nu} with the nu-is-incomparable order.

    MinusInf < Finite(s) < Finite(t) for s < t. Every order predicate
    involving Nu is false; Nu == Nu is true. Arithmetic with Nu raises
    UlsetError since no calculus for it is defined here.
    """

    kind: int
    _value: float = 0.0

    @staticmethod
    def finite(t: float) -> "ExtReal":
        t = float(t)
        if not math.isfinite(t):
            raise InvalidInput(f"finite value required, got {t}")
        return ExtReal(KIND_FINITE, t)

    @property
    def is_finite(self) -> bool:
        return self.kind == KIND_FINITE

    @property
    def is_minus_inf(self) -> bool:
        return self.kind == KIND_MINUS_INF

    @property
    def is_nu(self) -> bool:
        return self.kind == KIND_NU

    @property
    def value(self) -> float:
        if self.kind != KIND_FINITE:
            raise UlsetError(f"{self} has no finite value")
        return self._value

    def as_float(self) -> float:
        """Finite value, or -inf; raises for nu."""
        if self.kind == KIND_FINITE:
            return self._value
        if self.kind == KIND_MINUS_INF:
            return float("-inf")
        raise UlsetError("nu has no float representation")

    # -- order ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtReal):
            return other
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return ExtReal.finite(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.kind != o.kind:
            return False
        return self.kind != KIND_FINITE or self._value == o._value

    def __hash__(self):
        return hash((self.kind, self._value if self.kind == KIND_FINITE else 0.0))

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.kind == KIND_NU or o.kind == KIND_NU:
            return False
        if self.kind == KIND_MINUS_INF:
            return o.kind != KIND_MINUS_INF
        if o.kind == KIND_MINUS_INF:
            return False
        return self._value < o._value

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.kind == KIND_NU or o.kind == KIND_NU:
            return False
        return self < o or self == o

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o < self

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o <= self

    # -- arithmetic (nu raises) --------------------------------------------

    def _require_not_nu(self):
        if self.kind == KIND_NU:
            raise UlsetError("arithmetic with nu is undefined")

    def __add__(self, other):
        self._require_not_nu()
        if not isinstance(other, (int, float)) or isinstance(other, bool):
            return NotImplemented
        if self.kind == KIND_MINUS_INF:
            return self
        return ExtReal.finite(self._value + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, float)) or isinstance(other, bool):
            return NotImplemented
        return self + (-float(other))

    def __neg__(self):
        self._require_not_nu()
        if self.kind == KIND_MINUS_INF:
            raise UlsetError("negation of -inf is not representable (no +inf in this lattice)")
        return ExtReal.finite(-self._value)

    def __repr__(self):
        if self.kind == KIND_FINITE:
            return f"ExtReal.finite({self._value!r})"
        return "MINUS_INF" if self.kind == KIND_MINUS_INF else "NU"

    def __str__(self):
        if self.kind == KIND_FINITE:
            return repr(self._value)
        return "-inf" if self.kind == KIND_MINUS_INF else "nu"


MINUS_INF = ExtReal(KIND_MINUS_INF)
NU = ExtReal(KIND_NU)


def _wrap(vals: np.ndarray, kinds: np.ndarray) -> list[ExtReal]:
    out = []
    for v, kd in zip(vals, kinds):
        if kd == KIND_FINITE:
            out.append(ExtReal.finite(v))
        elif kd == KIND_MINUS_INF:
            out.append(MINUS_INF)
        else:
            out.append(NU)
    return out


class Strategy(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    BISECTION = "bisection"


@dataclass(frozen=True, eq=False)
class FunctionalHandle:
    """A set, a certified direction, and a pinned evaluation strategy."""

    set: SetExpr
    direction: Direction
    strategy: Strategy
    t_max: float = DEFAULT_T_MAX
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.direction.k.shape[0] != self.set.dim:
            raise InvalidInput(
                f"direction has dimension {self.direction.k.shape[0]}, set has {self.set.dim}"
            )
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise InvalidInput("t_max must be positive and finite")
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")


def make_handle(
    s: SetExpr,
    k,
    strategy: Strategy | str = Strategy.CLOSED_FORM,
    t_max: float = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
) -> FunctionalHandle:
    """Certify k against s and build a handle, by default on the closed form."""
    direction = certify_direction(s, k)
    return FunctionalHandle(s, direction, Strategy(strategy), t_max=t_max, tol=tol)


# ---------------------------------------------------------------------------
# closed form
#
# Values travel as lattice keys: a finite value is itself, -inf is -inf
# and nu is +inf, the top element. A union is then the elementwise min
# (-inf wins) and an intersection the elementwise max (nu wins).


def _lattice(parts, union: bool) -> np.ndarray:
    """Combine the keys of the members of a union (min) or an intersection (max)."""
    return reduce(np.minimum if union else np.maximum, parts)


def _halfspace_keys(g: np.ndarray, ak: float) -> np.ndarray:
    """Keys of one halfspace a·y <= b, given g = a·y - b at every point.

    A row moving along k (a·k > 0) is reached at t = g / a·k. A static
    row is -inf where the point satisfies it and nu where it does not.
    """
    if ak <= AK_POSITIVE_MIN:
        return np.where(g > EPS_MEMBERSHIP, np.inf, -np.inf)
    t = g / ak
    if not np.isfinite(t).all():
        raise InvalidInput("a value of the functional overflows the float range")
    return t


def _rows_keys(G: np.ndarray, ak: np.ndarray, union: bool) -> np.ndarray:
    """Keys of the intersection (or union) of the halfspaces with rows G, a·k."""
    return _lattice((_halfspace_keys(g, a) for g, a in zip(G, ak)), union)


def _closed_batch(s: SetExpr, k: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if isinstance(s, Polyhedron):
        return _rows_keys(s.normals @ Y.T - s.offsets[:, None], s.normals @ k, union=False)
    if isinstance(s, Shift):
        return _closed_batch(s.base, k, Y - s.offset)
    if isinstance(s, (SetUnion, SetIntersection)):
        return _lattice((_closed_batch(m, k, Y) for m in s.members),
                        union=isinstance(s, SetUnion))
    if isinstance(s, ComplementClosure):
        # a member's reversed rows (-a)·y <= -b go through one matrix
        # product, so they round as the pieces of complement_closure do
        reversed_rows = ((-m.normals, -m.offsets) for m in s.polyhedra)
        return _lattice((_rows_keys(R @ Y.T - c[:, None], R @ k, union=True)
                         for R, c in reversed_rows), union=False)
    raise InvalidInput(f"closed form does not cover {type(s).__name__}")


def _from_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    kinds = np.full(keys.shape, KIND_FINITE, dtype=np.int8)
    kinds[keys == -np.inf] = KIND_MINUS_INF
    kinds[keys == np.inf] = KIND_NU
    return np.where(kinds == KIND_FINITE, keys, 0.0), kinds


def _to_keys(vals: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_from_keys`: finite values as themselves, -inf, nu as +inf."""
    return np.where(kinds == KIND_FINITE, vals,
                    np.where(kinds == KIND_MINUS_INF, -np.inf, np.inf))


# ---------------------------------------------------------------------------
# bisection


def _bisect_batch(h: FunctionalHandle, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s, k = h.set, h.direction.k
    n = Y.shape[0]
    kinds = np.full(n, KIND_FINITE, dtype=np.int8)
    lo = np.zeros(n)
    hi = np.zeros(n)

    member0 = contains_many(s, Y, EPS_MEMBERSHIP)

    # upward: points not yet members at t=0, so lo=0 is a known non-member
    active = np.where(~member0)[0]
    t = 1.0
    while active.size:
        t_now = min(t, h.t_max)
        m = contains_many(s, Y[active] - t_now * k, EPS_MEMBERSHIP)
        hi[active[m]] = t_now
        misses = active[~m]
        lo[misses] = t_now
        if t_now == h.t_max:
            kinds[misses] = KIND_NU
            active = misses[:0]
        else:
            active = misses
        t *= 2.0

    # downward: points that are members at t=0, so hi=0 is a known member
    active = np.where(member0)[0]
    t = -1.0
    while active.size:
        t_now = max(t, -h.t_max)
        m = contains_many(s, Y[active] - t_now * k, EPS_MEMBERSHIP)
        lo[active[~m]] = t_now
        stays = active[m]
        hi[stays] = t_now
        if t_now == -h.t_max:
            kinds[stays] = KIND_MINUS_INF
            active = stays[:0]
        else:
            active = stays
        t *= 2.0

    bracketed = np.where(kinds == KIND_FINITE)[0]
    while bracketed.size:
        gap = hi[bracketed] - lo[bracketed]
        todo = bracketed[gap > h.tol * (1.0 + np.abs(hi[bracketed]))]
        if not todo.size:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        m = contains_many(s, Y[todo] - mid[:, None] * k, EPS_MEMBERSHIP)
        hi[todo[m]] = mid[m]
        lo[todo[~m]] = mid[~m]

    vals = np.where(kinds == KIND_FINITE, hi, 0.0)
    return vals, kinds


# ---------------------------------------------------------------------------
# public evaluation API


def evaluate_batch(h: FunctionalHandle, Y) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at many points; returns (values, kind codes) arrays.

    Kind codes are KIND_FINITE / KIND_MINUS_INF / KIND_NU; values are
    meaningful only where the kind is finite.
    """
    pts = _as_points(Y, h.set.dim)
    if h.strategy == Strategy.CLOSED_FORM:
        return _from_keys(_closed_batch(h.set, h.direction.k, pts))
    return _bisect_batch(h, pts)


def evaluate_many(h: FunctionalHandle, Y) -> list[ExtReal]:
    vals, kinds = evaluate_batch(h, Y)
    return _wrap(vals, kinds)


def evaluate(h: FunctionalHandle, y) -> ExtReal:
    """Value of the functional at a single point."""
    return evaluate_many(h, np.asarray(y, dtype=float)[None, :])[0]


def evaluate_scaled(h: FunctionalHandle, lam: float, y) -> ExtReal:
    """Value for the rescaled direction lam*k, lam > 0: finite values divide by lam."""
    lam = float(lam)
    if not lam > 0:
        raise InvalidInput("scale factor must be positive")
    v = evaluate(h, y)
    if v.is_finite:
        return ExtReal.finite(v.value / lam)
    return v


def evaluate_level_shifted(h: FunctionalHandle, c: float, y) -> ExtReal:
    """Value for the set translated by c*k: finite values drop by c."""
    c = float(c)
    v = evaluate(h, y)
    if v.is_finite:
        return ExtReal.finite(v.value - c)
    return v


# -- dual route --------------------------------------------------------------


def _dual_route_children(s: SetExpr) -> list[Polyhedron]:
    if isinstance(s, Polyhedron):
        return [s]
    if isinstance(s, SetUnion) and all(isinstance(m, Polyhedron) for m in s.members):
        return list(s.members)
    raise PreconditionFailed(
        "dual evaluation needs a polyhedron or a union of polyhedra"
    )


def _require_strict_recession(s: SetExpr, k: np.ndarray) -> None:
    for ci, child in enumerate(_dual_route_children(s)):
        ak = child.normals @ k
        bad = np.where(ak <= AK_POSITIVE_MIN)[0]
        if bad.size:
            i = int(bad[0])
            raise PreconditionFailed(
                f"row {i} of member {ci} has a·k = {float(ak[i]):.3g} <= {AK_POSITIVE_MIN:g}; "
                "the boundary would not move strictly inward along k"
            )


def _dual_handle(h: FunctionalHandle) -> FunctionalHandle:
    _require_strict_recession(h.set, h.direction.k)
    comp = ComplementClosure(h.set)
    direction = certify_direction(comp, -h.direction.k)
    return FunctionalHandle(comp, direction, Strategy.CLOSED_FORM, t_max=h.t_max, tol=h.tol)


def _dual_keys(h: FunctionalHandle, Y) -> np.ndarray:
    """Lattice keys of the dual route: negated finite values, nu everywhere else."""
    vals, kinds = evaluate_batch(_dual_handle(h), Y)
    return np.where(kinds == KIND_FINITE, -vals, np.inf)


def evaluate_dual_many(h: FunctionalHandle, Y) -> list[ExtReal]:
    return _wrap(*_from_keys(_dual_keys(h, Y)))


def evaluate_dual(h: FunctionalHandle, y) -> ExtReal:
    """Value via the complement route: negate phi on the closed complement with -k.

    Only finite dual values are transported back; outside the band where
    both functionals are finite their domains differ, so anything
    non-finite comes back as nu.
    """
    return evaluate_dual_many(h, np.asarray(y, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# 2-d contour extraction


_SEGMENTS = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("bottom", "top"),),
    11: (("right", "top"),),
    12: (("left", "right"),),
    13: (("bottom", "right"),),
    14: (("left", "bottom"),),
}


def _edge_point(edge, x0, x1, y0, y1, f00, f10, f11, f01):
    if edge == "bottom":
        fa, fb = f00, f10
        pa, pb = (x0, y0), (x1, y0)
    elif edge == "right":
        fa, fb = f10, f11
        pa, pb = (x1, y0), (x1, y1)
    elif edge == "top":
        fa, fb = f01, f11
        pa, pb = (x0, y1), (x1, y1)
    else:
        fa, fb = f00, f01
        pa, pb = (x0, y0), (x0, y1)
    denom = fa - fb
    t = 0.5 if denom == 0.0 else fa / denom
    t = min(max(t, 0.0), 1.0)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def contour2d(h: FunctionalHandle, level: float, bbox, grid_n: int) -> list[np.ndarray]:
    """Marching-squares polylines of the level set {y : phi(y) = level}.

    The functional is sampled on a grid_n x grid_n grid over
    bbox = (x0, y0, x1, y1). Cells touching a nu corner are skipped;
    -inf corners enter the sign tests as a large negative sentinel.
    Each returned polyline is an (m, 2) array of points; segments are
    emitted per cell in row-major cell order without stitching.
    """
    if h.set.dim != 2:
        raise InvalidInput("contour extraction needs a 2-d set")
    grid_n = int(grid_n)
    if not (8 <= grid_n <= 4096):
        raise InvalidInput("grid_n must lie in [8, 4096]")
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0):
        raise InvalidInput("bbox must satisfy x1 > x0 and y1 > y0")

    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    X, Yg = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Yg.ravel()], axis=1)
    vals, kinds = evaluate_batch(h, pts)
    F = np.where(
        kinds == KIND_FINITE, vals - float(level),
        np.where(kinds == KIND_MINUS_INF, MINUS_INF_SENTINEL, np.nan),
    ).reshape(grid_n, grid_n)

    polylines: list[np.ndarray] = []
    usable_cells = 0
    for j in range(grid_n - 1):
        for i in range(grid_n - 1):
            f00, f10 = F[j, i], F[j, i + 1]
            f01, f11 = F[j + 1, i], F[j + 1, i + 1]
            if math.isnan(f00) or math.isnan(f10) or math.isnan(f01) or math.isnan(f11):
                continue
            usable_cells += 1
            case = (
                (1 if f00 >= 0 else 0)
                | (2 if f10 >= 0 else 0)
                | (4 if f11 >= 0 else 0)
                | (8 if f01 >= 0 else 0)
            )
            if case in (0, 15):
                continue
            if case in (5, 10):
                center = 0.25 * (f00 + f10 + f01 + f11)
                if case == 5:
                    segs = ((("bottom", "right"), ("top", "left")) if center >= 0
                            else (("bottom", "left"), ("right", "top")))
                else:
                    segs = ((("bottom", "left"), ("right", "top")) if center >= 0
                            else (("bottom", "right"), ("top", "left")))
            else:
                segs = _SEGMENTS[case]
            for ea, eb in segs:
                pa = _edge_point(ea, xs[i], xs[i + 1], ys[j], ys[j + 1], f00, f10, f11, f01)
                pb = _edge_point(eb, xs[i], xs[i + 1], ys[j], ys[j + 1], f00, f10, f11, f01)
                polylines.append(np.array([pa, pb]))

    if usable_cells == 0:
        raise EmptyContour("every grid cell touches a point outside the domain")
    return polylines
