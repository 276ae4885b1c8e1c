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
tests membership of y - t*k only, t = 0 included, each row as
a·y - b - t·(a·k) <= eps (at t = 0, :func:`~ulset.geometry.contains_many`'s
rule), which never divides by a·k. The test at t = 0 picks the direction,
one loop doubles |t| out to t_max to bracket the threshold, and bisection
refines it to a mixed tolerance tol*(1+|t|), or to adjacent floats where
tol asks for less. A bisection result of
MinusInf means membership persisted at -t_max; that is a bounded
numerical certificate, not a proof that the whole line lies in the
set. Ties at the bracket edge resolve toward membership, matching the
fact that the infimum is attained for closed sets. Both strategies run
on the same blocks of points and read the row motions cached on the handle.
:func:`_keys` is that one block loop, and only the public
:func:`evaluate_batch` turns its lattice keys into kind codes.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import EmptyContour, InvalidInput, PreconditionFailed, Unsupported, UlsetError, record
from .geometry import (
    AK_POSITIVE_MIN,
    EPS_MEMBERSHIP,
    ComplementClosure,
    RecessionCone,
    SetExpr,
    certify_direction,
    fold_plan,
    recession_cone,
    _as_direction,
    _as_points,
    _leaf_ak,
    _outside,
    _row_values,
)

DEFAULT_T_MAX = 1e12
DEFAULT_TOL = 1e-9

#: Kind codes of :func:`evaluate_batch`, the one place keys become codes.
KIND_FINITE = 0
KIND_MINUS_INF = 1
KIND_NU = 2

#: Stand-in value for -inf when a finite float is needed (contour sign tests).
MINUS_INF_SENTINEL = -1e30

#: Float64 elements in the largest temporary of one block of items, in
#: both strategies of :func:`_keys` and in every other block loop: 128 KiB,
#: glibc's default mmap threshold, so a block's temporaries are reused heap,
#: not fresh pages. :func:`_spans` is its one reader.
_BLOCK_FLOATS = 2**14

#: A line of a points CSV, or of `ulset eval` output, takes about 30
#: bytes, four floats' worth: the width :func:`_spans` sizes blocks of
#: lines by.
_LINE_FLOATS = 4

#: Message of the InvalidInput for a row value or key that is not finite.
_OVERFLOW = "a value of the functional overflows the float range"


def key_text(key: float) -> str:
    """A lattice key as written in CLI output and report witnesses: the
    repr of a finite value, "-inf", or "nu" for +inf."""
    return "nu" if key == math.inf else repr(float(key))


@record
class ExtReal:
    """Value lattice {finite, -inf, nu} with the nu-is-incomparable order.

    A value is held as its lattice key (a finite value as itself, -inf
    as -inf, nu as +inf) and ordered by it: MinusInf < Finite(s) <
    Finite(t) for s < t. Every order predicate involving Nu is false;
    Nu == Nu is true. Arithmetic with Nu raises UlsetError since no
    calculus for it is defined here.
    """

    _key: float

    @staticmethod
    def finite(t: float) -> "ExtReal":
        t = float(t)
        if not math.isfinite(t):
            raise InvalidInput(f"finite value required, got {t}")
        return ExtReal(t)

    @staticmethod
    def from_key(key: float) -> "ExtReal":
        """The value with this lattice key: MINUS_INF, NU or a finite value."""
        key = float(key)
        if math.isinf(key):
            return MINUS_INF if key < 0 else NU
        return ExtReal.finite(key)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._key)

    @property
    def is_minus_inf(self) -> bool:
        return self._key == -math.inf

    @property
    def is_nu(self) -> bool:
        return self._key == math.inf

    @property
    def value(self) -> float:
        if not self.is_finite:
            raise UlsetError(f"{self} has no finite value")
        return self._key

    def as_float(self) -> float:
        """Finite value, or -inf; raises for nu."""
        if self.is_nu:
            raise UlsetError("nu has no float representation")
        return self._key

    # -- order ------------------------------------------------------------

    def _other_key(self, other) -> float | None:
        if isinstance(other, ExtReal):
            return other._key
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return ExtReal.finite(other)._key
        return None

    def __eq__(self, other) -> bool:
        o = self._other_key(other)
        return NotImplemented if o is None else self._key == o

    def __hash__(self):
        return hash(self._key)

    def _order(self, other, op):
        o = self._other_key(other)
        if o is None:
            return NotImplemented
        return op(self._key, o) and math.inf not in (self._key, o)

    def __lt__(self, other) -> bool:
        return self._order(other, operator.lt)

    def __le__(self, other) -> bool:
        return self._order(other, operator.le)

    def __gt__(self, other) -> bool:
        return self._order(other, operator.gt)

    def __ge__(self, other) -> bool:
        return self._order(other, operator.ge)

    # -- arithmetic (nu raises) --------------------------------------------

    def _require_not_nu(self):
        if self.is_nu:
            raise UlsetError("arithmetic with nu is undefined")

    def __add__(self, other):
        self._require_not_nu()
        if not isinstance(other, (int, float)) or isinstance(other, bool):
            return NotImplemented
        if self.is_minus_inf:
            return self
        return ExtReal.finite(self._key + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, float)) or isinstance(other, bool):
            return NotImplemented
        return self + (-float(other))

    def __neg__(self):
        self._require_not_nu()
        if self.is_minus_inf:
            raise UlsetError("negation of -inf is not representable (no +inf in this lattice)")
        return ExtReal.finite(-self._key)

    def __repr__(self):
        if self.is_finite:
            return f"ExtReal.finite({self._key!r})"
        return "MINUS_INF" if self.is_minus_inf else "NU"

    def __str__(self):
        return key_text(self._key)


MINUS_INF = ExtReal(-math.inf)
NU = ExtReal(math.inf)


class Strategy(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    BISECTION = "bisection"


@record
class FunctionalHandle:
    """A set, a direction k checked as :func:`certify_direction` checks it
    (:func:`make_handle` also certifies it), and a pinned strategy."""

    set: SetExpr
    k: np.ndarray
    strategy: Strategy
    t_max: float = DEFAULT_T_MAX
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "k", _as_direction(self.k, self.set.dim))
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise InvalidInput("t_max must be positive and finite")
        if not (self.tol > 0):
            raise InvalidInput("tol must be positive")

    @cached_property
    def motions(self) -> tuple:
        """Per leaf of the set's plan, at its index: its rows' :func:`_motion`."""
        return tuple(map(_motion, _leaf_ak(self.set, self.k)))

    @cached_property
    def cert(self) -> RecessionCone:
        """The set's recession cone, the rows :func:`certify_direction` checks k on."""
        return recession_cone(self.set)

    @cached_property
    def interior(self) -> bool:
        """Whether no row is static: k strictly inside the negated cone."""
        return not any(motion.static.size for motion in self.motions)

    @cached_property
    def point_floats(self) -> int:
        """Floats per point that size :func:`_keys`'s blocks: the dimension
        or the most rows of a leaf, whichever is larger."""
        return max(self.set.dim, *(len(leaf.R) for leaf in self.set.plan[1]))


def make_handle(
    s: SetExpr,
    k,
    strategy: Strategy | str = Strategy.CLOSED_FORM,
    t_max: float = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
) -> FunctionalHandle:
    """Certify k against s and build a handle, by default on the closed form."""
    return FunctionalHandle(s, certify_direction(s, k), Strategy(strategy), t_max=t_max, tol=tol)


# ---------------------------------------------------------------------------
# closed form
#
# Values travel as lattice keys: a finite value is itself, -inf is -inf
# and nu is +inf, the top element. A union is then the elementwise min
# (-inf wins) and an intersection the elementwise max (nu wins).


Motion = namedtuple("Motion", "static divisor unit column")


def _motion(ak: np.ndarray) -> Motion:
    """How rows with a·k in ak move along k: the indices of the static rows
    (a·k <= AK_POSITIVE_MIN), the divisor column, a·k on the moving rows
    and 1.0 on the static ones, whether that column is all exactly 1.0,
    and the translate column, a·k on the moving rows and 0 on the others.

    x / 1.0 is x bit for bit for every double x, -0.0, subnormals and
    ±inf included, so :func:`_rows_keys` divides static rows by 1.0 and
    skips the division where every divisor is 1.0, as on the nonnegative
    orthant with k = (1, ..., 1)."""
    moving = ak > AK_POSITIVE_MIN
    divisor = np.where(moving, ak, 1.0)[:, None]
    return Motion(np.flatnonzero(~moving), divisor, bool((divisor == 1.0).all()),
                  np.where(moving, ak, 0.0)[:, None])


def _rows_keys(G: np.ndarray, motion: Motion, union: bool) -> np.ndarray:
    """Keys of the intersection (or union) of the halfspaces whose a·y - b
    are the rows of G, which move along k as ``motion`` says.

    Each row gets its key in one pass: a moving row is reached at
    t = (a·y - b) / a·k, and a static row is -inf where the point
    satisfies it and nu where it does not. A value that is not finite,
    on either kind of row, is refused. The keys combine in one max (min)
    along the row axis, which folds them in row order; a ±inf key never
    changes which signed zero wins among the moving rows. G is a
    temporary of the caller's and is overwritten, so that a block holds
    one array of its size, not two. Where every divisor is exactly 1.0
    the division is an identity (see :func:`_motion`) and is skipped, and
    where no row is static so is the overwrite."""
    if not motion.unit:
        G /= motion.divisor
    if not np.isfinite(G).all():
        raise InvalidInput(_OVERFLOW)
    if motion.static.size:
        G[motion.static] = np.where(G[motion.static] <= EPS_MEMBERSHIP, -np.inf, np.inf)
    return G.min(0) if union else G.max(0)


def _closed_batch(h: FunctionalHandle, Yt: np.ndarray) -> np.ndarray:
    """Keys at the points Yt, coordinate-major (m, n), from the set's plan
    and the row motions cached on h."""
    def leaf(rows, P):
        return _rows_keys(_row_values(rows, P), h.motions[rows.i], rows.union)

    return fold_plan(h.set.plan[0], Yt, leaf)


def _fit(floats_per_item: int) -> int:
    """The most items of floats_per_item floats that fit in _BLOCK_FLOATS
    floats, and at least one."""
    return max(1, _BLOCK_FLOATS // floats_per_item)


def _spans(n: int, floats_per_item: int):
    """The [a, b) blocks of n items, in order, each of the :func:`_fit`
    items of floats_per_item floats; only the last block may be shorter."""
    cap = _fit(floats_per_item)
    return ((a, min(a + cap, n)) for a in range(0, n, cap))


def _from_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys as :func:`evaluate_batch`'s (values, kind codes)."""
    kinds = np.full(keys.shape, KIND_FINITE, dtype=np.int8)
    kinds[keys == -np.inf] = KIND_MINUS_INF
    kinds[keys == np.inf] = KIND_NU
    return np.where(kinds == KIND_FINITE, keys, 0.0), kinds


# ---------------------------------------------------------------------------
# bisection


def _translate_outside(h: FunctionalHandle, Yt: np.ndarray, t) -> np.ndarray:
    """Mask of the points y, the columns of Yt, whose translate y - t*k
    lies outside h's set, t one value per point or one for all. Each row
    is tested as a·y - b - t·(a·k) <= EPS_MEMBERSHIP, with a·k from the
    row motions cached on h (0 on a static row), so a large t is not
    subtracted from y first, where it would round away y's distance to
    a static row. A row value that is not finite is refused."""
    def leaf(rows, P):
        G = _row_values(rows, P)
        G -= h.motions[rows.i].column * t
        if not np.isfinite(G).all():
            raise InvalidInput(_OVERFLOW)
        return _outside(rows.union, G <= EPS_MEMBERSHIP)

    return fold_plan(h.set.plan[0], Yt, leaf)


def _bisect_batch(h: FunctionalHandle, Yt: np.ndarray) -> np.ndarray:
    """Keys at the points Yt, coordinate-major (m, n), by bracketing and
    bisection. Every test of y - t*k, t = 0 included, goes through
    :func:`_translate_outside`.

    The test at t = 0 picks each point's direction: up for a non-member,
    down for a member. One loop doubles |t| out to t_max; a hit sets hi
    and a miss lo, and a point stays active while the test gives its
    t = 0 answer. One still active at t_max gets nu (+inf) going up and
    -inf going down.
    """
    n = Yt.shape[1]
    lo, hi = np.zeros(n), np.zeros(n)

    member0 = ~_translate_outside(h, Yt, 0.0)
    sign = np.where(member0, -1.0, 1.0)
    active = np.arange(n)
    t = 1.0
    while active.size:
        t_now = min(t, h.t_max)
        ts = sign[active] * t_now
        m = ~_translate_outside(h, Yt[:, active], ts)
        hi[active[m]] = ts[m]
        lo[active[~m]] = ts[~m]
        active = active[m == member0[active]]
        if t_now == h.t_max:
            hi[active] = sign[active] * np.inf
            break
        t *= 2.0

    bracketed = np.flatnonzero(np.isfinite(hi))
    while bracketed.size:
        todo = bracketed[hi[bracketed] - lo[bracketed] > h.tol * (1.0 + np.abs(hi[bracketed]))]
        mid = 0.5 * (lo[todo] + hi[todo])
        inside = (lo[todo] < mid) & (mid < hi[todo])  # false for adjacent floats
        todo, mid = todo[inside], mid[inside]
        if not todo.size:
            break
        m = ~_translate_outside(h, Yt[:, todo], mid)
        hi[todo[m]] = mid[m]
        lo[todo[~m]] = mid[~m]
    return hi


# ---------------------------------------------------------------------------
# public evaluation API


def _keys(h: FunctionalHandle, Y) -> np.ndarray:
    """Lattice keys at the points Y: the block loop of :func:`evaluate_batch`."""
    pts = _as_points(Y, h.set.dim)
    kernel = _bisect_batch if h.strategy == Strategy.BISECTION else _closed_batch
    keys = np.empty(len(pts))
    for a, b in _spans(len(pts), h.point_floats):
        keys[a:b] = kernel(h, pts[a:b].T)
    return keys


def evaluate_batch(h: FunctionalHandle, Y) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at many points; returns (values, kind codes) arrays.

    Kind codes are KIND_FINITE / KIND_MINUS_INF / KIND_NU; values are
    meaningful only where the kind is finite.

    Both strategies run on the blocks :func:`_spans` gives for the points,
    h.point_floats floats each, and fill one key array, so memory grows
    with the points and not with rows times points; a block is the view
    ``pts[a:b].T``. At inner dimension <= 4, on the OpenBLAS kernels CI
    runs, a point's key depends on that point alone, whatever block, chunk
    or call it is in (see :func:`_rows_at`), so the keys are bitwise those
    of one pass over all the points, or of one call per point. Past that a
    gemm can round a column by how many columns it has: at d = 16, 24 of
    40 ``ulset eval --point`` values differ from their ``--points`` lines.
    """
    return _from_keys(_keys(h, Y))


def evaluate_many(h: FunctionalHandle, Y) -> list[ExtReal]:
    """Evaluate at many points as a list of :class:`ExtReal`.

    Builds one ExtReal per point; bulk callers should use
    :func:`evaluate_batch` and work on its arrays.
    """
    return list(map(ExtReal.from_key, _keys(h, Y).tolist()))


def evaluate(h: FunctionalHandle, y) -> ExtReal:
    """Value of the functional at a single point."""
    return evaluate_many(h, np.asarray(y, dtype=float)[None, :])[0]


def evaluate_scaled(h: FunctionalHandle, lam: float, y) -> ExtReal:
    """Value for the rescaled direction lam*k, lam > 0: finite values divide by lam."""
    lam = float(lam)
    if not (lam > 0 and math.isfinite(lam)):
        raise InvalidInput(f"scale factor must be positive and finite, got {lam}")
    v = evaluate(h, y)
    if v.is_finite:
        return ExtReal.finite(v.value / lam)
    return v


def evaluate_level_shifted(h: FunctionalHandle, c: float, y) -> ExtReal:
    """Value for the set translated by c*k: finite values drop by c."""
    c = float(c)
    if not math.isfinite(c):
        raise InvalidInput(f"level shift must be finite, got {c}")
    v = evaluate(h, y)
    if v.is_finite:
        return ExtReal.finite(v.value - c)
    return v


# -- dual route --------------------------------------------------------------


def _dual_handle(h: FunctionalHandle) -> FunctionalHandle:
    try:
        comp = ComplementClosure(h.set)
    except Unsupported as exc:
        raise PreconditionFailed(
            "dual evaluation needs a polyhedron or a union of polyhedra"
        ) from exc
    for ci, ak in enumerate(_leaf_ak(comp, -h.k)):
        bad = np.flatnonzero(ak <= AK_POSITIVE_MIN)
        if bad.size:
            i = int(bad[0])
            raise PreconditionFailed(
                f"row {i} of member {ci} has a·k = {float(ak[i]):.3g} <= {AK_POSITIVE_MIN:g}; "
                "the boundary would not move strictly inward along k"
            )
    # every row has a·k > AK_POSITIVE_MIN, so -k passes certify_direction
    return FunctionalHandle(comp, -h.k, Strategy.CLOSED_FORM, t_max=h.t_max, tol=h.tol)


def _dual_keys(dual: FunctionalHandle, Y) -> np.ndarray:
    """Keys on dual = _dual_handle(h): negated finite values, nu everywhere else."""
    keys = _keys(dual, Y)
    return np.where(np.isfinite(keys), -keys, np.inf)


def evaluate_dual_many(h: FunctionalHandle, Y) -> list[ExtReal]:
    return list(map(ExtReal.from_key, _dual_keys(_dual_handle(h), Y).tolist()))


def evaluate_dual(h: FunctionalHandle, y) -> ExtReal:
    """Value via the complement route: negate phi on the closed complement with -k.

    Only finite dual values are transported back; outside the band where
    both functionals are finite their domains differ, so anything
    non-finite comes back as nu.
    """
    return evaluate_dual_many(h, np.asarray(y, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# 2-d contour extraction

#: Cell edges as the (row, column) offsets of their two corners from the
#: cell's lower-left corner: 0 bottom, 1 right, 2 top, 3 left.
_EDGE_CORNERS = np.array([[[0, 0], [0, 1]], [[0, 1], [1, 1]],
                          [[1, 0], [1, 1]], [[0, 0], [1, 0]]])

#: Edge pairs of each cell case's segments in emission order, padded with
#: -1. Rows 0-15 are the cases; rows 16 and 17 are the saddles 5 and 10
#: with their centre below the level.
_CASE_EDGES = np.array([
    [-1, -1, -1, -1], [3, 0, -1, -1], [0, 1, -1, -1], [3, 1, -1, -1],
    [1, 2, -1, -1], [0, 1, 2, 3], [0, 2, -1, -1], [3, 2, -1, -1],
    [2, 3, -1, -1], [0, 2, -1, -1], [0, 3, 1, 2], [1, 2, -1, -1],
    [3, 1, -1, -1], [0, 1, -1, -1], [3, 0, -1, -1], [-1, -1, -1, -1],
    [0, 3, 1, 2], [0, 1, 2, 3],
])


def _march(F: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[bool, np.ndarray]:
    """Marching squares on the cells between consecutive rows of F, the
    values f at the grid points (xs[i], ys[j]): whether any cell is
    usable, and the segment ends as rows (x, y), two per segment, in
    row-major cell order and within a cell in table order."""
    nu = np.isnan(F)
    usable = ~(nu[:-1, :-1] | nu[:-1, 1:] | nu[1:, 1:] | nu[1:, :-1])
    above = (F >= 0).astype(np.int8)
    case = above[:-1, :-1] + 2 * above[:-1, 1:] + 4 * above[1:, 1:] + 8 * above[1:, :-1]
    j, i = np.nonzero(usable & (case != 0) & (case != 15))
    case = case[j, i]
    centre = 0.25 * (((F[j, i] + F[j, i + 1]) + F[j + 1, i]) + F[j + 1, i + 1])
    edges = _CASE_EDGES[np.where(((case == 5) | (case == 10)) & ~(centre >= 0),
                                 16 + (case == 10), case)]
    cell, slot = np.nonzero(edges >= 0)
    corners = _EDGE_CORNERS[edges[cell, slot]] + np.stack([j[cell], i[cell]], axis=1)[:, None]
    (ja, ia), (jb, ib) = corners[:, 0].T, corners[:, 1].T
    fa, fb = F[ja, ia], F[jb, ib]
    t = np.clip(fa / (fa - fb), 0.0, 1.0)  # one of fa, fb is >= 0, the other < 0
    return bool(usable.any()), np.stack([xs[ia] + t * (xs[ib] - xs[ia]),
                                         ys[ja] + t * (ys[jb] - ys[ja])], axis=1)


def contour2d(h: FunctionalHandle, level: float, bbox, grid_n: int) -> list[np.ndarray]:
    """Marching-squares segments of the level set {y : phi(y) = level}.

    The functional is sampled on a grid_n x grid_n grid over
    bbox = (x0, y0, x1, y1); each grid point holds f = phi - level, with
    -inf as the sentinel MINUS_INF_SENTINEL. Cells touching a nu corner
    are skipped. The level, and the bbox's positive width and height, must be finite.

    A corner is above the level when f >= 0, so a corner exactly at the
    level is above. The corners 00, 10, 11, 01 (x index first) give the
    bits 1, 2, 4, 8 of the cell's case, and ``_CASE_EDGES`` lists the
    edges each case joins: none for cases 0 and 15, two for the saddles
    5 and 10 and one otherwise. A saddle whose centre
    0.25 * (((f00 + f10) + f01) + f11) is >= 0 cuts off its two corners
    below the level, any other saddle its two corners above it. On the
    edge from corner a to b the segment end is pa + t*(pb - pa), with
    t = fa / (fa - fb) clamped to [0, 1].

    The grid is evaluated and marched in strips of rows, the blocks
    :func:`_spans` gives for grid_n rows of grid_n floats. Each strip
    carries the last row of f of the strip before it, so the cells across
    a strip boundary are marched and every grid point is evaluated once.
    Memory thus grows with grid_n and the segments, not with grid_n**2,
    and the segments are those of one pass over the whole grid.

    Returns one (2, 2) array per segment, in row-major cell order (y
    index outer) and within a cell in table order, without stitching.
    Raises EmptyContour when no cell is usable.
    """
    if h.set.dim != 2:
        raise InvalidInput("contour extraction needs a 2-d set")
    level = float(level)
    if not math.isfinite(level):
        raise InvalidInput(f"contour level must be finite, got {level}")
    grid_n = int(grid_n)
    if not (8 <= grid_n <= 4096):
        raise InvalidInput("grid_n must lie in [8, 4096]")
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):  # NaN fails too
        raise InvalidInput(f"bbox {[x0, y0, x1, y1]} needs 0 < x1 - x0 < inf, 0 < y1 - y0 < inf")

    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    F = np.empty((0, grid_n))
    usable, ends = False, []
    for r0, r1 in _spans(grid_n, grid_n):
        keys = _keys(h, np.stack(np.meshgrid(xs, ys[r0:r1]), axis=-1).reshape(-1, 2))
        f = np.where(np.isfinite(keys), keys - level,
                     np.where(keys < 0, MINUS_INF_SENTINEL, np.nan))
        # F's first row is grid row r0 - 1, carried, except in the first strip
        F = np.concatenate([F[-1:], f.reshape(r1 - r0, grid_n)])
        any_usable, strip_ends = _march(F, xs, ys[max(r0 - 1, 0):])
        usable |= any_usable
        ends.append(strip_ends)
    if not usable:
        raise EmptyContour("every grid cell touches a point outside the domain")
    return list(np.concatenate(ends).reshape(-1, 2, 2))
