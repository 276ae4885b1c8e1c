"""Symbolic closed subsets of R^n built from halfspaces.

A set expression is an immutable tree whose leaves are halfspace
intersections (:class:`Polyhedron`) and whose inner nodes are finite
unions, finite intersections, translations (:class:`Shift`) and the
closure of a polyhedron complement (:class:`ComplementClosure`).
Every node answers membership queries with slack eps on each row's a·y - b.
One walk of the tree compiles a set, once, into a row plan on which
:func:`fold_plan` defines the shift, union, intersection and complement
rules, for the evaluator's lattice keys and for membership alike.
Polyhedral structure additionally yields recession cones, which
certify admissible translation directions: a vector k is admissible
for a set A when moving any point of A along -k stays inside A.

All types are immutable after construction and all operations are
pure, so they are safe to share across threads.

Note on interiors: only the topological interior is ever tested
(strict margin on halfspace rows). For nonconvex sets the algebraic
interior (core) can be strictly larger; no operation here computes it.
"""

from __future__ import annotations

import itertools
import reprlib
import sys
from collections import namedtuple
from functools import cached_property, reduce
from typing import Mapping

import numpy as np

from .errors import DirectionRejected, InvalidInput, Unsupported, record

#: Default absolute slack on a·y - b for membership tests.
EPS_MEMBERSHIP = 1e-9

#: Normals with euclidean norm at or below this are rejected as degenerate.
NORMAL_MIN = 1e-12

#: Allowed negative slack on a·k when certifying a direction.
CERT_SLACK = 1e-9

#: Rows with a·k at or below this do not move along k: both evaluation
#: strategies treat them as static, and a handle with one as not interior.
AK_POSITIVE_MIN = 1e-9


def _as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InvalidInput(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{name} has non-finite entries")
    v.flags.writeable = False
    return v


def _as_points(Y, dim: int) -> np.ndarray:
    arr = np.asarray(Y, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidInput(f"points must have shape (n, {dim}), got {np.shape(Y)}")
    if not np.isfinite(arr).all():
        raise InvalidInput("points must have finite coordinates")
    return arr


@record
class HalfSpace:
    """Closed halfspace {x : a·x <= b}."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = _as_vector(self.a, name="halfspace normal")
        if float(np.linalg.norm(a)) <= NORMAL_MIN:
            raise InvalidInput("halfspace normal is numerically zero")
        b = float(self.b)
        if not np.isfinite(b):
            raise InvalidInput("halfspace offset must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def reversed(self) -> "HalfSpace":
        """The halfspace {x : a·x >= b}, rewritten as -a·x <= -b."""
        return HalfSpace(-self.a, -self.b)


class SetExpr:
    """Abstract node of a set expression tree."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @cached_property
    def plan(self) -> tuple:
        """The set's row plan, compiled once: its root and its leaves in order."""
        leaves = []
        return _compile(self, leaves), tuple(leaves)


@record
class Polyhedron(SetExpr):
    """Intersection of finitely many closed halfspaces."""

    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        if not hs:
            raise InvalidInput("polyhedron needs at least one halfspace")
        dims = {h.dim for h in hs}
        if len(dims) != 1:
            raise InvalidInput(f"halfspaces disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "halfspaces", hs)

    @property
    def dim(self) -> int:
        return self.halfspaces[0].dim

    @cached_property
    def normals(self) -> np.ndarray:
        m = np.stack([h.a for h in self.halfspaces])
        m.flags.writeable = False
        return m

    @cached_property
    def offsets(self) -> np.ndarray:
        b = np.array([h.b for h in self.halfspaces])
        b.flags.writeable = False
        return b


class _Members(SetExpr):
    """A union or intersection of one or more members of one dimension;
    _noun is its JSON type, which its error messages name."""

    def __post_init__(self):
        ms = tuple(self.members)
        if not ms:
            raise InvalidInput(f"{self._noun} needs at least one member")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise InvalidInput(f"{self._noun} members disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "members", ms)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@record
class SetUnion(_Members):
    """Finite union of set expressions."""

    members: tuple[SetExpr, ...]
    _noun = "union"


@record
class SetIntersection(_Members):
    """Finite intersection of set expressions."""

    members: tuple[SetExpr, ...]
    _noun = "intersection"


@record
class Shift(SetExpr):
    """Translation {offset + x : x in base}."""

    base: SetExpr
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", _as_vector(self.offset, self.base.dim, "shift offset"))

    @property
    def dim(self) -> int:
        return self.base.dim


@record
class ComplementClosure(SetExpr):
    """Closure of the complement of a polyhedron (or union of polyhedra).

    For a base P = {x : a_i·x <= b_i for all i} this denotes the union of
    the reversed halfspaces {x : a_i·x >= b_i}, which equals the closure
    of the complement of int P whenever P is full-dimensional. For a
    union base the per-member complements are intersected.
    """

    base: SetExpr

    def __post_init__(self):
        if not all(isinstance(m, Polyhedron) for m in self.polyhedra):
            raise Unsupported(
                "complement closure is only defined for a polyhedron "
                "or a union of polyhedra"
            )

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def polyhedra(self) -> tuple[Polyhedron, ...]:
        """The base's polyhedra: the base itself, or the members of a union."""
        return self.base.members if isinstance(self.base, SetUnion) else (self.base,)


@record
class RecessionCone:
    """Polyhedral cone of directions u with x + t*u staying in the set.

    ``exact=False`` marks a sound under-approximation: every listed
    direction is valid, but valid directions may be missing.
    """

    halfspaces: tuple[HalfSpace, ...]
    exact: bool

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        for h in hs:
            if h.b != 0.0:
                raise InvalidInput("recession cone rows must pass through the origin")
        object.__setattr__(self, "halfspaces", hs)

    def to_polyhedron(self) -> Polyhedron:
        return Polyhedron(self.halfspaces)


# ---------------------------------------------------------------------------
# row plans and membership


#: Leaf i of a row plan: rows R·y <= c (c a column), all of which hold, or
#: with union one: a complement member's rows, reversed once to (-a)·y <= -b.
#: zero: whether every entry of c is +0.0; a reversed b = 0 is -0.0, not +0.0.
Leaf = namedtuple("Leaf", "i R c union zero")
#: Inner plan node: the elementwise min (union) or max of its members'
#: arrays in member order, at the points less offset (a column) for a shift.
Fold = namedtuple("Fold", "offset union members")


def _compile(s: SetExpr, leaves: list, union: bool = False):
    """The one walk of the set grammar: the plan node of s, whose leaves
    it appends to leaves. ``union`` marks s as a complement member."""
    if isinstance(s, Polyhedron):
        R, c = (-s.normals, -s.offsets) if union else (s.normals, s.offsets)
        zero = not (c.any() or np.signbit(c).any())
        leaves.append(Leaf(len(leaves), R, c[:, None], union, zero))
        return leaves[-1]
    if isinstance(s, Shift):
        return Fold(s.offset[:, None], False, (_compile(s.base, leaves),))
    if isinstance(s, _Members):
        return Fold(None, isinstance(s, SetUnion), tuple(_compile(m, leaves) for m in s.members))
    if isinstance(s, ComplementClosure):
        return Fold(None, False, tuple(_compile(p, leaves, True) for p in s.polyhedra))
    raise Unsupported(f"set grammar does not cover {type(s).__name__}")


def _rows_at(R: np.ndarray, P: np.ndarray) -> np.ndarray:
    """R @ P, the package's one product of set rows with points or with k.

    With both 2-d, a lone column of P or lone row of R, and only that
    operand, is multiplied as two copies, as gemv can round unlike a wider
    gemm: so a point's bits do not depend on its block, at inner dimension
    <= 4 on the kernels CI runs."""
    m, n = len(R), P.shape[-1]
    if R.ndim == P.ndim == 2 and 1 in (m, n):
        R = R.repeat(2, axis=0) if m == 1 else R
        P = P.repeat(2, axis=1) if n == 1 else P
        return (R @ P)[:m, :n]
    return R @ P


def _leaf_ak(s: SetExpr, kv: np.ndarray) -> tuple:
    """a·k of each leaf's rows in s's plan, in leaf order: the package's one
    product of set rows with a direction. A complement member's leaf holds
    its reversed rows, whose (-a)·(-k) is a·k bit for bit."""
    return tuple(_rows_at(leaf.R, kv) for leaf in s.plan[1])


def _row_values(rows, P: np.ndarray) -> np.ndarray:
    """R·y - c on a plan leaf's rows at the points P, coordinate-major, as
    a new (rows, n) array.

    x - (+0.0) is x bit for bit for every double x, -0.0, subnormals and
    ±inf included, so a leaf whose offsets are all +0.0 (``rows.zero``),
    such as a cone through the origin, skips the subtraction. x - (-0.0)
    turns -0.0 into +0.0, so a leaf with a -0.0 offset, as a complement
    member reversing b = 0 has, still subtracts.
    """
    G = _rows_at(rows.R, P)
    if not rows.zero:
        G -= rows.c
    return G


def _outside(union: bool, holds: np.ndarray) -> np.ndarray:
    """Outside mask of a leaf from its rows' holds: inside needs all to hold, or any if union."""
    return ~(holds.any(0) if union else holds.all(0))


def fold_plan(node, Yt: np.ndarray, leaf) -> np.ndarray:
    """Fold a plan node into one value per point of Yt, an (m, n) array of
    coordinate-major points, where leaf(node, Yt) gives a leaf's: the
    closed form on lattice keys (-inf < finite < nu), or membership on an
    outside mask, where min is logical and, max logical or. Leaves meet
    the points in :func:`_rows_at`, which owns the lone-point rule."""
    if isinstance(node, Leaf):
        return leaf(node, Yt)
    if node.offset is not None:
        Yt = Yt - node.offset
    return reduce(np.minimum if node.union else np.maximum,
                  (fold_plan(m, Yt, leaf) for m in node.members))


def contains_many(s: SetExpr, Y, eps: float = EPS_MEMBERSHIP) -> np.ndarray:
    """Vectorized membership test; returns a boolean array, one per row of Y.

    Each halfspace is tested as a·y - b <= eps on :func:`_row_values`, the
    evaluator's rule (a complement member's reversed rows read b - a·y <= eps)."""
    if not eps >= 0:
        raise InvalidInput("membership tolerance must be a nonnegative number")
    pts = _as_points(Y, s.dim)
    return ~fold_plan(s.plan[0], pts.T,
                      lambda rows, Yt: _outside(rows.union, _row_values(rows, Yt) <= eps))


def contains(s: SetExpr, y, eps: float = EPS_MEMBERSHIP) -> bool:
    """Membership of a single point, with absolute slack eps on every row."""
    return bool(contains_many(s, np.asarray(y, dtype=float)[None, :], eps)[0])


# ---------------------------------------------------------------------------
# recession cones and direction certificates


def recession_cone(s: SetExpr) -> RecessionCone:
    """Recession cone of a set expression: its plan's rows, offsets dropped.

    Exact for polyhedra and their shifts/intersections. Unions get the
    intersection of their members' cones, and complement closures the
    reversed rows of their base, both flagged inexact: every listed
    direction is valid, but exactness is not derivable from the
    representation.
    """
    root, leaves = s.plan
    rows = {a.tobytes(): a for leaf in leaves for a in leaf.R}
    return RecessionCone(tuple(HalfSpace(a, 0.0) for a in rows.values()), exact=_exact(root))


def _exact(node) -> bool:
    """Whether the plan below node has no union and no complement closure."""
    return not node.union and (isinstance(node, Leaf) or all(map(_exact, node.members)))


def _as_direction(k, dim: int) -> np.ndarray:
    """k as a read-only direction for a set of dimension dim: one-dimensional,
    of that dimension, finite and not numerically zero."""
    kv = _as_vector(k, dim, "direction")
    if float(np.linalg.norm(kv)) <= NORMAL_MIN:
        raise InvalidInput("direction vector is numerically zero")
    return kv


def certify_direction(s: SetExpr, k) -> np.ndarray:
    """Certify that k is an admissible translation direction for s, and
    return it as :func:`_as_direction` reads it.

    The certificate checks a·k >= -1e-9, as :func:`_leaf_ak` gives it, on
    every row of the set's plan, naming a failing row by its index in the
    set's :func:`recession_cone`.
    """
    kv = _as_direction(k, s.dim)
    ak = np.concatenate(_leaf_ak(s, kv))
    bad = np.flatnonzero(ak < -CERT_SLACK)
    if bad.size:
        a = np.concatenate([leaf.R for leaf in s.plan[1]])[bad[0]]
        i = [h.a.tobytes() for h in recession_cone(s).halfspaces].index(a.tobytes())
        raise DirectionRejected(f"recession-cone row {i} with normal {a.tolist()} "
                                f"has a·k = {float(ak[bad[0]]):.3g} < -{CERT_SLACK:g}")
    return kv


def complement_closure(s: SetExpr) -> SetUnion:
    """De Morgan expansion of the closed complement into a union of polyhedra.

    The union runs over all row choices, one reversed row per member of
    a union base (a polyhedron base is its own single member), so it has
    the product of the members' row counts as pieces. Anything else
    (nested intersections in particular) is unsupported. The evaluator
    never expands; this is the reference for its complement rule.
    """
    rowsets = [m.halfspaces for m in ComplementClosure(s).polyhedra]
    return SetUnion(tuple(
        Polyhedron(tuple(h.reversed() for h in combo)) for combo in itertools.product(*rowsets)
    ))


# ---------------------------------------------------------------------------
# JSON interchange
#
# One reader for set documents, CLI configs and cone files. A path is
# (document name, dotted key path); each helper checks the value at its
# path and refuses it with an InvalidInput that names the path.

_CONFIG = ("config", "")
_CONE_FILE = ("cone file", "")


def _invalid(path: tuple[str, str], msg: str) -> InvalidInput:
    return InvalidInput(f"{path[0]} key '{path[1]}': {msg}" if path[1] else f"{path[0]}: {msg}")


def _field(obj, path, key: str, default=None):
    """obj[key] and its path, for the JSON object obj at path; default if
    key is missing, which is refused where no default is given."""
    at = (path[0], f"{path[1]}.{key}".lstrip("."))
    if not isinstance(obj, Mapping):
        raise _invalid(path, f"expected an object, got {reprlib.repr(obj)}")
    if key not in obj and default is None:
        raise _invalid(at, "missing")
    return obj.get(key, default), at


def _list(v, path) -> list:
    """The items of the JSON list v at path, each with its path."""
    if not isinstance(v, list):
        raise _invalid(path, f"expected a list, got {reprlib.repr(v)}")
    return [(x, (path[0], f"{path[1]}[{i}]")) for i, x in enumerate(v)]


def _number(v, path) -> float:
    """A finite JSON number: an int or a float, not a bool, a string, NaN or inf."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise _invalid(path, f"expected a finite number, got {reprlib.repr(v)}")
    return float(v)


def _vector(v, path, dim: int) -> np.ndarray:
    """A JSON list of exactly dim numbers."""
    if not isinstance(v, list) or len(v) != dim:
        raise _invalid(path, f"expected {dim} numbers, got {reprlib.repr(v)}")
    return np.array([_number(x, p) for x, p in _list(v, path)])


def _rows(v, path, dim: int, b=None) -> tuple[HalfSpace, ...]:
    """Halfspace rows [{"a": [dim numbers], "b": number}, ...]; b stands in for a missing "b"."""
    return tuple(HalfSpace(_vector(*_field(row, p, "a"), dim), _number(*_field(row, p, "b", b)))
                 for row, p in _list(v, path))


def set_from_json(doc: Mapping) -> SetExpr:
    """Parse the {"dim": n, "set": {...}} schema; every vector is read against dim."""
    dim, at = _field(doc, _CONFIG, "dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise _invalid(at, f"expected a positive integer, got {reprlib.repr(dim)}")
    return _node_from_json(*_field(doc, _CONFIG, "set"), dim)


def _node_from_json(node, path, dim: int) -> SetExpr:
    kind, at = _field(node, path, "type")
    if kind == "polyhedron":
        return Polyhedron(_rows(*_field(node, path, "halfspaces"), dim))
    if kind in ("union", "intersection"):
        members = tuple(_node_from_json(m, p, dim)
                        for m, p in _list(*_field(node, path, "members")))
        return SetUnion(members) if kind == "union" else SetIntersection(members)
    if kind == "shift":
        base = _node_from_json(*_field(node, path, "base"), dim)
        return Shift(base, _vector(*_field(node, path, "y0"), dim))
    if kind == "complement":
        return ComplementClosure(_node_from_json(*_field(node, path, "base"), dim))
    raise _invalid(at, f"unknown set node type {reprlib.repr(kind)}")


def set_to_json(s: SetExpr) -> dict:
    """Serialize a set expression to the JSON schema used by the CLI."""
    return {"dim": s.dim, "set": _node_to_json(s)}


def _node_to_json(s: SetExpr) -> dict:
    if isinstance(s, Polyhedron):
        return {
            "type": "polyhedron",
            "halfspaces": [{"a": h.a.tolist(), "b": h.b} for h in s.halfspaces],
        }
    if isinstance(s, _Members):
        return {"type": s._noun, "members": [_node_to_json(m) for m in s.members]}
    if isinstance(s, Shift):
        return {"type": "shift", "base": _node_to_json(s.base), "y0": s.offset.tolist()}
    if isinstance(s, ComplementClosure):
        return {"type": "complement", "base": _node_to_json(s.base)}
    raise Unsupported(f"cannot serialize {type(s).__name__}")
