"""Symbolic closed subsets of R^n built from halfspaces.

A set expression is an immutable tree whose leaves are halfspace
intersections (:class:`Polyhedron`) and whose inner nodes are finite
unions, finite intersections, translations (:class:`Shift`) and the
closure of a polyhedron complement (:class:`ComplementClosure`).
Every node answers membership queries with an absolute tolerance.
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
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DirectionRejected, InvalidInput, Unsupported

#: Default absolute slack on a·y - b for membership tests.
EPS_MEMBERSHIP = 1e-9

#: Normals with euclidean norm at or below this are rejected as degenerate.
NORMAL_MIN = 1e-12

#: Allowed negative slack on a·k when certifying a direction.
CERT_SLACK = 1e-9

#: Strict margin on a·k for an interior certificate.
INTERIOR_MARGIN = 1e-9


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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SetUnion(SetExpr):
    """Finite union of set expressions."""

    members: tuple[SetExpr, ...]

    def __post_init__(self):
        ms = tuple(self.members)
        if not ms:
            raise InvalidInput("union needs at least one member")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise InvalidInput(f"union members disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "members", ms)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@dataclass(frozen=True, eq=False)
class SetIntersection(SetExpr):
    """Finite intersection of set expressions."""

    members: tuple[SetExpr, ...]

    def __post_init__(self):
        ms = tuple(self.members)
        if not ms:
            raise InvalidInput("intersection needs at least one member")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise InvalidInput(f"intersection members disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "members", ms)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@dataclass(frozen=True, eq=False)
class Shift(SetExpr):
    """Translation {offset + x : x in base}."""

    base: SetExpr
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", _as_vector(self.offset, self.base.dim, "shift offset"))

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    @property
    def dim(self) -> int:
        if not self.halfspaces:
            raise InvalidInput("empty recession cone has no dimension")
        return self.halfspaces[0].dim

    def to_polyhedron(self) -> Polyhedron:
        return Polyhedron(self.halfspaces)


@dataclass(frozen=True, eq=False)
class Direction:
    """Translation direction k plus the recession-cone rows certifying it.

    ``interior`` records whether the certificate puts k strictly inside
    the negated cone (every row has a·k above the interior margin), which
    is what finite-valuedness and Lipschitz classification key on.
    """

    k: np.ndarray
    cert: RecessionCone
    interior: bool

    def __post_init__(self):
        k = _as_vector(self.k, name="direction")
        if float(np.linalg.norm(k)) <= NORMAL_MIN:
            raise InvalidInput("direction vector is numerically zero")
        object.__setattr__(self, "k", k)


# ---------------------------------------------------------------------------
# membership


def contains_many(s: SetExpr, Y, eps: float = EPS_MEMBERSHIP) -> np.ndarray:
    """Vectorized membership test; returns a boolean array, one per row of Y."""
    if eps < 0:
        raise InvalidInput("membership tolerance must be nonnegative")
    pts = _as_points(Y, s.dim)
    return _contains(s, pts, eps)


def contains(s: SetExpr, y, eps: float = EPS_MEMBERSHIP) -> bool:
    """Membership of a single point, with absolute slack eps on every row."""
    return bool(contains_many(s, np.asarray(y, dtype=float)[None, :], eps)[0])


def _contains(s: SetExpr, pts: np.ndarray, eps: float) -> np.ndarray:
    if isinstance(s, Polyhedron):
        return (s.normals @ pts.T <= s.offsets[:, None] + eps).all(axis=0)
    if isinstance(s, SetUnion):
        out = _contains(s.members[0], pts, eps)
        for m in s.members[1:]:
            out = out | _contains(m, pts, eps)
        return out
    if isinstance(s, SetIntersection):
        out = _contains(s.members[0], pts, eps)
        for m in s.members[1:]:
            out = out & _contains(m, pts, eps)
        return out
    if isinstance(s, Shift):
        return _contains(s.base, pts - s.offset, eps)
    if isinstance(s, ComplementClosure):
        out = None
        for m in s.polyhedra:
            part = (m.normals @ pts.T >= m.offsets[:, None] - eps).any(axis=0)
            out = part if out is None else (out & part)
        return out
    raise Unsupported(f"membership not implemented for {type(s).__name__}")


# ---------------------------------------------------------------------------
# recession cones and direction certificates


def _dedup_rows(rows: Sequence[HalfSpace]) -> tuple[HalfSpace, ...]:
    seen = set()
    out = []
    for h in rows:
        key = (h.a.tobytes(), h.b)
        if key not in seen:
            seen.add(key)
            out.append(h)
    return tuple(out)


def recession_cone(s: SetExpr) -> RecessionCone:
    """Recession cone of a set expression.

    Exact for polyhedra and their shifts/intersections: offsets drop and
    the rows are kept. Unions get the intersection of their members'
    cones, and complement closures the reversed rows of their base,
    both flagged inexact: every listed direction is valid, but
    exactness is not derivable from the representation.
    """
    if isinstance(s, Polyhedron):
        rows = tuple(HalfSpace(h.a, 0.0) for h in s.halfspaces)
        return RecessionCone(_dedup_rows(rows), exact=True)
    if isinstance(s, Shift):
        return recession_cone(s.base)
    if isinstance(s, (SetUnion, SetIntersection)):
        parts = [recession_cone(m) for m in s.members]
        rows = _dedup_rows([h for p in parts for h in p.halfspaces])
        exact = isinstance(s, SetIntersection) and all(p.exact for p in parts)
        return RecessionCone(rows, exact=exact)
    if isinstance(s, ComplementClosure):
        rows = tuple(HalfSpace(-h.a, 0.0) for m in s.polyhedra for h in m.halfspaces)
        return RecessionCone(_dedup_rows(rows), exact=False)
    raise Unsupported(f"recession cone is not derivable for {type(s).__name__}")


def certify_direction(s: SetExpr, k) -> Direction:
    """Certify that k is an admissible translation direction for s.

    The certificate checks a·k >= -1e-9 against every recession-cone row
    and records whether all rows clear the strict interior margin.
    """
    kv = _as_vector(k, s.dim, "direction")
    if float(np.linalg.norm(kv)) <= NORMAL_MIN:
        raise InvalidInput("direction vector is numerically zero")
    cone = recession_cone(s)
    products = [float(h.a @ kv) for h in cone.halfspaces]
    for i, p in enumerate(products):
        if p < -CERT_SLACK:
            raise DirectionRejected(
                f"recession-cone row {i} with normal {cone.halfspaces[i].a.tolist()} "
                f"has a·k = {p:.3g} < -{CERT_SLACK:g}"
            )
    interior = bool(products) and all(p > INTERIOR_MARGIN for p in products)
    return Direction(kv, cone, interior)


def shift_set(s: SetExpr, y0) -> SetExpr:
    """Translate a set by y0 (structural wrapper)."""
    return Shift(s, y0)


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


def set_from_json(doc: Mapping) -> SetExpr:
    """Parse the {"dim": n, "set": {...}} schema into a set expression."""
    try:
        dim = int(doc["dim"])
        node = doc["set"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"config must carry 'dim' and 'set': {exc}") from exc
    if dim < 1:
        raise InvalidInput("dim must be a positive integer")
    s = _node_from_json(node, dim)
    if s.dim != dim:
        raise InvalidInput(f"set has dimension {s.dim}, header says {dim}")
    return s


def _node_from_json(node: Mapping, dim: int) -> SetExpr:
    try:
        kind = node["type"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput("set node is missing 'type'") from exc
    if kind == "polyhedron":
        try:
            hs = tuple(HalfSpace(h["a"], h["b"]) for h in node["halfspaces"])
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"bad polyhedron node: {exc}") from exc
        return Polyhedron(hs)
    if kind in ("union", "intersection"):
        members = node.get("members", [])
        if not isinstance(members, list):
            raise InvalidInput(f"{kind} node needs a list of 'members', got {members!r}")
        members = tuple(_node_from_json(m, dim) for m in members)
        return SetUnion(members) if kind == "union" else SetIntersection(members)
    if kind == "shift":
        try:
            base = _node_from_json(node["base"], dim)
            y0 = node["y0"]
        except KeyError as exc:
            raise InvalidInput("shift node needs 'base' and 'y0'") from exc
        return Shift(base, y0)
    if kind == "complement":
        try:
            base = _node_from_json(node["base"], dim)
        except KeyError as exc:
            raise InvalidInput("complement node needs 'base'") from exc
        return ComplementClosure(base)
    raise InvalidInput(f"unknown set node type {kind!r}")


def set_to_json(s: SetExpr) -> dict:
    """Serialize a set expression to the JSON schema used by the CLI."""
    return {"dim": s.dim, "set": _node_to_json(s)}


def _node_to_json(s: SetExpr) -> dict:
    if isinstance(s, Polyhedron):
        return {
            "type": "polyhedron",
            "halfspaces": [{"a": h.a.tolist(), "b": h.b} for h in s.halfspaces],
        }
    if isinstance(s, SetUnion):
        return {"type": "union", "members": [_node_to_json(m) for m in s.members]}
    if isinstance(s, SetIntersection):
        return {"type": "intersection", "members": [_node_to_json(m) for m in s.members]}
    if isinstance(s, Shift):
        return {"type": "shift", "base": _node_to_json(s.base), "y0": s.offset.tolist()}
    if isinstance(s, ComplementClosure):
        return {"type": "complement", "base": _node_to_json(s.base)}
    raise Unsupported(f"cannot serialize {type(s).__name__}")
