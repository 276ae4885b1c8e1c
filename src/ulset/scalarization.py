"""Reference-point scalarization over finite objective clouds.

A finite cloud F of objective vectors is scalarized by the value of the
translation functional built on a shifted negated order cone: for a
reference point a, the score of y is the smallest t such that y lies in
a + t*k - C. Minimizing that score over F picks out (weakly) efficient
points; sweeping the reference over a grid or over F itself traces the
front. A brute-force pairwise domination filter serves as the
independent oracle.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from functools import cached_property

import numpy as np

from .errors import InvalidInput, UlsetError, record
from .evaluator import ExtReal, make_handle, _keys, _spans, _LINE_FLOATS
from .geometry import HalfSpace, Polyhedron, contains_many, _as_points, _as_vector, _rows_at

#: Strict margin for interior-of-cone (weak domination) tests.
INT_CONE_MARGIN = 1e-9

#: Minimizers within this of the minimum are all returned.
ARGMIN_TOL = 1e-9


@record
class PointCloud:
    """Finite list of objective vectors, optionally labeled."""

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidInput("point cloud must be a nonempty (n, m) array")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != pts.shape[0]:
                raise InvalidInput("one label per point required")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@record
class OrderCone:
    """Polyhedral ordering cone {x : a_i·x <= 0} with optional generators.

    Generators are needed wherever the cone must be sampled (a + C
    sweeps); they are filled in automatically for the nonnegative
    orthant and must be user-supplied otherwise. Pointedness is probed
    only on the generators and their pairwise sums; a failed probe
    warns, it does not raise.
    """

    rep: Polyhedron
    generators: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        for h in self.rep.halfspaces:
            if abs(h.b) > 1e-12:
                raise InvalidInput("order cone rows must pass through the origin")
        if self.generators is not None:
            gens = tuple(_as_vector(g, self.rep.dim, "generator") for g in self.generators)
            object.__setattr__(self, "generators", gens)
            if not self.maybe_pointed():
                warnings.warn("order cone generators indicate a non-pointed cone",
                              stacklevel=3)  # the caller of __init__

    @property
    def dim(self) -> int:
        return self.rep.dim

    @classmethod
    def nonneg(cls, m: int) -> "OrderCone":
        """The nonnegative orthant of R^m, with the standard basis as generators."""
        eye = np.eye(m)
        rows = tuple(HalfSpace(-eye[i], 0.0) for i in range(m))
        return cls(Polyhedron(rows), generators=tuple(eye[i] for i in range(m)))

    def negated(self) -> Polyhedron:
        """Halfspace form of -C (normals flip sign)."""
        return Polyhedron(tuple(HalfSpace(-h.a, 0.0) for h in self.rep.halfspaces))

    def maybe_pointed(self) -> bool:
        """Advisory: False when some probe vector sits in C together with its negation."""
        return self._pointed

    @cached_property
    def _pointed(self) -> bool:
        """:meth:`maybe_pointed`, probed once per cone: the generators, then
        their pairwise sums g_i + g_j (i < j) for the blocks of i that
        :func:`_spans` gives for g * m floats each. Probes of norm at most
        1e-12 are skipped."""
        if not self.generators:
            return True
        G = np.stack(self.generators)
        g, m = G.shape

        def two_sided(probes):
            probes = probes[np.linalg.norm(probes, axis=1) > 1e-12]
            return bool((contains_many(self.rep, probes)
                         & contains_many(self.rep, -probes)).any())

        if two_sided(G):
            return False
        for i, j in _spans(g, g * m):
            sums = G[i:j, None, :] + G[None, :, :]
            later = np.arange(i, j)[:, None] < np.arange(g)
            if two_sided(sums[later]):
                return False
        return True

    def interior_contains_many(self, Y) -> np.ndarray:
        """Strict membership a_i·y < -margin on every row, vectorized."""
        pts = _as_points(Y, self.dim)
        return (_rows_at(self.rep.normals, pts.T) < -INT_CONE_MARGIN).all(axis=0)


def _cloud(points) -> PointCloud:
    if isinstance(points, PointCloud):
        return points
    return PointCloud(np.asarray(points, dtype=float))


def scalarize(F, C: OrderCone, k, a) -> tuple[list[int], ExtReal]:
    """Minimize the reference-point score over the cloud.

    Returns (indices of all minimizers within 1e-9 of the minimum over
    finite scores, minimal value). Points scoring nu are excluded; if
    every point scores nu the argmin is empty and the value is nu. A
    -inf score short-circuits the minimum.
    """
    arg, key = _minimize(F, C, k, _as_vector(a, C.dim, "reference point")[None, :])[0]
    return arg, ExtReal.from_key(key)


def _minimize(F, C: OrderCone, k, refs: np.ndarray) -> list[tuple[list[int], float]]:
    """:func:`scalarize` against each row of refs, an (r, m) array, in order,
    with each minimum as its lattice key.

    One handle on -C serves every reference point a: the score against a is
    its value at the points F - a, the same subtraction a handle on the
    shifted cone a - C does. Each block of references that :func:`_spans`
    gives for n * m floats each is scored by one :func:`_keys` call on its
    differences. Keys depend on their point alone (see :func:`_rows_at`), so
    they are bitwise those of one reference at a time.
    """
    F = _cloud(F)
    if F.dim != C.dim:
        raise InvalidInput(f"cloud has dimension {F.dim}, cone has {C.dim}")
    if refs.ndim != 2 or refs.shape[1] != C.dim:
        raise InvalidInput(f"reference points have shape {refs.shape}, cone has dimension {C.dim}")
    if not np.isfinite(refs).all():
        raise InvalidInput("reference points have non-finite entries")
    h = make_handle(C.negated(), k)
    n, m = F.points.shape
    Ft = np.ascontiguousarray(F.points.T)
    out = []
    for i, j in _spans(refs.shape[0], n * m):
        # differences made in the call die with it; _keys refuses any that overflow
        keys = _keys(h, (Ft[:, None, :] - refs[i:j].T[:, :, None])
                     .reshape(m, -1).T).reshape(-1, n)
        low = keys.min(axis=1)
        hits = keys <= (low + ARGMIN_TOL)[:, None]
        # -inf is the least key, so it wins; a cloud scoring nu everywhere has no minimizer
        out.extend(([] if lo == np.inf else np.flatnonzero(hit).tolist(), lo)
                   for lo, hit in zip(low.tolist(), hits))
    return out


def weakly_efficient(F, C: OrderCone) -> list[int]:
    """Brute-force domination filter.

    A point is weakly efficient when no other point beats it by a
    vector strictly inside the cone (margin 1e-9 on every row).
    """
    F = _cloud(F)
    if F.dim != C.dim:
        raise InvalidInput(f"cloud has dimension {F.dim}, cone has {C.dim}")
    pts = F.points
    out = []
    for i in range(len(pts)):
        dominated = C.interior_contains_many(pts[i] - pts).any()
        if not dominated:
            out.append(i)
    return out


def trace_front(F, C: OrderCone, k, refs) -> dict[int, tuple[int, ...]]:
    """Scalarize once per reference point; maps ref index to its argmin indices."""
    F = _cloud(F)
    ref_pts = refs.points if isinstance(refs, PointCloud) else np.asarray(refs, dtype=float)
    if ref_pts.size == 0:
        return {}
    return {r: tuple(arg) for r, (arg, _) in enumerate(_minimize(F, C, k, np.atleast_2d(ref_pts)))}


# ---------------------------------------------------------------------------
# CSV interchange


def load_points_csv(path) -> PointCloud:
    """Read one point per row, comma-separated, optional trailing label.

    The file is read by :func:`_read_chunks`, a chunk of lines at a time,
    and its chunks are joined. ``#`` does not start a comment.
    """
    labels: list[str] = []
    with open(path) as f:
        pts = np.concatenate(list(_read_chunks(f, path, labels)))
    return PointCloud(pts, tuple(labels) if labels else None)


def _read_points_csv(path, consume):
    """consume(chunks), where chunks yields the points of the CSV file at
    path as (n, m) arrays read by :func:`_read_chunks`, so that a caller
    can work on each chunk and drop it; labels are dropped. An error
    consume raises stands only once the rest of the file reads, so that a
    malformed line is reported first, as it is where the whole file is
    read before any point is used.
    """
    with open(path) as f:
        chunks = _read_chunks(f, path)
        try:
            return consume(chunks)
        except UlsetError:
            for _ in chunks:
                pass
            raise


def _read_chunks(f, path, labels=None):
    """Yield the open file's rows as (n, m) float arrays, a chunk of lines at
    a time, the blocks :func:`_spans` gives for lines of _LINE_FLOATS floats
    (the file's length is not known, so they run on until a read comes back
    empty). Each chunk is parsed in C by ``np.loadtxt`` or, where loadtxt
    refuses it (labels, ragged rows, spellings only Python's ``float``
    accepts), by :func:`_parse_lines`, which gives the same points and
    reports malformed lines; a chunk of blank lines yields nothing. Where
    labels is a list, each row's label ("" for none) is appended to it once
    some row has one. Nothing is yielded once rows disagree on width; that
    and an empty file are reported at the end, after any malformed line."""
    widths, rows = set(), 0
    for a, b in _spans(sys.maxsize, _LINE_FLOATS):
        if not (lines := list(itertools.islice(f, b - a))):
            break
        tags = None
        try:
            with warnings.catch_warnings():
                # "input contained no data": a chunk of blank lines
                warnings.simplefilter("ignore", UserWarning)
                pts = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if len(pts):
                widths.add(pts.shape[1])
        except ValueError:
            parsed, tags = _parse_lines(lines, a + 1)
            widths.update(map(len, parsed))
            pts = np.array(parsed) if len(widths) == 1 else None
        if len(widths) == 1 and len(pts):
            if labels is not None and (tags or labels):
                labels.extend([""] * (rows - len(labels)) + (tags or [""] * len(pts)))
            rows += len(pts)
            yield pts
    if not widths:
        raise InvalidInput(f"no points found in {path}")
    if len(widths) != 1:
        raise InvalidInput(f"rows disagree on dimension: {sorted(widths)}")


def _parse_lines(lines, first_lineno: int) -> tuple[list[list[float]], list[str] | None]:
    """Parse lines numbered from first_lineno with ``float``: the rows, ragged
    or not, and each row's label ("" for none), or None where no line has one."""
    rows: list[list[float]] = []
    labels: list[str] = []
    any_label = False
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        label = ""
        try:
            float(tokens[-1])
        except ValueError:
            label = tokens[-1]
            tokens = tokens[:-1]
            any_label = True
        if not tokens:
            raise InvalidInput(f"line {lineno}: no coordinates")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: non-numeric coordinate ({exc})") from exc
        labels.append(label)
    return rows, labels if any_label else None
