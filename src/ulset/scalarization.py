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
import math
import sys
import warnings

import numpy as np

from . import boxes
from .errors import InvalidInput, UlsetError, record
from .evaluator import ExtReal, make_handle, _fit, _keys, _spans, _LINE_FLOATS
from .geometry import EPS_MEMBERSHIP, HalfSpace, Polyhedron, _as_points, _as_vector, _rows_at

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

    Generators are needed wherever the cone must be sampled (a + C sweeps);
    they are filled in automatically for the nonnegative orthant and must be
    user-supplied otherwise. Pointedness is read from the rows alone, with no
    SVD where rows c_j·e_j on every axis give σ_min >= min_j |c_j|
    (:meth:`maybe_pointed`); a cone given generators that is not pointed warns.
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
                warnings.warn("order cone is not pointed: its rows have rank below "
                              "its dimension", stacklevel=3)  # the caller of __init__

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
        """Whether C ∩ -C = {0}, read from the rows R alone: R has rank m at
        tolerance EPS_MEMBERSHIP. A unit x with ||R·x|| <= EPS_MEMBERSHIP
        passes :func:`~ulset.geometry.contains_many`'s row slack together
        with -x, so the cone is taken to hold the line through x. Where R
        has a row c_j·e_j, |c_j| > EPS_MEMBERSHIP, for every axis j (the
        orthant's -I), σ_min(R) >= min_j |c_j| settles it with no SVD."""
        R = self.rep.normals
        axes = R[(np.count_nonzero(R, axis=1) == 1) & (np.abs(R).max(axis=1) > EPS_MEMBERSHIP)]
        if (axes != 0).any(axis=0).all():
            return True
        return int(np.linalg.matrix_rank(R, tol=EPS_MEMBERSHIP)) == self.dim

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
    -inf score short-circuits the minimum. The score is that of a handle
    on -C at F - a, and :func:`_minimize` finds its minimizers by filter
    and refine: where every row of -C moves along k, only the points that
    a certified filter cannot rule out get an exact key, and the result is
    bitwise that of scoring every point.
    """
    arg, key = _minimize(F, C, k, _as_vector(a, C.dim, "reference point")[None, :])[0]
    return arg, ExtReal.from_key(key)


def _minimize(F, C: OrderCone, k, refs: np.ndarray) -> list[tuple[list[int], float]]:
    """:func:`scalarize` against each row of refs, an (r, m) array, in order,
    with each minimum as its lattice key.

    One handle on -C serves every reference point a: the score against a is
    its value at the points F - a, the same subtraction a handle on the
    shifted cone a - C does. Each reference is scored by filter and refine.

    Filter. Where every row R_r of -C moves along k (R_r·k >
    AK_POSITIVE_MIN), the score of F_p against a is
    max_r R_r·(F_p - a)/(R_r·k). So U = R·F/(R·k) is taken once for the
    cloud and V = R·a/(R·k) a block of references at a time, and the
    filter value of F_p against a is A_p = max_r (U_rp - V_ra), with no
    difference built and nothing validated again.

    Bound. Let S_r = Σ_j |R_rj|·(max_p |F_pj| + max_a |a_j|)/(R_r·k), the
    maxima over the cloud and all the references, γ_j = j·u/(1 - j·u) and
    u = 2**-53. The exact key rounds F_p - a, the m products of a row and
    their sum, and the division; the filter rounds the products and sums of
    U and V, their divisions and U - V. Either way a row's value lies within
    γ_{m+2}·S_r of the real R_r·(F_p - a)/(R_r·k), and so does the max over
    rows: a filter value lies within 2·γ_{m+2}·max_r S_r of the exact key.
    With E = 4·γ_{m+3}·max_r S_r + 2**-1000 (γ_{m+3} for the rounding of S
    itself, 2**-1000 for underflow), every point whose key is within
    ARGMIN_TOL of the least key has A_p <= min A + reach, reach =
    ARGMIN_TOL + 2E. The threshold gets a relative margin of 2**-50 for its
    own rounding and that of the key comparison, and the points at or below
    it are the reference's candidates. The filter runs only where
    max_r S_r < 2**1021, so no filter value, difference or key overflows.
    Where a row of -C is static, or the bound is larger or not finite, every
    point is a candidate of every reference, in the blocks that
    :func:`_spans` gives for n·m floats a reference. That choice is made
    once per call, so no candidate depends on the block budget.

    Prune. The candidates are found without most of the A_p.
    :class:`boxes.Boxes` splits the cloud into G boxes of one width, about
    16 points, the last box shorter, and keeps lo_rg, the least U_rp of box
    g on row r. Since fl(x - v) is monotone in x, and max is exact,
    LB_ag = max_r (lo_rg - V_ra) is at most every A_p of box g in floating
    point too. The exact least A_p of each reference's lowest-LB box, ub,
    bounds min A above, so min A lies between that box's LB and ub. The cut
    ub + reach + 2**-48·(max(|ub|, |LB|) + reach) is then at least the
    threshold of min A: the 2**-48 covers the rounding of either threshold.
    A box whose LB is above the cut holds neither a candidate nor the min A,
    so only the points of the other boxes are scored. Their least A_p is the
    exact min A, the threshold from it is the dense filter's, and so are the
    candidates, bit for bit. The references go in the blocks that
    :func:`_spans` gives for G floats, and the lowest box's points, each. On
    a noisy 3-d front of 2000 points against itself, a reference takes 125
    box bounds and about 50 A_p, not 2000.

    Refine. Candidates gather, as flat indices reference * n + point, over
    whole references; where their differences F_p - a fill the block budget,
    they go to one :func:`_keys` call, so memory stays bounded even where
    every point ties. Each reference's minimum is the least exact key of its
    candidates (``np.minimum.reduceat``), and its indices are those of the
    candidates within ARGMIN_TOL of it. Keys depend on their point alone
    (see :func:`_rows_at`), so values and indices are bitwise those of one
    :func:`_keys` call per reference on all of F - a; a block whose every
    point is a candidate refuses a difference or key that overflows as
    that call does.
    """
    F = _cloud(F)
    if F.dim != C.dim:
        raise InvalidInput(f"cloud has dimension {F.dim}, cone has {C.dim}")
    if not np.isfinite(F.points).all():
        raise InvalidInput("point cloud has non-finite entries")
    if refs.ndim != 2 or refs.shape[1] != C.dim:
        raise InvalidInput(f"reference points have shape {refs.shape}, cone has dimension {C.dim}")
    if not np.isfinite(refs).all():
        raise InvalidInput("reference points have non-finite entries")
    h = make_handle(C.negated(), k)
    n, m = F.points.shape
    out, pending, count = [], [], 0
    for chunk in _candidate_chunks(h, F.points, refs):
        pending.append(chunk)
        count += len(chunk)
        if count >= _fit(m):
            out.extend(_refine(h, F.points, refs, np.concatenate(pending)))
            pending, count = [], 0
    if pending:
        out.extend(_refine(h, F.points, refs, np.concatenate(pending)))
    return out


def _candidate_chunks(h, F: np.ndarray, refs: np.ndarray):
    """:func:`_minimize`'s candidates, in order, as arrays of flat indices
    reference * n + point, each of them the candidates of whole references."""
    n, m = F.shape
    R, ak, s = h.set.normals, h.motions[0].divisor, np.inf
    if not h.motions[0].static.size:
        with np.errstate(over="ignore", invalid="ignore"):
            U = _rows_at(R, F.T)
            U /= ak
            big = sum(np.maximum(X.max(axis=0), -X.min(axis=0)) for X in (F, refs))
            s = (_rows_at(np.abs(R), big) / ak[:, 0]).max()
    # a static row has no bound; a U that is not finite fails it too, but
    # is checked outright
    if not (s < 2.0**1021 and np.isfinite(U).all()):
        for i, j in _spans(len(refs), n * m):
            yield np.arange(i * n, j * n)
        return
    gamma = (m + 3) * 2.0**-53 / (1 - (m + 3) * 2.0**-53)
    reach = ARGMIN_TOL + 2 * (4 * gamma * s + 2.0**-1000)
    cloud = boxes.Boxes(U, len(refs))
    for i, j in _spans(len(refs), cloud.floats):
        for chunk in cloud.candidates(_rows_at(R, refs[i:j].T) / ak, reach):
            yield chunk + i * n


def _refine(h, F: np.ndarray, refs: np.ndarray, pairs: np.ndarray) -> list[tuple[list[int], float]]:
    """:func:`_minimize`'s result for consecutive references, from the exact
    keys of their candidates alone: pairs holds the candidates as flat
    indices reference * n + point into the (n, m) cloud F, in order, at
    least one for each reference."""
    r, p = np.divmod(pairs, len(F))
    # C-ordered (m, c), the layout whose keys TestReferenceBlocks pins
    D = np.take(F.T, p, axis=1)
    D -= np.take(refs.T, r, axis=1)
    keys = _keys(h, D.T)
    del D
    # counts by bincount: a reduction of bools cast to ints takes a 128 KiB
    # buffer, which showed in the peak RSS of a small pareto
    r -= r[0]
    counts = np.bincount(r)
    low = np.minimum.reduceat(keys, np.cumsum(counts) - counts)
    hit = keys <= (low + ARGMIN_TOL)[r]
    args, stops = p[hit].tolist(), np.bincount(r[hit], minlength=len(low)).cumsum().tolist()
    # -inf is the least key, so it wins; a cloud scoring nu everywhere has no minimizer
    return [([] if lo == np.inf else args[a:b], lo)
            for lo, a, b in zip(low.tolist(), [0] + stops, stops)]


def weakly_efficient(F, C: OrderCone) -> list[int]:
    """Brute-force domination filter.

    A point is weakly efficient when no other point beats it by a
    vector strictly inside the cone (margin 1e-9 on every row).

    The points go in blocks of about sqrt(budget / m) (:func:`_spans`), and
    a block's points not yet beaten are tested against the next columns
    of the cloud, as many as the block budget holds differences y_i - y_j
    for, until none is left or the columns run out. Testing fewer pairs
    changes no answer: a point is beaten or not, whichever pair beats it.
    A difference that overflows is refused up front, as testing every pair
    would refuse it: the widest difference of each coordinate is max - min.
    """
    F = _cloud(F)
    if F.dim != C.dim:
        raise InvalidInput(f"cloud has dimension {F.dim}, cone has {C.dim}")
    pts = F.points
    n, m = pts.shape
    with np.errstate(over="ignore"):
        _as_points(pts.max(axis=0) - pts.min(axis=0), m)
    beaten = np.zeros(n, dtype=bool)
    for a, b in _spans(n, math.isqrt(_fit(m)) * m):
        live, c = np.arange(a, b), 0
        while live.size and c < n:
            d = min(n, c + _fit(live.size * m))
            D = pts[live, None] - pts[None, c:d]
            hit = C.interior_contains_many(D.reshape(-1, m)).reshape(D.shape[:2]).any(axis=1)
            beaten[live[hit]] = True
            live, c = live[~hit], d
    return np.flatnonzero(~beaten).tolist()


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
            lines = parsed = None  # not held while the caller works on the points
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
