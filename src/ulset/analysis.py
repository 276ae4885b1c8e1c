"""Sampled property checks, set separation and regularity diagnostics.

Every check draws from a seeded generator over a user box (default
[-10, 10]^n), rejects points outside the functional's domain (value nu)
and reports a reproducible verdict: rerunning with the same handle,
seed and sample count yields the identical report, witness included.
Samples valued nu never enter a numeric defect; they are excluded and
the number of samples that actually contributed is reported in
``applicable``. A check with nothing applicable reports Inapplicable,
never Holds.

A check computes one defect per applicable sample on the evaluator's
lattice keys (a finite value as itself, -inf as -inf, nu as +inf) with
one of two rules: the inequality lhs <= rhs (:func:`_le_defect`) or the
equality lhs == rhs (:func:`_eq_defect`). It does so block by block and
reduces each block at once (:class:`_Worst`), so it holds no defect
array longer than a block. The verdict is Violated when the largest
defect exceeds the check's tolerance; the witness is then the first
sample with that largest defect.

All verdicts are sampled evidence: Holds means no violation was found,
not a proof.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput, PreconditionFailed, UlsetError, record
from .evaluator import (
    NU,
    ExtReal,
    FunctionalHandle,
    Strategy,
    key_text,
    make_handle,
    _dual_handle,
    _dual_keys,
    _keys,
    _spans,
)
from .geometry import (EPS_MEMBERSHIP, Leaf, contains_many, fold_plan, _as_vector, _exact,
                       _row_values, _rows_at)

HOLDS = "Holds"
VIOLATED = "Violated"
INAPPLICABLE = "Inapplicable"

DEFAULT_BBOX = (-10.0, 10.0)

#: Strict-monotonicity margin is relative: phi(y1) < phi(y2) - margin*(1+|phi(y2)|).
STRICT_MARGIN = 1e-9


@record
class PropertyReport:
    """Outcome of one sampled check; reports compare and hash by value.

    ``witness`` holds the inputs and values of the worst violation when
    the verdict is Violated, else None. ``samples`` is the requested
    sample count; ``applicable`` is how many samples actually entered
    the defect computation after nu-rejection and band exclusions.
    """

    name: str
    verdict: str
    witness: dict | None
    max_defect: float
    samples: int
    seed: int
    applicable: int

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@record
class MonotoneCone:
    """Conic hull of finitely many generators; no generators means the zero cone."""

    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens = tuple(_as_vector(g, name="generator") for g in self.generators)
        for g in gens:
            if float(np.linalg.norm(g)) <= 1e-12:
                raise InvalidInput("cone generators must be nonzero")
        if len(dims := sorted({len(g) for g in gens})) > 1:
            raise InvalidInput(f"cone generators disagree on dimension: {dims}")
        object.__setattr__(self, "generators", gens)

    def matrix(self, dim: int) -> np.ndarray:
        return np.reshape([_as_vector(g, dim, "generator") for g in self.generators], (-1, dim))


@record
class SeparationVerdict:
    """Result of :func:`separate`: the offending points, in cloud order."""

    disjoint: bool
    mode: str
    offending_indices: tuple[int, ...]
    offending_points: tuple[np.ndarray, ...]
    offending_values: tuple[ExtReal, ...]


@record
class LipschitzEstimate:
    """Result of :func:`estimate_lipschitz`: the sampled slope and the certified bound."""

    l_emp: float
    l_bound: ExtReal
    interior: bool


def _ext_json(key: float):
    """A lattice key as a witness entry: a finite value as a float, else its text."""
    return float(key) if np.isfinite(key) else key_text(key)


def _le_defect(lhs: np.ndarray, rhs: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Defect of lhs <= rhs on lattice keys, elementwise.

    0 where it holds as keys, 1 where it fails with an infinite side,
    otherwise max(0, lhs - rhs - slack).
    """
    defect = (lhs > rhs).astype(float)
    finite = (defect > 0) & np.isfinite(lhs) & np.isfinite(rhs)
    gap = lhs[finite] - rhs[finite] - slack
    defect[finite] = np.where(gap > 0.0, gap, 0.0)
    return defect


def _eq_defect(lhs: np.ndarray, rhs: np.ndarray, mismatch=1.0) -> np.ndarray:
    """Defect of lhs == rhs on lattice keys, elementwise.

    |lhs - rhs| where both are finite, 0 where both are the same
    infinity, and ``mismatch`` (a scalar or one value per element) where
    the kinds differ.
    """
    defect = np.where(lhs == rhs, 0.0, mismatch)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    defect[finite] = np.abs(lhs[finite] - rhs[finite])
    return defect


class _Worst:
    """Running reduction of one defect sequence, fed block by block.

    Keeps how many defects it has seen, the largest, and the witness of
    the first sample that attains it (so the earlier sample wins a tie
    across blocks, as np.argmax over the whole sequence would), built
    only when the largest exceeds tol.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.count = 0
        self.defect = -np.inf
        self.witness = None

    def add(self, defects: np.ndarray, witness_at) -> None:
        """Reduce the next block's defects; witness_at(i) gives the
        witness of its i-th sample and is called before add returns."""
        if len(defects):
            i = int(np.argmax(defects))
            if defects[i] > self.defect:
                self.defect = float(defects[i])
                self.witness = witness_at(i) if self.defect > self.tol else None
        self.count += len(defects)


def _verdict(name, seed, samples, worst: _Worst, applicable: int | None = None
             ) -> PropertyReport:
    """Report of a reduction; ``applicable`` defaults to its defect count.

    Violated when the largest defect exceeds the tolerance, with the
    first sample that attains it as the witness.
    """
    if applicable is None:
        applicable = worst.count
    if applicable == 0:
        return PropertyReport(name, INAPPLICABLE, None, 0.0, samples, seed, 0)
    return PropertyReport(name, HOLDS if worst.witness is None else VIOLATED, worst.witness,
                          max(0.0, worst.defect), samples, seed, applicable)


def _blocks(h: FunctionalHandle, n: int, columns: int = 0):
    """The [a, b) blocks in which a check on h draws, evaluates and
    reduces n samples of up to ``columns`` extra floats each.

    They are the blocks :func:`_spans` gives for samples of
    max(h.point_floats, columns) floats, so without many extra columns a
    block is one kernel call of :func:`_keys`. At inner dimension <= 4, on
    the OpenBLAS kernels CI runs, a sample's key and cone step depend on
    that sample alone (see :func:`_rows_at`), so every key is that of one
    pass over all the samples.
    """
    return _spans(n, max(h.point_floats, columns))


#: The most samples one call draws (classify_convexity draws two per
#: requested sample). A check evaluates and reduces its samples block by
#: block, but it keeps each kept sample's point, key and extra columns
#: (at most two, or check_monotone's step of dim floats, whatever the
#: cone's generator count), for the pairings of later blocks: the
#: convexity pairs join the first and the second half of the draw. So a
#: larger count is refused rather than left to exhaust memory.
MAX_SAMPLES = 10**6


def _sample_count(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"cannot draw {n} samples: the sample count must be at least 1")
    if n > MAX_SAMPLES:
        raise InvalidInput(f"cannot draw {n} samples: the sample count must be at most "
                           f"{MAX_SAMPLES}")


def _draw_domain(h: FunctionalHandle, n: int, rng, bbox, extra_cols: int = 0, G=None):
    """Rejection-sample up to n domain points (value not nu) from the box.

    Returns the points, their lattice keys and the extra columns: extra
    uniform columns in [-10, 10] are drawn alongside each candidate so
    that rejection does not disturb the pairing. Oversampling is capped
    at 10x. Given a generator matrix G of at most extra_cols rows, each
    kept sample holds its cone step (0.3 * |e|) @ G, dim floats, in place
    of its extra columns e.

    A round draws n candidates block by block, then their extra columns
    block by block; Generator.uniform split by rows gives the rows of
    one draw, so the stream is that of whole rounds. Kept rows go
    straight into arrays of n rows; candidates drawn once n are kept
    are not evaluated.
    """
    _sample_count(n)
    lo, hi = bbox
    dim = h.set.dim
    P, V = np.empty((n, dim)), np.empty(n)
    E = np.empty((n, extra_cols if G is None else dim))
    blocks = list(_blocks(h, n, extra_cols))
    kept = 0
    for _ in range(10):  # rounds of n candidates
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
        if extra_cols:
            for a, b in blocks:
                extras = rng.uniform(-10.0, 10.0, size=(b - a, extra_cols))[keep[a:b]]
                if G is not None:
                    extras = _rows_at(np.abs(extras[:, : len(G)]) * 0.3, G)
                E[first: first + len(extras)] = extras
                first += len(extras)
    return P[:kept], V[:kept], E[:kept]


# ---------------------------------------------------------------------------
# identity and inequality suites
#
# Each suite evaluates and reduces its samples in blocks (see _blocks)
# and builds its witness from the block that holds it.


def check_sublevel_identity(h: FunctionalHandle, n_samples: int = 1000, seed: int = 42,
                            bbox=DEFAULT_BBOX) -> PropertyReport:
    """Sampled equivalence phi(y) <= t  <=>  y - t*k in set.

    Pairs with |phi(y) - t| <= 1e-6 are excluded: inside that band the
    two sides may legitimately disagree numerically. Membership is tested
    without slack, so the band is the only tolerance (a slack s on
    a·y - b would widen it by s / (a·k) in t).
    """
    rng = np.random.default_rng(seed)
    P, V, E = _draw_domain(h, n_samples, rng, bbox, extra_cols=1)
    worst = _Worst(0.0)
    for a, b in _blocks(h, len(P)):
        y, v, t = P[a:b], V[a:b], E[a:b, 0]
        member = contains_many(h.set, y - t[:, None] * h.k, 0.0)
        keep = ~(np.abs(v - t) <= 1e-6)
        y, v, t, member = y[keep], v[keep], t[keep], member[keep]
        # a disagreement costs 1 plus the distance of a finite phi from t
        worst.add(np.where((v <= t) != member, 1.0 + _eq_defect(v, t, mismatch=0.0), 0.0),
                  lambda i: {
                      "inputs": {"y": y[i].tolist(), "t": float(t[i])},
                      "values": {"phi": _ext_json(v[i]), "member": bool(member[i])},
                  })
    return _verdict("sublevel_identity", seed, n_samples, worst)


def check_translation_invariance(h: FunctionalHandle, n_samples: int = 1000, seed: int = 42,
                                 bbox=DEFAULT_BBOX) -> PropertyReport:
    """Sampled identity phi(y + t*k) = phi(y) + t; -inf is preserved."""
    rng = np.random.default_rng(seed)
    P, V, E = _draw_domain(h, n_samples, rng, bbox, extra_cols=1)
    T = E[:, 0]
    pass_tol = 1e-7
    if h.strategy == Strategy.BISECTION:
        spread = float(np.abs(V[np.isfinite(V)]).max(initial=0.0) + np.abs(T).max(initial=0.0))
        pass_tol = max(pass_tol, 2.0 * h.tol * (1.0 + spread))
    worst = _Worst(pass_tol)
    for a, b in _blocks(h, len(P)):
        y, v, t = P[a:b], V[a:b], T[a:b]
        v2 = _keys(h, y + t[:, None] * h.k)
        worst.add(_eq_defect(v2, v + t), lambda i: {
            "inputs": {"y": y[i].tolist(), "t": float(t[i])},
            "values": {"phi_y": _ext_json(v[i]), "phi_shifted": _ext_json(v2[i])},
        })
    return _verdict("translation_invariance", seed, n_samples, worst)


def check_monotone(h: FunctionalHandle, cone: MonotoneCone, strict: bool = False,
                   n_samples: int = 1000, seed: int = 42, bbox=DEFAULT_BBOX) -> PropertyReport:
    """Monotonicity along a cone: y2 - y1 in cone(B) implies phi(y1) <= phi(y2).

    Also probes the set-level equivalent on projected boundary points
    (boundary point minus cone element must stay in the set) and folds
    both defects into one verdict, so a clean functional sweep with a
    failing set-level probe still reports Violated. Strict mode
    additionally requires a relative gap at finite pairs whose step is
    numerically nonzero.
    """
    rng = np.random.default_rng(seed)
    G = cone.matrix(h.set.dim)
    P, V, S = _draw_domain(h, n_samples, rng, bbox, extra_cols=max(G.shape[0], 1), G=G)
    k = h.k
    functional, escaped = _Worst(0.0), _Worst(0.0)
    for a, b in _blocks(h, len(P)):
        y, v, B = P[a:b], V[a:b], S[a:b]
        v1 = _keys(h, y - B)
        ok = v1 < np.inf
        y2, step, v1, v2 = y[ok], B[ok], v1[ok], v[ok]
        defect = _le_defect(v1, v2, slack=1e-7)
        if strict:
            gap = STRICT_MARGIN * (1.0 + np.abs(v2))
            moved = np.linalg.norm(step, axis=1) > 1e-6
            defect = np.maximum(defect, np.where(moved, _le_defect(v1, v2 - gap), 0.0))
        functional.add(defect, lambda i: {
            "inputs": {"y2": y2[i].tolist(), "step": step[i].tolist()},
            "values": {"phi_y1": _ext_json(v1[i]), "phi_y2": _ext_json(v2[i])},
        })
        finite = np.isfinite(v)
        boundary = y[finite] - v[finite, None] * k - B[finite]
        escaped.add((~contains_many(h.set, boundary, 1e-6)).astype(float), lambda i: {
            "inputs": {"boundary_minus_step": boundary[i].tolist(),
                       "step": B[finite][i].tolist()},
            "values": {"set_level": "boundary point minus step escaped the set"},
        })
    # the functional defects come first: they win a tie
    worst = functional if functional.defect >= escaped.defect else escaped
    name = "strictly_monotone" if strict else "monotone"
    return _verdict(name, seed, n_samples, worst, applicable=functional.count)


def classify_convexity(h: FunctionalHandle, n_samples: int = 1000, seed: int = 42,
                       bbox=DEFAULT_BBOX) -> dict[str, PropertyReport]:
    """Midpoint-sampled classification into four flags.

    Returns reports keyed "convex", "positively_homogeneous",
    "subadditive" and "sublinear" (derived from the first two). A
    midpoint or sum that leaves the domain counts against the flag.
    """
    _sample_count(n_samples)
    if n_samples > MAX_SAMPLES // 2:
        raise InvalidInput(f"cannot draw {n_samples} samples: the convexity check draws two "
                           f"points per sample, so the sample count must be at most "
                           f"{MAX_SAMPLES // 2}")
    rng = np.random.default_rng(seed)
    P, V, E = _draw_domain(h, 2 * n_samples, rng, bbox, extra_cols=2)
    half = len(P) // 2

    convex, subadditive = _Worst(1e-7), _Worst(1e-7)
    for a, b in _blocks(h, half):
        y1, v1 = P[a:b], V[a:b]
        y2, v2 = P[half + a: half + b], V[half + a: half + b]
        lam = 0.05 + 0.9 * (np.abs(E[a:b, 0]) / 10.0)
        vm = _keys(h, lam[:, None] * y1 + (1 - lam)[:, None] * y2)
        convex.add(_le_defect(vm, lam * v1 + (1 - lam) * v2), lambda i: {
            "inputs": {"y1": y1[i].tolist(), "y2": y2[i].tolist(), "lambda": float(lam[i])},
            "values": {"phi_mid": _ext_json(vm[i]),
                       "phi_y1": _ext_json(v1[i]), "phi_y2": _ext_json(v2[i])},
        })
        vsum = _keys(h, y1 + y2)
        subadditive.add(_le_defect(vsum, v1 + v2), lambda i: {
            "inputs": {"y1": y1[i].tolist(), "y2": y2[i].tolist()},
            "values": {"phi_sum": _ext_json(vsum[i]),
                       "phi_y1": _ext_json(v1[i]), "phi_y2": _ext_json(v2[i])},
        })

    homogeneous = _Worst(1e-7)
    for a, b in _blocks(h, min(len(P), n_samples)):
        y, vy = P[a:b], V[a:b]
        lam = 0.05 + 0.4 * np.abs(E[a:b, 1])
        vs = _keys(h, lam[:, None] * y)
        homogeneous.add(_eq_defect(vs, lam * vy), lambda i: {
            "inputs": {"y": y[i].tolist(), "lambda": float(lam[i])},
            "values": {"phi_y": _ext_json(vy[i]), "phi_scaled": _ext_json(vs[i])},
        })

    reports = {
        "convex": _verdict("convex", seed, n_samples, convex),
        "positively_homogeneous": _verdict("positively_homogeneous", seed, n_samples,
                                           homogeneous),
        "subadditive": _verdict("subadditive", seed, n_samples, subadditive),
    }
    cv, ph = reports["convex"], reports["positively_homogeneous"]
    if cv.verdict == INAPPLICABLE or ph.verdict == INAPPLICABLE:
        reports["sublinear"] = PropertyReport("sublinear", INAPPLICABLE, None, 0.0,
                                              n_samples, seed, 0)
    else:
        bad = cv if cv.verdict == VIOLATED else (ph if ph.verdict == VIOLATED else None)
        reports["sublinear"] = PropertyReport(
            "sublinear",
            VIOLATED if bad is not None else HOLDS,
            None if bad is None else bad.witness,
            max(cv.max_defect, ph.max_defect),
            n_samples, seed,
            min(cv.applicable, ph.applicable),
        )
    return reports


def check_recession_inequality(h_set: FunctionalHandle, h_rec: FunctionalHandle,
                               n_samples: int = 1000, seed: int = 42,
                               bbox=DEFAULT_BBOX) -> PropertyReport:
    """Sampled bound phi(y0 + y1) <= phi(y0) + phi_cone(y1)."""
    rng = np.random.default_rng(seed)
    P0, V0, _ = _draw_domain(h_set, n_samples, rng, bbox)
    P1, V1, _ = _draw_domain(h_rec, n_samples, rng, bbox)
    worst = _Worst(1e-7)
    for a, b in _blocks(h_set, min(len(P0), len(P1))):
        y0, v0, y1, v1 = P0[a:b], V0[a:b], P1[a:b], V1[a:b]
        vs = _keys(h_set, y0 + y1)
        worst.add(_le_defect(vs, v0 + v1), lambda i: {
            "inputs": {"y0": y0[i].tolist(), "y1": y1[i].tolist()},
            "values": {"phi_sum": _ext_json(vs[i]), "phi_y0": _ext_json(v0[i]),
                       "phi_cone_y1": _ext_json(v1[i])},
        })
    return _verdict("recession_inequality", seed, n_samples, worst)


def check_dual_relation(h: FunctionalHandle, n_samples: int = 1000, seed: int = 42,
                        bbox=DEFAULT_BBOX) -> PropertyReport:
    """Agreement of the direct value with the negated complement route.

    A dual value of nu at a finite phi costs 1 + |phi|.
    """
    try:
        dual = _dual_handle(h)
    except PreconditionFailed:
        return PropertyReport("dual_relation", INAPPLICABLE, None, 0.0, n_samples, seed, 0)
    rng = np.random.default_rng(seed)
    P, V, _ = _draw_domain(h, n_samples, rng, bbox)
    worst = _Worst(1e-6)
    for a, b in _blocks(h, len(P)):
        finite = np.isfinite(V[a:b])
        y, v = P[a:b][finite], V[a:b][finite]
        d = _dual_keys(dual, y)
        worst.add(_eq_defect(d, v, mismatch=1.0 + np.abs(v)), lambda i: {
            "inputs": {"y": y[i].tolist()},
            "values": {"phi": float(v[i]), "dual": str(_ext_json(d[i]))},
        })
    return _verdict("dual_relation", seed, n_samples, worst)


# ---------------------------------------------------------------------------
# separation


def separate(h: FunctionalHandle, points, mode: str = "closed") -> SeparationVerdict:
    """Disjointness of a finite cloud from the set (closed) or its interior.

    Closed mode flags points with phi <= 0, interior mode flags
    phi < 0; as lattice keys -inf always flags and nu never does.
    """
    if mode not in ("closed", "interior"):
        raise InvalidInput(f"mode must be 'closed' or 'interior', got {mode!r}")
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    keys = _keys(h, pts)
    idx = np.flatnonzero(keys <= 0.0 if mode == "closed" else keys < 0.0)
    return SeparationVerdict(
        disjoint=not idx.size, mode=mode,
        offending_indices=tuple(idx.tolist()),
        offending_points=tuple(pts[idx]),
        offending_values=tuple(map(ExtReal.from_key, keys[idx].tolist())),
    )


# ---------------------------------------------------------------------------
# regularity diagnostics


def _value_error(h: FunctionalHandle, bbox, keys: np.ndarray):
    """A bound on the error of each finite key of an interior h in the box.

    A closed-form key is within γ_{d+L+2}·W/(a·k) + d·2**-1073/(a·k) of the
    exact value on some row, where γ_n = n·u/(1 - n·u), u = 2**-53, L shifts
    have offsets o and W = Σ|a_i|·(r + Σ|o_i|) + |c|, r the box's largest
    |coordinate|. A bisection key also carries its bracket, tol·(1 + |v|),
    and the membership slack EPS_MEMBERSHIP/(a·k).
    """
    leaves, ak = h.set.plan[1], np.concatenate([m.divisor[:, 0] for m in h.motions])
    o = np.reshape(_offsets(h.set.plan[0]), (-1, h.set.dim))
    n = h.set.dim + len(o) + 2
    W = (_rows_at(np.abs(np.concatenate([leaf.R for leaf in leaves])),
                  max(map(abs, bbox)) + abs(o).sum(0))
         + np.abs(np.concatenate([leaf.c[:, 0] for leaf in leaves])))
    err = float(((n * 2.0**-53 / (1 - n * 2.0**-53) * W + h.set.dim * 2.0**-1073) / ak).max())
    if h.strategy == Strategy.BISECTION:
        return err + EPS_MEMBERSHIP / float(ak.min()) + h.tol * (1.0 + np.abs(keys))
    return err


def _offsets(node) -> list:
    """The offsets of every shift in the plan below node."""
    if isinstance(node, Leaf):
        return []
    return [node.offset] * (node.offset is not None) + sum(map(_offsets, node.members), [])


def estimate_lipschitz(h: FunctionalHandle, n_pairs: int = 1000, seed: int = 42,
                       bbox=DEFAULT_BBOX) -> LipschitzEstimate:
    """Empirical slope versus the certified row bound.

    The certified bound max ||a||_2 / (a·k) over the rows, with a·k from
    h's row motions, applies only when h is interior; otherwise it is nu.
    Then no sampled pair may differ by more than the bound plus 1e-6 times
    its distance, plus both keys' :func:`_value_error`; if one does, the
    evaluation is inconsistent and this raises. l_emp is the largest slope.
    """
    _sample_count(n_pairs)
    l_bound = NU if not h.interior else ExtReal.finite(max(
        float(np.linalg.norm(a)) / float(ak) for leaf, motion in zip(h.set.plan[1], h.motions)
        for a, ak in zip(leaf.R, motion.divisor[:, 0])))
    rng = np.random.default_rng(seed)
    lo, hi = bbox
    A = rng.uniform(lo, hi, size=(n_pairs, h.set.dim))
    B = rng.uniform(lo, hi, size=(n_pairs, h.set.dim))
    va, vb = _keys(h, A), _keys(h, B)
    dist = np.linalg.norm(A - B, axis=1)
    good = np.isfinite(va) & np.isfinite(vb) & (dist > 1e-12)
    va, vb, dist = va[good], vb[good], dist[good]
    l_emp = float((np.abs(va - vb) / dist).max(initial=0.0))
    if h.interior and (np.abs(va - vb) > (l_bound.value + 1e-6) * dist
                       + _value_error(h, bbox, va) + _value_error(h, bbox, vb)).any():
        raise UlsetError(
            f"sampled slope {l_emp} exceeds the certified bound {l_bound.value}; "
            "evaluation is inconsistent"
        )
    return LipschitzEstimate(l_emp, l_bound, h.interior)


def check_subgradient_bound(h: FunctionalHandle, ybar, n_samples: int = 1000,
                            seed: int = 42, bbox=DEFAULT_BBOX) -> PropertyReport:
    """Linearization bound y*·(y - ybar) <= phi_cone(y - ybar).

    y* is a_j / (a_j·k) for the lowest-index row attaining the
    closed-form max at ybar, both as the closed form takes them. Needs a
    plan of one leaf with no union or complement, an interior-certified
    direction and a finite value at ybar; anything else reports
    Inapplicable. Every row of the certified cone moves along k, so
    phi_cone is finite everywhere.
    """
    _sample_count(n_samples)
    name = "subgradient_bound"
    root, leaves = h.set.plan
    if len(leaves) != 1 or not _exact(root) or not h.interior:
        return PropertyReport(name, INAPPLICABLE, None, 0.0, n_samples, seed, 0)
    ybar = _as_vector(ybar, h.set.dim, "ybar")
    if not np.isfinite(_keys(h, ybar[None, :])[0]):
        return PropertyReport(name, INAPPLICABLE, None, 0.0, n_samples, seed, 0)
    divisor = h.motions[0].divisor[:, 0]
    j = int(np.argmax(fold_plan(root, ybar[:, None], _row_values)[:, 0] / divisor))
    ystar = leaves[0].R[j] / divisor[j]

    rec = make_handle(h.cert.to_polyhedron(), h.k, t_max=h.t_max, tol=h.tol)
    rng = np.random.default_rng(seed)
    lo, hi = bbox
    worst = _Worst(1e-7)
    for a, b in _blocks(rec, n_samples):
        y = rng.uniform(lo, hi, size=(b - a, h.set.dim))
        rhs = _keys(rec, y - ybar)
        lhs = _rows_at(y - ybar, ystar)
        worst.add(_le_defect(lhs, rhs), lambda i: {
            "inputs": {"y": y[i].tolist(), "ybar": ybar.tolist()},
            "values": {"linear": float(lhs[i]), "cone_bound": _ext_json(rhs[i]),
                       "subgradient": ystar.tolist()},
        })
    return _verdict(name, seed, n_samples, worst)
