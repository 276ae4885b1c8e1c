"""Sampled property checks, set separation and regularity diagnostics.

Every check draws from a seeded generator over a user box (default
[-10, 10]^n), rejects points outside the functional's domain (value nu)
and reports a reproducible verdict: rerunning with the same handle,
seed and sample count yields the identical report, witness included.
Samples valued nu never enter a numeric defect; they are excluded and
the number of samples that actually contributed is reported in
``applicable``. A check with nothing applicable reports Inapplicable,
never Holds.

A check computes one defect per applicable sample, as an array, on the
evaluator's lattice keys (a finite value as itself, -inf as -inf, nu as
+inf) with one of two rules: the inequality lhs <= rhs
(:func:`_le_defect`) or the equality lhs == rhs (:func:`_eq_defect`).
The verdict is Violated when the largest defect exceeds the check's
tolerance; the witness is then the first sample with that largest
defect, and it is the only witness ever built.

All verdicts are sampled evidence: Holds means no violation was found,
not a proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionFailed, UlsetError
from .evaluator import (
    NU,
    ExtReal,
    FunctionalHandle,
    Strategy,
    evaluate_batch,
    key_text,
    make_handle,
    _dual_handle,
    _dual_keys,
    _to_keys,
)
from .geometry import Polyhedron, SetExpr, Shift, contains_many, _as_vector

HOLDS = "Holds"
VIOLATED = "Violated"
INAPPLICABLE = "Inapplicable"

DEFAULT_BBOX = (-10.0, 10.0)

#: Strict-monotonicity margin is relative: phi(y1) < phi(y2) - margin*(1+|phi(y2)|).
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one sampled check.

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

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "verdict": self.verdict,
                "witness": self.witness,
                "max_defect": self.max_defect,
                "samples": self.samples,
                "seed": self.seed,
                "applicable": self.applicable,
            },
            sort_keys=True,
        )


@dataclass(frozen=True, eq=False)
class MonotoneCone:
    """Conic hull of finitely many generators; no generators means the zero cone."""

    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens = tuple(_as_vector(g, name="generator") for g in self.generators)
        for g in gens:
            if float(np.linalg.norm(g)) <= 1e-12:
                raise InvalidInput("cone generators must be nonzero")
        object.__setattr__(self, "generators", gens)

    def matrix(self, dim: int) -> np.ndarray:
        if not self.generators:
            return np.zeros((0, dim))
        return np.stack(self.generators)


@dataclass(frozen=True, eq=False)
class SeparationVerdict:
    disjoint: bool
    mode: str
    offending_indices: tuple[int, ...]
    offending_points: tuple[np.ndarray, ...]
    offending_values: tuple[ExtReal, ...]


@dataclass(frozen=True, eq=False)
class LipschitzEstimate:
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


def _verdict(name, seed, samples, defects: np.ndarray, tol: float, witness_at,
             applicable: int | None = None) -> PropertyReport:
    """Report over a defect array; ``applicable`` defaults to its length.

    Violated when the largest defect exceeds tol, with witness_at(i) for
    the first sample i that attains it as the witness.
    """
    if applicable is None:
        applicable = len(defects)
    if applicable == 0:
        return PropertyReport(name, INAPPLICABLE, None, 0.0, samples, seed, 0)
    worst = int(np.argmax(defects))
    max_defect = max(0.0, float(defects[worst]))
    witness = witness_at(worst) if max_defect > tol else None
    return PropertyReport(name, HOLDS if witness is None else VIOLATED, witness, max_defect,
                          samples, seed, applicable)


def _keys(h: FunctionalHandle, Y) -> np.ndarray:
    # looks evaluate_batch up in this module, where fault-injection tests replace it
    return _to_keys(*evaluate_batch(h, Y))


#: The most samples one call draws (classify_convexity draws two per
#: requested sample). Samples are drawn in one array, so a larger count
#: is refused rather than left to exhaust memory.
MAX_SAMPLES = 10**6


def _sample_count(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"cannot draw {n} samples: the sample count must be at least 1")
    if n > MAX_SAMPLES:
        raise InvalidInput(f"cannot draw {n} samples: the sample count must be at most "
                           f"{MAX_SAMPLES}")


def _draw_domain(h: FunctionalHandle, n: int, rng, bbox, extra_cols: int = 0):
    """Rejection-sample up to n domain points (value not nu) from the box.

    Returns the points, their lattice keys and the extra columns: extra
    uniform columns in [-10, 10] are drawn alongside each candidate so
    that rejection does not disturb the pairing. Oversampling is capped
    at 10x.
    """
    _sample_count(n)
    lo, hi = bbox
    dim = h.set.dim
    kept_p, kept_v, kept_e = [], [], []
    total = 0
    kept = 0
    while total < 10 * n and kept < n:
        m = min(n, 10 * n - total)
        total += m
        cand = rng.uniform(lo, hi, size=(m, dim))
        extras = rng.uniform(-10.0, 10.0, size=(m, extra_cols)) if extra_cols else np.zeros((m, 0))
        keys = _keys(h, cand)
        keep = keys < np.inf
        kept += int(keep.sum())
        kept_p.append(cand[keep])
        kept_v.append(keys[keep])
        kept_e.append(extras[keep])
    return (np.concatenate(kept_p)[:n], np.concatenate(kept_v)[:n],
            np.concatenate(kept_e)[:n])


# ---------------------------------------------------------------------------
# identity and inequality suites


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
    T = E[:, 0]
    member = contains_many(h.set, P - T[:, None] * h.direction.k, 0.0)
    keep = ~(np.abs(V - T) <= 1e-6)
    P, V, T, member = P[keep], V[keep], T[keep], member[keep]
    # a disagreement costs 1 plus the distance of a finite phi from t
    defects = np.where((V <= T) != member, 1.0 + _eq_defect(V, T, mismatch=0.0), 0.0)
    return _verdict("sublevel_identity", seed, n_samples, defects, 0.0, lambda i: {
        "inputs": {"y": P[i].tolist(), "t": float(T[i])},
        "values": {"phi": _ext_json(V[i]), "member": bool(member[i])},
    })


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
    V2 = _keys(h, P + T[:, None] * h.direction.k)
    return _verdict("translation_invariance", seed, n_samples, _eq_defect(V2, V + T), pass_tol,
                    lambda i: {
                        "inputs": {"y": P[i].tolist(), "t": float(T[i])},
                        "values": {"phi_y": _ext_json(V[i]), "phi_shifted": _ext_json(V2[i])},
                    })


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
    P, V, E = _draw_domain(h, n_samples, rng, bbox, extra_cols=max(G.shape[0], 1))
    B = (np.abs(E[:, : G.shape[0]]) * 0.3) @ G
    V1 = _keys(h, P - B)
    ok = V1 < np.inf
    y2, step, v1, v2 = P[ok], B[ok], V1[ok], V[ok]
    functional = _le_defect(v1, v2, slack=1e-7)
    if strict:
        gap = STRICT_MARGIN * (1.0 + np.abs(v2))
        moved = np.linalg.norm(step, axis=1) > 1e-6
        functional = np.maximum(functional, np.where(moved, _le_defect(v1, v2 - gap), 0.0))
    finite = np.isfinite(V)
    boundary = P[finite] - V[finite, None] * h.direction.k - B[finite]
    escaped = ~contains_many(h.set, boundary, 1e-6)
    n = len(functional)

    def witness_at(i):
        if i < n:
            return {"inputs": {"y2": y2[i].tolist(), "step": step[i].tolist()},
                    "values": {"phi_y1": _ext_json(v1[i]), "phi_y2": _ext_json(v2[i])}}
        return {"inputs": {"boundary_minus_step": boundary[i - n].tolist(),
                           "step": B[finite][i - n].tolist()},
                "values": {"set_level": "boundary point minus step escaped the set"}}

    name = "strictly_monotone" if strict else "monotone"
    return _verdict(name, seed, n_samples, np.concatenate([functional, escaped.astype(float)]),
                    0.0, witness_at, applicable=n)


def classify_convexity(h: FunctionalHandle, n_samples: int = 1000, seed: int = 42,
                       bbox=DEFAULT_BBOX) -> dict[str, PropertyReport]:
    """Midpoint-sampled classification into four flags.

    Returns reports keyed "convex", "positively_homogeneous",
    "subadditive" and "sublinear" (derived from the first two). A
    midpoint or sum that leaves the domain counts against the flag.
    """
    rng = np.random.default_rng(seed)
    P, V, E = _draw_domain(h, 2 * n_samples, rng, bbox, extra_cols=2)
    half = len(P) // 2
    Y1, V1 = P[:half], V[:half]
    Y2, V2 = P[half: 2 * half], V[half: 2 * half]
    lam_mix = 0.05 + 0.9 * (np.abs(E[:half, 0]) / 10.0)
    lam_pos = 0.05 + 0.4 * np.abs(E[:, 1])

    reports: dict[str, PropertyReport] = {}

    Vm = _keys(h, lam_mix[:, None] * Y1 + (1 - lam_mix)[:, None] * Y2)
    reports["convex"] = _verdict(
        "convex", seed, n_samples, _le_defect(Vm, lam_mix * V1 + (1 - lam_mix) * V2), 1e-7,
        lambda i: {
            "inputs": {"y1": Y1[i].tolist(), "y2": Y2[i].tolist(), "lambda": float(lam_mix[i])},
            "values": {"phi_mid": _ext_json(Vm[i]),
                       "phi_y1": _ext_json(V1[i]), "phi_y2": _ext_json(V2[i])},
        })

    n_pos = min(len(P), n_samples)
    Y, Vy, lam = P[:n_pos], V[:n_pos], lam_pos[:n_pos]
    Vs = _keys(h, lam[:, None] * Y)
    reports["positively_homogeneous"] = _verdict(
        "positively_homogeneous", seed, n_samples, _eq_defect(Vs, lam * Vy), 1e-7,
        lambda i: {
            "inputs": {"y": Y[i].tolist(), "lambda": float(lam[i])},
            "values": {"phi_y": _ext_json(Vy[i]), "phi_scaled": _ext_json(Vs[i])},
        })

    Vsum = _keys(h, Y1 + Y2)
    reports["subadditive"] = _verdict(
        "subadditive", seed, n_samples, _le_defect(Vsum, V1 + V2), 1e-7,
        lambda i: {
            "inputs": {"y1": Y1[i].tolist(), "y2": Y2[i].tolist()},
            "values": {"phi_sum": _ext_json(Vsum[i]),
                       "phi_y1": _ext_json(V1[i]), "phi_y2": _ext_json(V2[i])},
        })

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
    m = min(len(P0), len(P1))
    Y0, V0, Y1, V1 = P0[:m], V0[:m], P1[:m], V1[:m]
    Vs = _keys(h_set, Y0 + Y1)
    return _verdict("recession_inequality", seed, n_samples, _le_defect(Vs, V0 + V1), 1e-7,
                    lambda i: {
                        "inputs": {"y0": Y0[i].tolist(), "y1": Y1[i].tolist()},
                        "values": {"phi_sum": _ext_json(Vs[i]), "phi_y0": _ext_json(V0[i]),
                                   "phi_cone_y1": _ext_json(V1[i])},
                    })


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
    finite = np.isfinite(V)
    P, V = P[finite], V[finite]
    D = _dual_keys(dual, P)
    return _verdict("dual_relation", seed, n_samples,
                    _eq_defect(D, V, mismatch=1.0 + np.abs(V)), 1e-6,
                    lambda i: {
                        "inputs": {"y": P[i].tolist()},
                        "values": {"phi": float(V[i]), "dual": str(_ext_json(D[i]))},
                    })


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


def estimate_lipschitz(h: FunctionalHandle, n_pairs: int = 1000, seed: int = 42,
                       bbox=DEFAULT_BBOX) -> LipschitzEstimate:
    """Empirical slope versus the certified row bound.

    The certified bound max ||a||_2 / (a·k) over recession-cone rows
    applies only when the direction is interior-certified; otherwise it
    is nu. The sampled slope must not exceed the bound; if it does, the
    evaluation machinery is inconsistent and this raises.
    """
    _sample_count(n_pairs)
    rows = h.direction.cert.halfspaces
    if not rows:
        raise PreconditionFailed("a certified recession cone is required")
    k = h.direction.k
    if h.direction.interior:
        l_bound = ExtReal.finite(
            max(float(np.linalg.norm(r.a)) / float(r.a @ k) for r in rows))
    else:
        l_bound = NU
    rng = np.random.default_rng(seed)
    lo, hi = bbox
    A = rng.uniform(lo, hi, size=(n_pairs, h.set.dim))
    B = rng.uniform(lo, hi, size=(n_pairs, h.set.dim))
    va, vb = _keys(h, A), _keys(h, B)
    dist = np.linalg.norm(A - B, axis=1)
    good = np.isfinite(va) & np.isfinite(vb) & (dist > 1e-12)
    l_emp = float((np.abs(va[good] - vb[good]) / dist[good]).max(initial=0.0))
    if h.direction.interior and l_emp > l_bound.value + 1e-6:
        raise UlsetError(
            f"sampled slope {l_emp} exceeds the certified bound {l_bound.value}; "
            "evaluation is inconsistent"
        )
    return LipschitzEstimate(l_emp, l_bound, h.direction.interior)


def _unwrap_polyhedron(s: SetExpr):
    offset = np.zeros(s.dim)
    while isinstance(s, Shift):
        offset = offset + s.offset
        s = s.base
    if isinstance(s, Polyhedron):
        return s, offset
    return None


def check_subgradient_bound(h: FunctionalHandle, ybar, n_samples: int = 1000,
                            seed: int = 42, bbox=DEFAULT_BBOX) -> PropertyReport:
    """Linearization bound y*·(y - ybar) <= phi_cone(y - ybar).

    y* is a_j / (a_j·k) for the lowest-index row attaining the
    closed-form max at ybar. Needs a plain (possibly shifted)
    polyhedron, an interior-certified direction and a finite value at
    ybar; anything else reports Inapplicable. Every row of the certified
    cone moves along k, so phi_cone is finite everywhere.
    """
    _sample_count(n_samples)
    name = "subgradient_bound"
    unwrapped = _unwrap_polyhedron(h.set)
    if unwrapped is None or not h.direction.interior:
        return PropertyReport(name, INAPPLICABLE, None, 0.0, n_samples, seed, 0)
    poly, offset = unwrapped
    ybar = _as_vector(ybar, h.set.dim, "ybar")
    if not np.isfinite(_keys(h, ybar[None, :])[0]):
        return PropertyReport(name, INAPPLICABLE, None, 0.0, n_samples, seed, 0)
    k = h.direction.k
    pos, _, _, ak, _ = h.motions[0]  # the one leaf's rows moving along k, and their a·k
    ratios = (poly.normals @ (ybar - offset) - poly.offsets)[pos] / ak[:, 0]
    j = int(np.argmax(ratios))
    row = poly.normals[pos][j]
    ystar = row / float(row @ k)

    rec = make_handle(h.direction.cert.to_polyhedron(), k, t_max=h.t_max, tol=h.tol)
    rng = np.random.default_rng(seed)
    lo, hi = bbox
    Y = rng.uniform(lo, hi, size=(n_samples, h.set.dim))
    rhs = _keys(rec, Y - ybar)
    lhs = (Y - ybar) @ ystar
    return _verdict(name, seed, n_samples, _le_defect(lhs, rhs), 1e-7, lambda i: {
        "inputs": {"y": Y[i].tolist(), "ybar": ybar.tolist()},
        "values": {"linear": float(lhs[i]), "cone_bound": _ext_json(rhs[i]),
                   "subgradient": ystar.tolist()},
    })
