"""Gauges of shifted cones and order-unit norms from order intervals.

For a polyhedral cone C with k strictly interior to -C, the Minkowski
gauge of C + k equals the positive part of the translation functional
on C. For an ordering cone C with k strictly interior to C, the gauge
of the order interval [-k, k]_C is a norm whose value at y is
max(phi(y), phi(-y), 0) with phi taken on -C; with the orthant and a
positive weight vector this collapses to the weighted Chebyshev norm.
"""

from __future__ import annotations

import numpy as np

from .errors import DirectionRejected, InvalidInput, PreconditionFailed
from .evaluator import KIND_FINITE, KIND_MINUS_INF, evaluate_batch, make_handle, _to_keys
from .geometry import INTERIOR_MARGIN, Shift, _as_vector
from .analysis import PropertyReport, _eq_defect, _verdict
from .scalarization import OrderCone


def _gauge_values(handle, Y) -> np.ndarray:
    vals, kinds = evaluate_batch(handle, Y)
    bad = (kinds != KIND_FINITE) & (kinds != KIND_MINUS_INF)
    if bad.any():
        raise PreconditionFailed("gauge evaluation left the domain; cone rows "
                                 "do not certify the direction strictly")
    return np.where(kinds == KIND_FINITE, vals, 0.0)


def gauge_cone_shift(C: OrderCone, k, y) -> float | np.ndarray:
    """Minkowski gauge of (cone + k): positive part of the translation score.

    Requires a·k above the strict interior margin on every row of the
    cone's halfspace form. Accepts a single point or an (n, m) batch.
    """
    k = _as_vector(k, C.dim, "direction")
    ak = C.rep.normals @ k
    if not (ak > INTERIOR_MARGIN).all():
        i = int(np.argmin(ak))
        raise DirectionRejected(
            f"row {i} has a·k = {float(ak[i]):.3g} <= {INTERIOR_MARGIN:g}; "
            "the direction is not strictly interior to the negated cone"
        )
    h = make_handle(C.rep, k)
    pts = np.asarray(y, dtype=float)
    single = pts.ndim == 1
    vals = np.maximum(_gauge_values(h, pts), 0.0)
    return float(vals[0]) if single else vals


def order_unit_norm(C: OrderCone, k, y) -> float | np.ndarray:
    """Norm induced by the order interval [-k, k]_C.

    Requires a pointed cone (as far as the advisory probe can tell) and
    k strictly interior to C. Accepts a single point or an (n, m)
    batch.
    """
    k = _as_vector(k, C.dim, "order unit")
    if not C.maybe_pointed():
        raise PreconditionFailed("cone generators indicate a non-pointed cone; "
                                 "the order interval gauge would only be a seminorm")
    neg = C.negated()
    ak = neg.normals @ k
    if not (ak > INTERIOR_MARGIN).all():
        i = int(np.argmin(ak))
        raise DirectionRejected(
            f"row {i} of the negated cone has a·k = {float(ak[i]):.3g} <= "
            f"{INTERIOR_MARGIN:g}; the order unit must lie strictly inside the cone"
        )
    h = make_handle(neg, k)
    pts = np.asarray(y, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    plus = _gauge_values(h, pts)
    minus = _gauge_values(h, -pts)
    vals = np.maximum(np.maximum(plus, minus), 0.0)
    return float(vals[0]) if single else vals


def check_norm_score_identity(C: OrderCone, k, a, n_samples: int = 1000,
                               seed: int = 42) -> PropertyReport:
    """Sampled identity ||y - a||_{C,k} = score of y against reference a, on a + C.

    Samples y = a + (nonnegative combination of the cone generators);
    generators are required. A score that is not finite costs 1 + norm.
    """
    if not C.generators:
        raise InvalidInput("cone generators are required to sample a + C")
    k = _as_vector(k, C.dim, "order unit")
    a = _as_vector(a, C.dim, "reference point")
    rng = np.random.default_rng(seed)
    G = np.stack(C.generators)
    lam = rng.uniform(0.0, 5.0, size=(n_samples, G.shape[0]))
    Y = a + lam @ G
    lhs = order_unit_norm(C, k, Y - a)
    h = make_handle(Shift(C.negated(), a), k)
    rhs = _to_keys(*evaluate_batch(h, Y))
    defects = _eq_defect(lhs, rhs, mismatch=1.0 + np.abs(lhs))
    return _verdict("norm_identity_on_shifted_cone", seed, n_samples, defects, 1e-7, lambda i: {
        "inputs": {"y": Y[i].tolist(), "a": a.tolist()},
        "values": {"norm": float(lhs[i]),
                   "score": float(rhs[i]) if np.isfinite(rhs[i]) else "nonfinite"},
    })
