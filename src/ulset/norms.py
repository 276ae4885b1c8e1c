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

from . import analysis
from .errors import DirectionRejected, InvalidInput, PreconditionFailed
from .evaluator import make_handle, _keys
from .geometry import AK_POSITIVE_MIN, Shift, _as_vector, _rows_at
from .scalarization import OrderCone


def _gauge_values(handle, Y) -> np.ndarray:
    """Lattice keys of the handle at Y, which callers clip at 0; nu is refused."""
    keys = _keys(handle, Y)
    if (keys == np.inf).any():
        raise PreconditionFailed("gauge evaluation left the domain; cone rows "
                                 "do not certify the direction strictly")
    return keys


def gauge_cone_shift(C: OrderCone, k, y) -> float | np.ndarray:
    """Minkowski gauge of (cone + k): positive part of the translation score.

    Requires an interior certificate, a·k > AK_POSITIVE_MIN on every row
    of the cone's halfspace form. Accepts a single point or an (n, m) batch.
    """
    h = make_handle(C.rep, k)
    if not h.interior:
        raise DirectionRejected(f"some cone row has a·k <= {AK_POSITIVE_MIN:g}; "
                                "the direction is not strictly interior to the negated cone")
    pts = np.asarray(y, dtype=float)
    single = pts.ndim == 1
    vals = np.maximum(_gauge_values(h, pts), 0.0)
    return float(vals[0]) if single else vals


def _order_unit_handle(C: OrderCone, k):
    """Handle on -C along the order unit k, whose values give the norm of
    [-k, k]_C; refuses a cone that is not pointed and a k that is not
    strictly inside C."""
    k = _as_vector(k, C.dim, "order unit")
    if not C.maybe_pointed():
        raise PreconditionFailed("order cone is not pointed: its rows have rank below its "
                                 "dimension; the order interval gauge would only be a seminorm")
    h = make_handle(C.negated(), k)
    if not h.interior:
        raise DirectionRejected(f"some row of the negated cone has a·k <= {AK_POSITIVE_MIN:g}; "
                                "the order unit must lie strictly inside the cone")
    return h


def _order_unit_values(h, pts: np.ndarray) -> np.ndarray:
    """The norm at each row of pts, h from :func:`_order_unit_handle`."""
    return np.maximum(np.maximum(_gauge_values(h, pts), _gauge_values(h, -pts)), 0.0)


def order_unit_norm(C: OrderCone, k, y) -> float | np.ndarray:
    """Norm induced by the order interval [-k, k]_C.

    Requires a pointed cone (:meth:`OrderCone.maybe_pointed`) and k
    strictly interior to C. Accepts a single point or an (n, m) batch.
    """
    h = _order_unit_handle(C, k)
    pts = np.asarray(y, dtype=float)
    single = pts.ndim == 1
    vals = _order_unit_values(h, pts[None, :] if single else pts)
    return float(vals[0]) if single else vals


def check_norm_score_identity(C: OrderCone, k, a, n_samples: int = 1000,
                               seed: int = 42) -> analysis.PropertyReport:
    """Sampled identity ||y - a||_{C,k} = score of y against reference a, on a + C.

    Samples y = a + (nonnegative combination of the cone generators);
    generators are required. A score that is not finite costs 1 + norm.
    The combinations are drawn, and the identity reduced, block by block,
    by the check helpers of :mod:`analysis`, whose code runs only once a
    check does.
    """
    analysis._sample_count(n_samples)
    if not C.generators:
        raise InvalidInput("cone generators are required to sample a + C")
    k = _as_vector(k, C.dim, "order unit")
    a = _as_vector(a, C.dim, "reference point")
    norm = _order_unit_handle(C, k)
    score = make_handle(Shift(C.negated(), a), k)
    rng = np.random.default_rng(seed)
    G = np.stack(C.generators)
    worst = analysis._Worst(1e-7)
    for lo, hi in analysis._blocks(score, n_samples, len(G)):
        Y = a + _rows_at(rng.uniform(0.0, 5.0, size=(hi - lo, len(G))), G)
        lhs = _order_unit_values(norm, Y - a)
        rhs = _keys(score, Y)
        worst.add(analysis._eq_defect(lhs, rhs, mismatch=1.0 + np.abs(lhs)), lambda i: {
            "inputs": {"y": Y[i].tolist(), "a": a.tolist()},
            "values": {"norm": float(lhs[i]), "score": analysis._ext_json(rhs[i])},
        })
    return analysis._verdict("norm_identity_on_shifted_cone", seed, n_samples, worst)
