"""Independent reference maths the benchmark checks the program against.

Nothing here imports the program. Sets are the JSON documents the
generators write: polyhedra, unions and intersections of them. Every
row either moves along k (a·k clearly positive) or is static
(a·k == 0 exactly), so each polyhedron's feasible t is an up-ray, a
whole line or empty, and the lattice rules below are exact.
"""

from __future__ import annotations

import numpy as np

#: Kind codes, and their names as the CLI prints them in order.
FINITE, MINUS_INF, NU = 0, 1, 2
KIND_NAMES = ("finite", "-inf", "nu")

#: Absolute slack on a·y - b, the program's default membership tolerance.
EPS = 1e-9


def _rows(node):
    a = np.array([h["a"] for h in node["halfspaces"]], dtype=float)
    b = np.array([h["b"] for h in node["halfspaces"]], dtype=float)
    return a, b


def contains(node, Y: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Membership of each row of Y in a polyhedron/union/intersection node."""
    kind = node["type"]
    if kind == "polyhedron":
        a, b = _rows(node)
        return (Y @ a.T <= b + eps).all(axis=1)
    parts = [contains(m, Y, eps) for m in node["members"]]
    if kind == "union":
        return np.logical_or.reduce(parts)
    if kind == "intersection":
        return np.logical_and.reduce(parts)
    raise ValueError(f"reference does not cover node type {kind!r}")


def phi(node, k: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact phi on the lattice: (values, kind codes).

    A polyhedron is nu where a static row fails, -inf where it has no
    moving row, else the max of (a·y - b)/(a·k) over moving rows. A union
    is the min of its members (-inf wins, nu loses); an intersection is
    the max (nu wins, -inf only if every member is -inf).
    """
    kind = node["type"]
    n = Y.shape[0]
    if kind == "polyhedron":
        a, b = _rows(node)
        ak = a @ k
        g = Y @ a.T - b
        moving = ak > 0
        vals = (g[:, moving] / ak[moving]).max(axis=1) if moving.any() else np.zeros(n)
        kinds = np.full(n, FINITE if moving.any() else MINUS_INF, dtype=np.int8)
        kinds[(g[:, ~moving] > EPS).any(axis=1)] = NU
        return np.where(kinds == FINITE, vals, 0.0), kinds
    parts = [phi(m, k, Y) for m in node["members"]]
    V = np.stack([v for v, _ in parts])
    K = np.stack([kd for _, kd in parts])
    fin = K == FINITE
    if kind == "union":
        vals = np.where(fin, V, np.inf).min(axis=0)
        kinds = np.where((K == MINUS_INF).any(axis=0), MINUS_INF,
                         np.where(fin.any(axis=0), FINITE, NU))
    elif kind == "intersection":
        vals = np.where(fin, V, -np.inf).max(axis=0)
        kinds = np.where((K == NU).any(axis=0), NU,
                         np.where(fin.any(axis=0), FINITE, MINUS_INF))
    else:
        raise ValueError(f"reference does not cover node type {kind!r}")
    return np.where(kinds == FINITE, vals, 0.0), kinds.astype(np.int8)


def static_slack(node, k: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Distance |a·y - b| of each row of Y to the nearest static boundary."""
    if node["type"] == "polyhedron":
        a, b = _rows(node)
        static = a @ k == 0
        if not static.any():
            return np.full(Y.shape[0], np.inf)
        return np.abs(Y @ a[static].T - b[static]).min(axis=1)
    return np.min([static_slack(m, k, Y) for m in node["members"]], axis=0)


def bracket_ok(node, k: np.ndarray, Y: np.ndarray, vals: np.ndarray, kinds: np.ndarray,
               horizon: float = 1e3) -> np.ndarray:
    """Membership bracket around reported values, one bool per row.

    A finite value v must have y - (v + d)k inside the set and
    y - (v - d)k outside, with d = 1e-6 (1 + |v|). A -inf must stay
    inside at t = -horizon; a nu must stay outside at t = +horizon.
    """
    fin = kinds == FINITE
    d = 1e-6 * (1.0 + np.abs(vals))
    t_in = np.where(fin, vals + d, np.where(kinds == MINUS_INF, -horizon, np.nan))
    t_out = np.where(fin, vals - d, np.where(kinds == NU, horizon, np.nan))
    ok = np.ones(Y.shape[0], dtype=bool)
    rows = ~np.isnan(t_in)
    ok[rows] &= contains(node, Y[rows] - t_in[rows, None] * k)
    rows = ~np.isnan(t_out)
    ok[rows] &= ~contains(node, Y[rows] - t_out[rows, None] * k)
    return ok


def weakly_efficient(P: np.ndarray, margin: float = 1e-9) -> set[int]:
    """Indices no other point beats by more than margin in every coordinate."""
    out = set()
    for i in range(P.shape[0]):
        if not (P < P[i] - margin).all(axis=1).any():
            out.add(i)
    return out


def ref_point_scores(P: np.ndarray, k: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Scores max_i (y_i - a_i) / k_i of every point against reference a."""
    return ((P - a) / k).max(axis=1)
