"""Exact box prune of the Pareto filter.

:func:`scalarization._minimize` scores a point F_p against a reference a
by the filter value A_p = max_r (U_rp - V_ra), and needs, for each
reference, every point with A_p <= min A + reach. :class:`Boxes` finds
exactly those points while computing few of the A_p: it bounds them a box
of points at a time. The module loads on first use, so only ``pareto``
pays for it.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluator import _fit, _spans


class Boxes:
    """A cloud's filter values U, (rows, n), split into boxes of about
    POINTS_PER_BOX points, with the least value of each row over each box,
    lo (rows, G): :meth:`candidates` finds a block's candidates from them
    (see :func:`scalarization._minimize`).

    The boxes are the leaves of a k-d tree of L levels, L the least of
    log2(n / POINTS_PER_BOX), rounded, and log2(r), rounded down, for r
    references: the tree's L passes over the cloud then cost less than the
    r dense passes it saves. Below 16 boxes the prune saves too little to
    pay for the gathers of the kept points, so there is one box, and the
    filter is dense; so it is at r = 1. Every box but the last is width =
    ceil(n / 2**L) positions of order wide, and the last holds the rest, so
    G = ceil(n / width): 125 boxes of 16 points for 2000 points. A node of
    level l < L is then width << (L - l) positions wide, the last one no
    wider, and splits after its first width << (L - l - 1) positions on
    row l of U, the rows in turn: one ``np.argpartition`` over each block
    of nodes that :func:`_spans` gives, and one for the last node, so a
    level costs O(n) and holds at most a block, or one node. U is permuted
    in place into the order of the boxes, so the caller's array must not be
    used again.
    """

    POINTS_PER_BOX = 16

    def __init__(self, U: np.ndarray, r: int):
        q, n = U.shape
        levels = min(round(math.log2(n / self.POINTS_PER_BOX)), r.bit_length() - 1)
        levels = levels if levels >= 4 else 0
        width = -(-n // 2**levels)
        # the first split, of the whole cloud, needs no gather
        order = np.argpartition(U[0], width << (levels - 1)) if levels else np.arange(n)
        for level in range(1, levels):
            node, key = width << (levels - level), U[level % q]
            for a, b in _spans(n // node, node):
                seg = order[a * node:b * node].reshape(b - a, node)
                seg[:] = np.take_along_axis(
                    seg, np.argpartition(key[seg], node >> 1, axis=1), axis=1)
            seg = order[n // node * node:]
            if len(seg) > node >> 1:
                seg[:] = seg[np.argpartition(key[seg], node >> 1)]
        for row in U:
            row[:] = row[order]
        self.U, self.order = U, order
        self.starts = np.arange(0, n, width)
        self.size = np.diff(self.starts, append=n)
        self.lo = np.minimum.reduceat(U, self.starts, axis=1)
        #: floats a reference takes in a block: its box bounds, then its
        #: lowest box's filter values
        self.floats = len(self.size) + width

    def candidates(self, V: np.ndarray, reach: float):
        """The candidates against the references of V, (rows, B), as arrays of
        flat indices reference * n + point, each of them the candidates of
        whole consecutive references, in order: bit for bit the points with
        A_p <= min A + reach (with the margin of :func:`_threshold`), where
        A_p = max_r (U_rp - V_ra), as the dense filter finds them. The kept
        boxes' points go in chunks of whole references of at most the block
        budget's points, or one reference's if that is more; a chunk that
        keeps every box is scored dense. The upper bound ub scores the
        points of each reference's lowest box, which are scored again if
        kept, because a bound from the boxes' max corners,
        max_r (hi_rg - V_ra), keeps so many more boxes that a reference
        scores about three times the filter values."""
        n, B, G = self.U.shape[1], V.shape[1], len(self.size)
        if G > 1:
            LB = self._values(self.lo, V)
            least = LB.argmin(axis=1)
            ref, pos, first = self._points(np.arange(B), least)
            ub = np.minimum.reduceat(self._values_at(ref, pos, V), first)
            lb = LB[np.arange(B), least]
            cut = ub + reach + 2.0**-48 * (np.maximum(np.abs(ub), np.abs(lb)) + reach)
            pair_ref, pair_box = np.nonzero(LB <= cut[:, None])
            del LB
        else:
            pair_ref, pair_box = np.arange(B), np.zeros(B, dtype=int)
        # reference a keeps the boxes pair_box[first[a]:first[a + 1]], its
        # lowest one at least, and before[a] points precede theirs
        first = np.searchsorted(pair_ref, np.arange(B + 1))
        before = np.append(0, np.cumsum(self.size[pair_box]))[first]
        a = 0
        while a < B:
            b = max(a + 1, int(np.searchsorted(before, before[a] + _fit(1), "right")) - 1)
            if first[b] - first[a] == (b - a) * G:
                A = self._values(self.U, V[:, a:b])
                low = A.min(axis=1)
                ref, pos = np.divmod(np.flatnonzero(A <= _threshold(low, reach)[:, None]), n)
                ref += a
            else:
                ref, pos, _ = self._points(pair_ref[first[a]:first[b]], pair_box[first[a]:first[b]])
                A = self._values_at(ref, pos, V)
                low = np.minimum.reduceat(A, before[a:b] - before[a])
                hit = A <= _threshold(low, reach)[ref - a]
                ref, pos = ref[hit], pos[hit]
            yield np.sort(ref * n + self.order[pos])
            a = b

    @staticmethod
    def _values(U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The (B, n) filter values max_r (U_rp - V_ra)."""
        A = np.subtract(U[0], V[0][:, None])
        T = np.empty_like(A)
        for u, v in zip(U[1:], V[1:]):
            np.maximum(A, np.subtract(u, v[:, None], out=T), out=A)
        return A

    def _values_at(self, ref: np.ndarray, pos: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The filter values of the (reference, position) pairs."""
        A = self.U[0][pos] - V[0][ref]
        for u, v in zip(self.U[1:], V[1:]):
            np.maximum(A, u[pos] - v[ref], out=A)
        return A

    def _points(self, refs: np.ndarray, boxes: np.ndarray):
        """The (reference, position) pairs of the points of each box paired
        with a reference, and where each box's pairs start."""
        size = self.size[boxes]
        first = np.cumsum(size) - size
        pos = np.arange(first[-1] + size[-1]) + np.repeat(self.starts[boxes] - first, size)
        return np.repeat(refs, size), pos, first


def _threshold(low: np.ndarray, reach: float) -> np.ndarray:
    """The candidates' threshold above each least filter value."""
    return low + reach + 2.0**-50 * (np.abs(low) + reach)
