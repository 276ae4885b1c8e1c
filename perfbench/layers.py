"""Per-layer metrics from the spans `trace.py` recorded.

Each metric is computed per traced operation and reported as the median
over operations, so counts read per operation. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ANALYSIS_SUITES = {
    "sublevel": "analysis.check_sublevel_identity",
    "translation": "analysis.check_translation_invariance",
    "recession": "analysis.check_recession_inequality",
    "dual": "analysis.check_dual_relation",
    "convexity": "analysis.classify_convexity",
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(
        [(max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]])
        for s in spans}


class _Op:
    """Sums over the spans of one operation."""

    def __init__(self, spans: list[dict], selfs: dict[int, float], run: dict):
        self.run = run
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
        self.selfs = selfs

    def calls(self, name):
        return len(self.by_name[name])

    def s(self, name):
        return sum(s["end"] - s["start"] for s in self.by_name[name])

    def self_s(self, *names):
        return sum(self.selfs[s["id"]] for n in names for s in self.by_name[n])

    def count(self, name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in self.by_name[name])


def _op_metrics(op: _Op) -> dict[str, tuple[float, str]]:
    analysis = list(ANALYSIS_SUITES.values())
    samples = sum(op.count(n, "samples") for n in analysis)
    m = {
        "cli.main.s": (op.s("cli.main"), "s"),
        "cli.self_s": (op.self_s("cli.main"), "s"),
        "cli.stdout_bytes": (op.run["stdout_bytes"], "B"),
        "cli.out_bytes": (op.run["out_bytes"], "B"),
        "geometry.set_from_json.s": (op.s("geometry.set_from_json"), "s"),
    }
    for name in ("geometry.certify_direction", "geometry.contains_many",
                 "geometry.complement_closure", "evaluator.make_handle",
                 "evaluator.evaluate_batch", "scalarization.scalarize",
                 "scalarization.trace_front"):
        m[f"{name}.calls"] = (op.calls(name), "count")
    for name in ("geometry.certify_direction", "geometry.contains_many",
                 "geometry.complement_closure", "evaluator.make_handle",
                 "evaluator.evaluate_dual_many", "scalarization.load_points_csv"):
        m[f"{name}.s"] = (op.s(name), "s")
    for name in ("evaluator.evaluate_batch", "evaluator.contour2d", "scalarization.scalarize"):
        m[f"{name}.self_s"] = (op.self_s(name), "s")
    m.update({
        "geometry.contains_many.rows": (op.count("geometry.contains_many", "rows"), "count"),
        "geometry.complement_closure.pieces":
            (op.count("geometry.complement_closure", "pieces"), "count"),
        "evaluator.evaluate_batch.points": (op.count("evaluator.evaluate_batch", "points"), "count"),
        "evaluator.kinds.finite": (op.count("evaluator.evaluate_batch", "finite"), "count"),
        "evaluator.kinds.minus_inf": (op.count("evaluator.evaluate_batch", "minus_inf"), "count"),
        "evaluator.kinds.nu": (op.count("evaluator.evaluate_batch", "nu"), "count"),
        "evaluator.wrap_s": (op.self_s("evaluator.evaluate_many"), "s"),
        "evaluator.contour2d.cells": (op.count("evaluator.contour2d", "cells"), "count"),
        "analysis.self_s": (op.self_s(*analysis), "s"),
        "analysis.applicable_ratio":
            (sum(op.count(n, "applicable") for n in analysis) / samples if samples else 0.0,
             "ratio"),
        "scalarization.load_points_csv.rows":
            (op.count("scalarization.load_points_csv", "rows"), "count"),
    })
    for suite, name in ANALYSIS_SUITES.items():
        m[f"analysis.{suite}.s"] = (op.s(name), "s")
    return m


def per_layer(traced: dict, import_s: float, loc: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Median over traced operations of each per-operation metric, plus
    import time, source line counts and the tracing overhead."""
    spans, runs = traced["spans"], traced["runs"]
    selfs = self_times(spans)
    by_op = defaultdict(list)
    for s in spans:
        by_op[s["op"]].append(s)
    per_op = [_op_metrics(_Op(by_op[r["op"]], selfs, r)) for r in runs]
    out = {name: (statistics.median(m[name][0] for m in per_op), unit)
           for name, (_, unit) in sorted(per_op[0].items())}
    out["import_s"] = (import_s, "s")
    out.update({name: (n, "lines") for name, n in loc.items()})
    traced_s = sum(r["wall_s"] for r in runs)
    plain_s = sum(r["plain_wall_s"] for r in runs)
    out["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    return out
