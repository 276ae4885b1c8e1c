"""Command-line interface.

Subcommands: eval, contour, check, separate, pareto, norm. Exit codes:
0 success (all checks Hold or are Inapplicable, cloud disjoint), 1 a
property was Violated or the cloud is not disjoint, 2 invalid input or
configuration. The ULSET_TMAX environment variable overrides the
bracketing horizon t_max of every handle the CLI builds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, norms, scalarization
from .errors import InvalidInput, UlsetError
from .evaluator import (
    DEFAULT_T_MAX,
    DEFAULT_TOL,
    ExtReal,
    Strategy,
    contour2d,
    evaluate_many,
    make_handle,
)
from .geometry import recession_cone, set_from_json
from .scalarization import OrderCone, load_points_csv

CHECK_SUITES = ("sublevel", "translation", "recession", "dual", "convexity")


def format_value(v: ExtReal) -> str:
    if v.is_finite:
        return repr(v.value)
    return "-inf" if v.is_minus_inf else "nu"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UlsetError(f"cannot parse vector {text!r}: {exc}") from exc


def _load_config(path: str, k_flag: str | None):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise UlsetError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UlsetError(f"config {path} is not valid JSON: {exc}") from exc
    s = set_from_json(doc)
    if k_flag is not None:
        k = _parse_vector(k_flag)
    elif "k" in doc:
        k = np.asarray(doc["k"], dtype=float)
    else:
        raise UlsetError("no direction given: pass --k or put \"k\" in the config")
    t_max = float(doc.get("t_max", DEFAULT_T_MAX))
    env = os.environ.get("ULSET_TMAX")
    if env is not None:
        t_max = float(env)
    return make_handle(
        s,
        k,
        strategy=doc.get("strategy") or Strategy.CLOSED_FORM,
        t_max=t_max,
        tol=float(doc.get("tol", DEFAULT_TOL)),
    )


def _cmd_eval(args) -> int:
    h = _load_config(args.config, args.k)
    if args.point:
        pts = np.stack([_parse_vector(p) for p in args.point])
    elif args.points:
        pts = load_points_csv(args.points).points
    else:
        raise UlsetError("pass --point or --points")
    for i, v in enumerate(evaluate_many(h, pts)):
        print(f"{i},{format_value(v)}")
    return 0


def _cmd_contour(args) -> int:
    h = _load_config(args.config, args.k)
    bbox = _parse_vector(args.bbox)
    if bbox.shape[0] != 4:
        raise UlsetError("--bbox needs x0,y0,x1,y1")
    polylines = contour2d(h, args.level, tuple(bbox), args.grid)
    lines = ["polyline_id,x,y"]
    for pid, poly in enumerate(polylines):
        for x, y in poly:
            lines.append(f"{pid},{float(x)!r},{float(y)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_suite(h, name: str, samples: int, seed: int) -> list[analysis.PropertyReport]:
    if name == "sublevel":
        return [analysis.check_sublevel_identity(h, samples, seed)]
    if name == "translation":
        return [analysis.check_translation_invariance(h, samples, seed)]
    if name == "recession":
        h_rec = make_handle(recession_cone(h.set).to_polyhedron(), h.direction.k,
                            t_max=h.t_max, tol=h.tol)
        return [analysis.check_recession_inequality(h, h_rec, samples, seed)]
    if name == "dual":
        return [analysis.check_dual_relation(h, samples, seed)]
    if name == "convexity":
        flags = analysis.classify_convexity(h, samples, seed)
        return [flags[key] for key in ("convex", "positively_homogeneous",
                                       "subadditive", "sublinear")]
    raise UlsetError(f"unknown suite {name!r}; choose from {', '.join(CHECK_SUITES)} or all")


def _cmd_check(args) -> int:
    h = _load_config(args.config, args.k)
    names = CHECK_SUITES if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        reports.extend(_run_suite(h, name, args.samples, args.seed))
    for r in reports:
        print(r.to_json_line())
    return 1 if any(r.verdict == analysis.VIOLATED for r in reports) else 0


def _cmd_separate(args) -> int:
    h = _load_config(args.config, args.k)
    cloud = load_points_csv(args.points)
    verdict = analysis.separate(h, cloud, mode=args.mode)
    doc = {
        "disjoint": verdict.disjoint,
        "mode": verdict.mode,
        "offending": [
            {"index": i, "point": p.tolist(), "value": format_value(v)}
            for i, p, v in zip(verdict.offending_indices, verdict.offending_points,
                               verdict.offending_values)
        ],
    }
    print(json.dumps(doc, sort_keys=True))
    return 0 if verdict.disjoint else 1


def _load_cone(args, dim: int) -> OrderCone:
    if args.cone_file:
        try:
            with open(args.cone_file) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise UlsetError(f"cannot read cone file: {exc}") from exc
        from .geometry import HalfSpace, Polyhedron

        try:
            rows = tuple(HalfSpace(h["a"], h.get("b", 0.0)) for h in doc["halfspaces"])
        except (KeyError, TypeError) as exc:
            raise InvalidInput("cone file needs 'halfspaces': a list of rows "
                               f"{{\"a\": [...], \"b\": ...}} ({exc!r})") from exc
        gens = tuple(np.asarray(g, dtype=float) for g in doc.get("generators", [])) or None
        return OrderCone(Polyhedron(rows), generators=gens)
    if args.cone == "nonneg":
        return OrderCone.nonneg(dim)
    raise UlsetError(f"unknown cone {args.cone!r}; use nonneg or --cone-file")


def _cmd_pareto(args) -> int:
    cloud = load_points_csv(args.points)
    cone = _load_cone(args, cloud.dim)
    k = _parse_vector(args.k)
    refs = load_points_csv(args.refs).points if args.refs else cloud.points
    lines = ["ref_index,point_index,value"]
    for r, a in enumerate(refs):
        arg, val = scalarization.scalarize(cloud, cone, k, a)
        for i in arg:
            lines.append(f"{r},{i},{format_value(val)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_norm(args) -> int:
    point = _parse_vector(args.point)
    cone = _load_cone(args, point.shape[0])
    k = _parse_vector(args.k)
    if args.mode == "unit":
        val = norms.order_unit_norm(cone, k, point)
    else:
        val = norms.gauge_cone_shift(cone, k, point)
    print(repr(float(val)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ulset", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the functional at points")
    pe.add_argument("config")
    pe.add_argument("--point", action="append", help="comma-separated coordinates; repeatable")
    pe.add_argument("--points", help="CSV of points, one per row")
    pe.add_argument("--k", help="direction override, comma-separated")
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("contour", help="marching-squares level set to CSV")
    pc.add_argument("config")
    pc.add_argument("--level", type=float, required=True)
    pc.add_argument("--bbox", required=True, help="x0,y0,x1,y1")
    pc.add_argument("--grid", type=int, default=101)
    pc.add_argument("--out", help="output CSV path (default stdout)")
    pc.add_argument("--k")
    pc.set_defaults(func=_cmd_contour)

    pk = sub.add_parser("check", help="run property suites, one JSON report per line")
    pk.add_argument("config")
    pk.add_argument("--suite", default="all", help="|".join(CHECK_SUITES) + "|all")
    pk.add_argument("--samples", type=int, default=1000)
    pk.add_argument("--seed", type=int, default=42)
    pk.add_argument("--k")
    pk.set_defaults(func=_cmd_check)

    ps = sub.add_parser("separate", help="disjointness verdict for a point cloud")
    ps.add_argument("config")
    ps.add_argument("--points", required=True)
    ps.add_argument("--mode", choices=("closed", "interior"), default="closed")
    ps.add_argument("--k")
    ps.set_defaults(func=_cmd_separate)

    pp = sub.add_parser("pareto", help="reference-point scalarization over a cloud")
    pp.add_argument("--points", required=True)
    pp.add_argument("--cone", default="nonneg")
    pp.add_argument("--cone-file")
    pp.add_argument("--k", required=True)
    pp.add_argument("--refs", help="CSV of reference points (default: the cloud itself)")
    pp.add_argument("--out")
    pp.set_defaults(func=_cmd_pareto)

    pn = sub.add_parser("norm", help="order-unit norm or shifted-cone gauge of a point")
    pn.add_argument("--cone", default="nonneg")
    pn.add_argument("--cone-file")
    pn.add_argument("--k", required=True)
    pn.add_argument("--point", required=True)
    pn.add_argument("--mode", choices=("unit", "gauge"), default="unit")
    pn.set_defaults(func=_cmd_norm)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UlsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
