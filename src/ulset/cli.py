"""Command-line interface.

Subcommands: eval, contour, check, separate, pareto, norm. Exit codes:
0 success (all checks Hold or are Inapplicable, cloud disjoint), 1 a
property was Violated or the cloud is not disjoint, 2 invalid input or
configuration, or memory ran out.

Every table (eval, contour, pareto) is written in blocks of lines, after the
whole computation, so a command that fails writes none of it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import sys
import warnings

import numpy as np

from . import analysis, norms, scalarization
from .errors import UlsetError
from .evaluator import (
    DEFAULT_T_MAX,
    DEFAULT_TOL,
    Strategy,
    contour2d,
    key_text,
    make_handle,
    _keys,
    _spans,
    _LINE_FLOATS,
)
from .geometry import (Polyhedron, set_from_json, _CONE_FILE, _CONFIG, _field, _invalid, _list,
                       _number, _rows, _vector)

CHECK_SUITES = ("sublevel", "translation", "recession", "dual", "convexity")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UlsetError(f"cannot parse vector {text!r}: {exc}") from exc


def _read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise UlsetError(f"cannot read {path}: {exc}") from exc


def _load_config(path: str, k_flag: str | None):
    doc = _read_json(path)
    s = set_from_json(doc)
    if k_flag is None and "k" not in doc:
        raise UlsetError("no direction given: pass --k or put \"k\" in the config")
    k = _parse_vector(k_flag) if k_flag is not None else _vector(*_field(doc, _CONFIG, "k"), s.dim)
    t_max, at = _field(doc, _CONFIG, "t_max", DEFAULT_T_MAX)
    t_max = _number(t_max, at)
    if not t_max > 0:
        raise _invalid(at, f"expected a positive number, got {t_max!r}")
    strategy, at = _field(doc, _CONFIG, "strategy", Strategy.CLOSED_FORM)
    if strategy not in (None, *Strategy):
        raise _invalid(at, f"expected null or one of {', '.join(Strategy)}, got {strategy!r}")
    return make_handle(s, k, strategy=strategy or Strategy.CLOSED_FORM, t_max=t_max,
                       tol=_number(*_field(doc, _CONFIG, "tol", DEFAULT_TOL)))


def _write_table(lines, path: str | None) -> None:
    """Write the lines, each ending in a newline, to the file at path or to
    stdout, one write per block of lines :func:`_spans` gives for lines of
    _LINE_FLOATS floats, so the table never sits in memory as one string."""
    lines = iter(lines)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as f:
        for a, b in _spans(sys.maxsize, _LINE_FLOATS):
            if not (block := "".join(itertools.islice(lines, b - a))):
                return
            f.write(block)


def _read_points(path: str) -> np.ndarray:
    """The points of the CSV file at path as one (n, m) array; no label is read."""
    return scalarization._read_points_csv(path, lambda chunks: np.concatenate(list(chunks)))


def _stack_points(texts: list[str]) -> np.ndarray:
    pts = [_parse_vector(t) for t in texts]
    for p in pts[1:]:
        if p.shape != pts[0].shape:
            raise UlsetError(f"--point values differ in dimension: {pts[0].shape[0]} and "
                             f"{p.shape[0]}")
    return np.stack(pts)


def _cmd_eval(args) -> int:
    h = _load_config(args.config, args.k)
    if args.point and args.points:
        raise UlsetError("pass --point or --points, not both")
    if args.point:
        parts = [_keys(h, _stack_points(args.point))]
    elif args.points:
        parts = scalarization._read_points_csv(
            args.points, lambda chunks: [_keys(h, pts) for pts in chunks])
    else:
        raise UlsetError("pass --point or --points")
    keys = enumerate(itertools.chain.from_iterable(map(np.ndarray.tolist, parts)))
    _write_table((f"{i},{key_text(v)}\n" for i, v in keys), None)
    return 0


def _cmd_contour(args) -> int:
    h = _load_config(args.config, args.k)
    bbox = _parse_vector(args.bbox)
    if bbox.shape[0] != 4:
        raise UlsetError("--bbox needs x0,y0,x1,y1")
    segments = contour2d(h, args.level, tuple(bbox), args.grid)
    # every polyline is one two-point segment, so point r belongs to polyline r // 2
    ends = enumerate(itertools.chain.from_iterable(map(np.ndarray.tolist, segments)))
    _write_table(itertools.chain(["polyline_id,x,y\n"], (
        f"{r // 2},{x!r},{y!r}\n" for r, (x, y) in ends)), args.out)
    return 0


def _run_suite(h, name: str, samples: int, seed: int) -> list[analysis.PropertyReport]:
    if name == "sublevel":
        return [analysis.check_sublevel_identity(h, samples, seed)]
    if name == "translation":
        return [analysis.check_translation_invariance(h, samples, seed)]
    if name == "recession":
        return [analysis.check_recession_inequality(h, samples, seed)]
    if name == "dual":
        return [analysis.check_dual_relation(h, samples, seed)]
    if name == "convexity":
        flags = analysis.classify_convexity(h, samples, seed)
        return [flags[key] for key in ("convex", "positively_homogeneous",
                                       "subadditive", "sublinear")]
    raise UlsetError(f"unknown suite {name!r}; choose from {', '.join(CHECK_SUITES)} or all")


def _cmd_check(args) -> int:
    names = CHECK_SUITES if args.suite == "all" else (args.suite,)
    if args.seed < 0:
        raise UlsetError(f"--seed must be a non-negative integer, got {args.seed}")
    analysis._sample_count(args.samples)
    if "convexity" in names and args.samples > analysis.MAX_SAMPLES // 2:
        raise UlsetError(f"--samples must be at most {analysis.MAX_SAMPLES // 2} for the "
                         f"convexity suite, which draws two points per sample; got {args.samples}")
    h = _load_config(args.config, args.k)
    reports = []
    for name in names:
        reports.extend(_run_suite(h, name, args.samples, args.seed))
    for r in reports:
        print(r.to_json_line())
    return 1 if any(r.verdict == analysis.VIOLATED for r in reports) else 0


def _cmd_separate(args) -> int:
    h = _load_config(args.config, args.k)
    verdict = analysis.separate(h, _read_points(args.points), mode=args.mode)
    doc = {
        "disjoint": verdict.disjoint,
        "mode": verdict.mode,
        "offending": [
            {"index": i, "point": p.tolist(), "value": str(v)}
            for i, p, v in zip(verdict.offending_indices, verdict.offending_points,
                               verdict.offending_values)
        ],
    }
    print(json.dumps(doc, sort_keys=True))
    return 0 if verdict.disjoint else 1


def _load_cone(args, dim: int) -> scalarization.OrderCone:
    if args.cone_file:
        doc = _read_json(args.cone_file)
        rows = _rows(*_field(doc, _CONE_FILE, "halfspaces"), dim, 0.0)
        gens = [_vector(g, p, dim) for g, p in _list(*_field(doc, _CONE_FILE, "generators", []))]
        return scalarization.OrderCone(Polyhedron(rows), generators=tuple(gens) or None)
    if args.cone == "nonneg":
        return scalarization.OrderCone.nonneg(dim)
    raise UlsetError(f"unknown cone {args.cone!r}; use nonneg or --cone-file")


def _cmd_pareto(args) -> int:
    # _minimize copies an array into a PointCloud; made here, the array read is freed
    cloud = scalarization.PointCloud(_read_points(args.points))
    cone = _load_cone(args, cloud.dim)
    k = _parse_vector(args.k)
    refs = _read_points(args.refs) if args.refs else cloud.points
    minima = enumerate((arg, key_text(key))
                       for arg, key in scalarization._minimize(cloud, cone, k, refs))
    _write_table(itertools.chain(["ref_index,point_index,value\n"], (
        f"{r},{i},{text}\n" for r, (arg, text) in minima for i in arg)), args.out)
    return 0


def _cmd_norm(args) -> int:
    point = _parse_vector(args.point)
    cone = _load_cone(args, point.shape[0])
    norm = norms.order_unit_norm if args.mode == "unit" else norms.gauge_cone_shift
    print(repr(float(norm(cone, _parse_vector(args.k), point))))
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
    """Run the command line argv, or sys.argv[1:] where argv is None, and
    return the exit code.

    With argv None, main owns the process (the console script, ``python
    -m ulset.cli``), so it freezes the garbage collector once the imports
    are done: no collection, those at exit included, rescans the objects
    they made. A caller that passes argv, and every library caller, keeps
    its collector as it is.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a value that overflows, or the nan of inf - inf it leads to, is
        # reported as InvalidInput where it is found; numpy's warning would
        # add lines to the one-line error. The command's own warnings are
        # recorded, and printed one line each only if it does not fail.
        with np.errstate(over="ignore", invalid="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
    except (UlsetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
