"""Traced in-process run of `ulset` CLI operations, for per-layer numbers.

    python3 perfbench/trace.py PLAN.json

`run.py --trace 1` starts this in a process of its own; operations that
are timed end to end never run here. The plan lists the operations (CLI
argument lists), how long to run, an output directory and the spans
file. Each operation runs twice through `ulset.cli.main`, first untraced
and then traced, until the time is up (at least two operations); the
sha256 of both runs' stdout and --out file is recorded. Spans
stay in memory and are written once, at the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import ulset
from ulset import cli


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _batch(args, kwargs, result):
    counts = np.bincount(result[1], minlength=3)
    return {"points": int(counts.sum()), "finite": int(counts[0]),
            "minus_inf": int(counts[1]), "nu": int(counts[2])}


def _pieces(args, kwargs, result):
    return {"pieces": len(getattr(result, "members", ()))}


def _cells(args, kwargs, result):
    grid_n = args[3] if len(args) > 3 else kwargs["grid_n"]
    return {"cells": (int(grid_n) - 1) ** 2}


def _reports(args, kwargs, result):
    reports = list(result.values()) if isinstance(result, dict) else [result]
    return {"applicable": sum(r.applicable for r in reports),
            "samples": sum(r.samples for r in reports)}


#: Layer boundaries: the public functions whose calls become spans, each
#: with a counter of the work a call did. Private helpers are not wrapped;
#: their time is the self time of the function that calls them.
LAYERS = {
    "cli.main": None,
    "geometry.set_from_json": None,
    "geometry.certify_direction": None,
    "geometry.contains_many": _rows,
    "geometry.complement_closure": _pieces,
    "evaluator.make_handle": None,
    "evaluator.evaluate_batch": _batch,
    "evaluator.evaluate_many": None,
    "evaluator.evaluate_dual_many": None,
    "evaluator.contour2d": _cells,
    "analysis.check_sublevel_identity": _reports,
    "analysis.check_translation_invariance": _reports,
    "analysis.check_recession_inequality": _reports,
    "analysis.check_dual_relation": _reports,
    "analysis.classify_convexity": _reports,
    "scalarization.load_points_csv": _rows,
    "scalarization.scalarize": None,
    "scalarization.trace_front": None,
}


class Recorder:
    """Spans of the operation in progress: name, start, end, parent, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        def span(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "op": self.op,
                   "parent": self.stack[-1] if self.stack else None}
            self.spans.append(rec)
            self.stack.append(sid)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
            if counter:
                rec["counts"] = counter(args, kwargs, result)
            return result
        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap each layer function on every ulset module that binds it,
        since modules import each other's names directly."""
        modules = [m for n, m in sys.modules.items() if n == "ulset" or n.startswith("ulset.")]
        for name, counter in LAYERS.items():
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"ulset.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()


def _out_path(argv: list[str]):
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def _sha256(path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path and path.exists() else None


def run_op(argv: list[str], stdout_path: Path) -> dict:
    """One in-process CLI call with stdout sent to a file. A --out file
    left by an earlier call is removed first, so that its hash is of this
    call's output."""
    out = _out_path(argv)
    if out:
        out.unlink(missing_ok=True)
    error = ""
    with open(stdout_path, "w") as f, contextlib.redirect_stdout(f):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": code, "error": error,
            "sha256": _sha256(stdout_path), "out_sha256": _sha256(out),
            "stdout_bytes": stdout_path.stat().st_size,
            "out_bytes": out.stat().st_size if out and out.exists() else 0}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    out_dir = Path(plan["dir"])
    recorder = Recorder()
    runs = []
    start = time.perf_counter()
    for i, argv in enumerate(plan["ops"]):
        if i >= 2 and time.perf_counter() - start >= plan["seconds"]:
            break
        plain = run_op(argv, out_dir / f"plain{i}.out")
        recorder.op = i
        with recorder.installed():
            traced = run_op(argv, out_dir / f"traced{i}.out")
        runs.append({"op": i, **traced, "stdout": str(out_dir / f"traced{i}.out"),
                     "plain_wall_s": plain["wall_s"], "plain_exit": plain["exit"],
                     "plain_sha256": plain["sha256"], "plain_out_sha256": plain["out_sha256"]})
    Path(plan["spans"]).write_text(json.dumps({"ulset": ulset.__file__, "runs": runs,
                                               "spans": recorder.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
