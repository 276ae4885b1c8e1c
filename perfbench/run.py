"""End-to-end and per-layer benchmark of the `ulset` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cloud_eval --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

A closed loop with one client: each operation is one `ulset` process,
spawned with the workload's generated inputs and waited for before the
next one starts. `--trace 0` times those processes and reports the
end-to-end metrics; `--trace 1` instead runs the same operations
in-process under `trace.py`, in a process of its own, and reports the
per-layer metrics. Inputs come from `--seed` alone and are written under
`perfbench/out/`, with a JSON record of the run. Every output is checked
against `reference.py`; the last stdout line is the JSON result.

End-to-end metrics, each a median over the run:
  op_s         wall time of one operation, spawn to exit, in
               reference-scaled seconds (below); printed as eval_s,
               contour_s, check_s or pareto_s after the workload's command
  setup_s      the same for the command on its smallest input
  peak_rss_mb  highest peak RSS of any child (max, not median)
Raw wall-time and CPU-time medians, error_rate and the highest
percentile with ten samples beyond it are printed and recorded next to
them.

Reference-scaled seconds: on a shared 2-core virtual machine, host
contention changes the speed of every process by up to 2x within
seconds, and the child's CPU time from wait4 moves with it as much as
its wall time does. A fixed pure-Python calibration loop runs just
before and just after each operation on the same CPU, and the wall time
is scaled by CAL_REF_S over the mean of the two: the seconds the
operation would take on a machine where the loop takes CAL_REF_S. Over
ten runs this cut the quartile spread of run medians from 6-38% (wall
and CPU time alike) to 4-11% there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up operations per run; setup_s is their median.
SETUP_REPS = 7
#: A timed run makes at least this many operations, however long they take.
MIN_OPS = 3
#: An operation still running after this many seconds is killed and fails.
OP_TIMEOUT_S = 60.0
#: Fresh `import ulset` processes per traced run; import_s is their median.
IMPORT_REPS = 5
#: Operations a traced run may get through before its time is up.
MAX_TRACED_OPS = 200
#: Percentiles reported when a run has ten samples beyond them.
PERCENTILES = (50, 75, 90, 95, 99)

#: Pinned so that one child keeps to one of the two cores.
BLAS_THREADS = "1"

#: Iterations of the calibration loop, and the seconds it takes at the
#: reference speed (a typical reading on a 2-vCPU Intel Xeon virtual machine).
CAL_LOOPS = 300_000
CAL_REF_S = 0.035

#: Marks the stderr line on which a child reports its own peak RSS.
PEAK_MARK = "perfbench-vmhwm-kb:"
#: The `ulset` console script, plus an exit hook that reports the
#: process's own peak RSS. wait4's ru_maxrss is no use here: Linux carries
#: the spawning process's high-water mark through exec into the child.
CLI_MAIN = f"""
import atexit, os, sys
def peak():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    os.write(2, ("\\n{PEAK_MARK}" + kb + "\\n").encode())
atexit.register(peak)
from ulset.cli import main
sys.exit(main())
"""
#: Seconds a fresh interpreter spends in `import ulset`.
IMPORT_TIMER = ("import time; t = time.perf_counter(); import ulset; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    """The environment of every `ulset` child: this checkout's sources,
    one BLAS thread, and no ULSET_TMAX (it changes every handle's t_max)."""
    env = {k: v for k, v in os.environ.items() if k != "ULSET_TMAX"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], stdout_path: Path, env: dict) -> dict:
    """Run one process to exit: wall time from spawn to exit, CPU time from
    wait4, and the peak RSS the child reports on stderr."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    stderr, _, peak_kb = stderr.rpartition("\n" + PEAK_MARK)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": float(peak_kb) / 1024.0 if peak_kb.strip() else None,
            "exit": proc.returncode, "stderr": stderr[-2000:]}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now on this CPU."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def run_cli_op(op: wl.Op, stdout_path: Path, env: dict) -> dict:
    """One `ulset` process between two calibrations; `scaled_s` is its wall
    time at the reference speed."""
    before = calibrate()
    rec = spawn([sys.executable, "-c", CLI_MAIN, *op.argv], stdout_path, env)
    rec["cal_s"] = (before + calibrate()) / 2
    rec["scaled_s"] = rec["wall_s"] * CAL_REF_S / rec["cal_s"]
    return rec


def validate_op(rec: dict, op: wl.Op, stdout_path: Path) -> None:
    """Judge one finished operation, record the sha256 of its stdout (and
    of its --out file), then drop its outputs."""
    rec["problems"] = judge(op, rec["exit"], rec["stderr"], stdout_path)
    rec["sha256"] = hashlib.sha256(stdout_path.read_bytes()).hexdigest()
    stdout_path.unlink()
    if op.out and op.out.exists():
        rec["out_sha256"] = hashlib.sha256(op.out.read_bytes()).hexdigest()
        op.out.unlink()


def judge(op: wl.Op, code, stderr: str, stdout_path: Path) -> list[str]:
    """Problems with one operation: exit code, traceback, then its output."""
    if "Traceback" in stderr:
        return ["traceback on stderr: " + stderr.strip().splitlines()[-1]]
    if code not in op.ok_codes:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    try:
        out_text = op.out.read_text() if op.out else None
        return op.validate(stdout_path.read_text(), code, out_text)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output could not be checked: {exc!r}"]


def high_percentile(values: list[float]):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    fit = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if not fit:
        return None
    p = fit[-1]
    return p, float(np.percentile(values, p))


def loc_counts() -> dict:
    counts = {f"loc.{f.stem}": len(f.read_text().splitlines())
              for f in sorted((SRC / "ulset").glob("*.py"))}
    counts["loc.total"] = sum(counts.values())
    return counts


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "cpus": sorted(os.sched_getaffinity(0)),
            "ulset_tmax_removed": True}


@contextlib.contextmanager
def run_dir(path: Path):
    """A fresh directory for one run's inputs and outputs, removed after it."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)


# ---------------------------------------------------------------------------
# timed run (--trace 0)


def timed_run(w: wl.Workload, seed: int, seconds: float) -> dict:
    with run_dir(OUT / f"{w.name}-seed{seed}") as rundir:
        return _timed_run(w, seed, seconds, rundir)


def _timed_run(w: wl.Workload, seed: int, seconds: float, rundir: Path) -> dict:
    inputs = w.generate(rundir, seed)
    env = child_env()

    setup = []
    for i in range(SETUP_REPS):
        setup.append(run_cli_op(inputs.setup_op, rundir / "setup.out", env))
        validate_op(setup[-1], inputs.setup_op, rundir / "setup.out")

    # Outputs are validated after the loop, so that checking them takes
    # no time from the measured window.
    ops, done = [], []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = inputs.op(len(ops))
        path = rundir / f"op{len(ops)}.out"
        ops.append(run_cli_op(op, path, env))
        done.append((op, path))
    measured_s = time.perf_counter() - start
    for rec, (op, path) in zip(ops, done):
        validate_op(rec, op, path)

    walls = [r["wall_s"] for r in ops]
    metrics = {
        "op_s": (statistics.median(r["scaled_s"] for r in ops), "s"),
        "setup_s": (statistics.median(r["scaled_s"] for r in setup), "s"),
        "peak_rss_mb": (max(r["rss_mb"] or 0.0 for r in setup + ops), "MB"),
    }
    everything = setup + ops
    failed = sum(1 for r in everything if r["problems"])
    record = {
        "workload": w.name, "command": w.command, "why": w.why, "seed": seed,
        "seconds": seconds, "measured_s": measured_s, "loop": "closed, 1 client",
        "sizes": inputs.sizes, "kind_mix": inputs.kind_mix, "env": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops_n": len(ops), "setup_n": len(setup),
        "op_wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(r["wall_s"] for r in setup),
        "op_cpu_s": statistics.median(r["cpu_s"] for r in ops),
        "setup_cpu_s": statistics.median(r["cpu_s"] for r in setup),
        "cal_s": statistics.median(r["cal_s"] for r in ops),
        "error_rate": failed / len(everything),
        "percentile": high_percentile(walls),
        "ops": ops, "setup": setup,
    }
    return finish(record, rundir, len(everything), failed)


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def traced_run(w: wl.Workload, seed: int, seconds: float) -> dict:
    with run_dir(OUT / f"{w.name}-seed{seed}-trace") as rundir:
        return _traced_run(w, seed, seconds, rundir)


def _traced_run(w: wl.Workload, seed: int, seconds: float, rundir: Path) -> dict:
    inputs = w.generate(rundir, seed)
    env = child_env()

    import_s = statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPS))

    ops = [inputs.op(i) for i in range(MAX_TRACED_OPS)]
    plan = {"seconds": seconds, "dir": str(rundir),
            "ops": [op.argv for op in ops], "spans": str(rundir / "spans.json")}
    plan_path = rundir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    rec = spawn([sys.executable, str(HERE / "trace.py"), str(plan_path)],
                rundir / "trace.log", env)
    if rec["exit"] != 0:
        raise RuntimeError(f"traced run failed: {rec['stderr']}")
    traced = json.loads(Path(plan["spans"]).read_text())

    failed = 0
    for run in traced["runs"]:
        i = run["op"]
        problems = judge(ops[i], run["exit"], run.get("error", ""),
                         Path(run["stdout"]))
        if (run["plain_sha256"], run["plain_out_sha256"], run["plain_exit"]) != (
                run["sha256"], run["out_sha256"], run["exit"]):
            problems.append("untraced and traced runs of the same operation differ")
        run["problems"] = problems
        failed += bool(problems)

    metrics = layers.per_layer(traced, import_s, loc_counts())
    record = {
        "workload": w.name, "command": w.command, "why": w.why, "seed": seed,
        "seconds": seconds, "sizes": inputs.sizes, "kind_mix": inputs.kind_mix,
        "env": environment(), "traced_ops": len(traced["runs"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": traced["runs"],
    }
    attempted = 2 * len(traced["runs"])
    return finish(record, rundir, attempted, failed)


# ---------------------------------------------------------------------------


def finish(record: dict, rundir: Path, attempted: int, failed: int) -> dict:
    """Write the run's JSON record next to its (soon removed) run directory."""
    record["attempted"], record["failed"] = attempted, failed
    path = rundir.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1, default=str))
    record["record_path"] = str(path.relative_to(ROOT))
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    w = record["workload"]
    lines = [f"# {w}: {record['why']}",
             f"#   sizes {json.dumps(record['sizes'], default=str)}",
             f"#   kind mix {json.dumps(record['kind_mix'])}"]
    n = record.get("ops_n")
    for name, m in record["metrics"].items():
        label = f"{record['command']}_s (op_s)" if name == "op_s" else name
        count = f"  n={n}" if name == "op_s" else (
            f"  n={record['setup_n']}" if name == "setup_s" else "")
        lines.append(f"{w:18s} {label:38s} {m['value']:.6g} {m['unit']}{count}")
    if "error_rate" in record:
        for name in ("op_wall_s", "op_cpu_s", "setup_wall_s", "setup_cpu_s", "cal_s"):
            label = name.replace("op_", f"{record['command']}_", 1) if name.startswith("op_") else name
            lines.append(f"{w:18s} {label:38s} {record[name]:.6g} s  (raw)")
        lines.append(f"{w:18s} {'error_rate':38s} {record['error_rate']:.6g} ratio  "
                     f"({record['failed']}/{record['attempted']})")
        if record["percentile"]:
            p, v = record["percentile"]
            lines.append(f"{w:18s} {record['command']}_p{p}_s{'':27s} {v:.6g} s")
    for r in record.get("ops", []) + record.get("setup", []) + record.get("runs", []):
        for p in r["problems"]:
            lines.append(f"# FAILED: {p}")
    lines.append(f"# record: {record['record_path']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ulset" / "cli.py").is_file():
        print(f"error: no ulset sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that the calibration
    # runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced_run if args.trace else timed_run
    OUT.mkdir(exist_ok=True)
    records = [run(wl.WORKLOADS[name], args.seed, args.seconds) for name in names]
    for rec in records:
        print("\n".join(describe(rec)), flush=True)
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (records[0]["metrics"] if len(records) == 1 else
                    {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
