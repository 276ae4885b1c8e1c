"""Steadiness self-check of the end-to-end metrics.

    python3 perfbench/steady.py [--first-seed 1] [--compare perfbench/out/steady-1.json]

Runs every workload of BENCHMARK.json once per seed, for ten seeds from
--first-seed, seed after seed, through run.py for its run_seconds, and
reports for every end-to-end metric and workload the quartile spread
(q3 - q1) / median of the runs, next to the bound BENCHMARK.json fixes.
A spread above the bound is unsteady; one above a third of the bound is
marked. With --compare, each median is also checked against an earlier
set's, in both directions. The raw wall and CPU times of the same runs
are reported next to them, ungated, to show what the calibration buys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
#: Unscaled times from each run's record, reported but not gated.
RAW = ("op_wall_s", "op_cpu_s", "setup_wall_s", "setup_cpu_s")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line of one run, and the record it wrote."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", help="steady JSON of an earlier set to compare medians with")
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in (*bounds, *RAW)} for w in names}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for w in names:
            res, record = run_once(w, seed, spec["run_seconds"])
            failures += res["failed"] + (not res["correct"])
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            for m in RAW:
                values[w][m].append(record[m])
            print(f"# seed {seed} {w}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)

    earlier = json.loads(Path(args.compare).read_text())["medians"] if args.compare else {}
    medians, ok = {}, failures == 0
    print(f"{'workload':18s} {'metric':12s} {'median':>10s} {'spread':>8s} {'bound':>6s}  verdict")
    for w in names:
        for m, bound in bounds.items():
            med, s = spread(values[w][m])
            verdict = ("steady" if s <= bound / 3 else
                       "within bound" if s <= bound else "UNSTEADY")
            ok &= s <= bound
            before = earlier.get(w, {}).get(m)
            if before is not None:
                shift = med / before - 1.0
                verdict += f"; median {shift:+.1%} vs earlier set"
                ok &= abs(shift) <= bound
            medians.setdefault(w, {})[m] = med
            print(f"{w:18s} {m:12s} {med:10.4g} {s:8.2%} {bound:6.2f}  {verdict}")
        for m in RAW:
            med, s = spread(values[w][m])
            print(f"{w:18s} {m:12s} {med:10.4g} {s:8.2%} {'-':>6s}  raw, not gated")
    out = HERE / "out" / f"steady-{args.first_seed}.json"
    out.write_text(json.dumps({"values": values, "medians": medians, "failures": failures}, indent=1))
    print(f"# failed operations: {failures}; record: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
