"""The package's import behaviour, each case in a fresh interpreter:
`analysis`, `norms` and `scalarization` are registered lazily and run only
for the subcommands that use them, while every public name stays
importable; and the garbage collector is frozen only where `cli.main`
owns the process."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulset
from ulset import cli

GOLDEN = Path(__file__).parent / "golden"
TQ = str(GOLDEN / "three_quadrant.json")
PARETO = ["pareto", "--points", str(GOLDEN / "pareto_blocks.csv"),
          "--cone-file", str(GOLDEN / "pareto_blocks_cone.json"), "--k", "1,2,0.5",
          "--refs", str(GOLDEN / "pareto_blocks_refs.csv")]


def _fresh(script: str, *args: str):
    """Run script in a new interpreter with the package on its path and
    return the JSON document it prints last."""
    env = {**os.environ, "PYTHONPATH": str(Path(ulset.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


# The "exec" audit event fires for every module body the interpreter runs,
# whether or not a bytecode cache exists, unlike the "compile" event.
EXECUTED = """
import contextlib, io, json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    os.path.basename(args[0].co_filename)))
from ulset.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "ran": sorted(ran)}))
"""


COMMANDS = {
    "eval": ["eval", TQ, "--point", "0.5,0.5"],
    "eval_points": ["eval", TQ, "--points", str(GOLDEN / "points.csv")],
    "contour": ["contour", TQ, "--level", "0.5", "--bbox=-2,-2,2,2", "--grid", "8"],
    "pareto": PARETO,
    "check": ["check", TQ, "--samples", "1"],
    "separate": ["separate", TQ, "--points", str(GOLDEN / "points.csv")],
    "norm": ["norm", "--k", "1,1", "--point", "0.5,-2"],
}
LAZY = ("analysis.py", "boxes.py", "norms.py", "scalarization.py")


LAZY_RAN = {
    "eval": [],
    "eval_points": ["scalarization.py"],
    "contour": [],
    "pareto": ["scalarization.py"],
    "check": ["analysis.py"],
    "separate": ["analysis.py", "scalarization.py"],
    "norm": ["norms.py", "scalarization.py"],
}


@pytest.mark.parametrize("command", LAZY_RAN)
def test_only_check_and_separate_run_analysis(command):
    lazy_ran = LAZY_RAN[command]
    doc = _fresh(EXECUTED, *COMMANDS[command])
    assert doc["code"] in (0, 1)
    assert "evaluator.py" in doc["ran"]
    assert [f for f in doc["ran"] if f in LAZY] == lazy_ran


def test_public_names_resolve_after_eval():
    """The benchmark's tracer reads sys.modules["ulset.<module>"] right
    after `import ulset` and then the names each module defines."""
    doc = _fresh(f"""
import contextlib, io, json, sys
import ulset
from ulset import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["eval", {TQ!r}, "--point", "0.5,0.5"])
registered = [n in sys.modules for n in ("ulset.analysis", "ulset.norms", "ulset.scalarization")]
modules = [m for n, m in sys.modules.items() if n.startswith("ulset.")]
names = [n for n in ulset.__all__ if n != "__version__"]
unresolved = [n for n in names
              if not any(n in vars(m) for m in modules)
              or any(getattr(ulset, n) is not vars(m)[n] for m in modules if n in vars(m))]
print(json.dumps({{"registered": registered, "unresolved": unresolved,
                  "missing_from_dir": sorted(set(ulset.__all__) - set(dir(ulset)))}}))
""")
    assert doc == {"registered": [True, True, True], "unresolved": [], "missing_from_dir": []}


# the freeze count is read at exit, after the interpreter's last collection
FREEZE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count()))
from ulset.cli import main
sys.exit(main({}))
"""


@pytest.mark.parametrize("call, frozen", [("", True), ("sys.argv[1:]", False)],
                         ids=["main()", "main(argv)"])
def test_collector_frozen_only_when_main_owns_the_process(call, frozen):
    count = _fresh(FREEZE.format(call), *COMMANDS["eval"])
    assert (count > 0) == frozen


@pytest.mark.parametrize("command", COMMANDS)
def test_main_with_argv_leaves_the_collector(command, capsys):
    """Tests and the benchmark's tracer call main(argv) in their own process."""
    before = gc.get_freeze_count()
    assert cli.main(COMMANDS[command]) in (0, 1)
    assert gc.get_freeze_count() == before
