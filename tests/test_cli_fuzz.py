"""Fuzz the CLI through `main`: one odd value in a config, a cone file,
a points CSV or a flag never ends in a traceback, and each exit code
means what the CLI documents: 0 success, 1 only with a Violated report
or a cloud that is not disjoint, 2 with exactly one `error: ` line.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ulset.cli import main

#: Every node type of the set grammar, each top-level key and a direction
#: the set admits; the second copy runs under bisection.
CONFIG = {
    "dim": 2,
    "k": [1.0, 0.0],
    "t_max": 1e6,
    "tol": 1e-9,
    "strategy": "closed_form",
    "set": {
        "type": "union",
        "members": [
            {"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": -1}]},
            {"type": "shift", "y0": [0.5, 0.5], "base": {
                "type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}]}},
            {"type": "intersection", "members": [
                {"type": "polyhedron", "halfspaces": [{"a": [0, 1], "b": -1}]},
                {"type": "complement", "base": {
                    "type": "polyhedron", "halfspaces": [{"a": [-1, 1], "b": 5}]}},
            ]},
        ],
    },
}
CONFIGS = [CONFIG, {**CONFIG, "strategy": "bisection"}]

CONE = {"halfspaces": [{"a": [-1, 0]}, {"a": [0, -1], "b": 0}], "generators": [[1, 0], [0, 1]]}

POINTS = ["0.5,2", "-1,-1", "3,0.25,far", "0,-3"]

#: Argument lists; {config}, {cone} and {points} stand for the files.
COMMANDS = [
    ["eval", "{config}", "--points", "{points}", "--k", "1,0"],
    ["eval", "{config}", "--point", "0.5,2", "--k", "1,0.5"],
    ["contour", "{config}", "--level", "0.5", "--bbox=-2,-2,2,2", "--grid", "9"],
    ["check", "{config}", "--samples", "20", "--seed", "3"],
    ["separate", "{config}", "--points", "{points}", "--mode", "interior"],
    ["pareto", "--points", "{points}", "--cone-file", "{cone}", "--k", "1,1"],
    ["norm", "--cone-file", "{cone}", "--k", "1,1", "--point", "2,1", "--mode", "gauge"],
]

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
json_values = st.one_of(
    scalars,
    st.integers(min_value=-10**400, max_value=10**400),
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "type", "base", "y0"]), scalars, max_size=2),
)
#: Short flag values only, so that no grid or sample count gets large.
flag_values = st.one_of(
    st.sampled_from(["", "nan", "inf", "-0", "1,2,3", "1e308,-1e308", "0", "all", "unit"]),
    st.text(alphabet="0123456789.,-+eEinf", max_size=3),
)


def _paths(value, path=()):
    """Key paths of every value in a JSON document, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_exit_codes_hold_under_one_odd_value(data):
    argv = list(data.draw(st.sampled_from(COMMANDS)))
    config = data.draw(st.sampled_from(CONFIGS))
    cone, points = CONE, list(POINTS)
    target = data.draw(st.sampled_from(["document", "points", "flag"]))
    if target == "document":
        doc = config if "{config}" in argv else cone
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, data.draw(json_values))
        config, cone = (doc, cone) if "{config}" in argv else (config, doc)
    elif target == "points":
        i = data.draw(st.integers(0, len(points)))
        points[i:i + 1] = [data.draw(st.text(alphabet="0123456789.,-eEinf# ", max_size=8))]
    else:
        values = [i for i, a in enumerate(argv)
                  if i > 0 and not a.startswith("{") and (not a.startswith("--") or "=" in a)]
        i = data.draw(st.sampled_from(values))
        value = data.draw(flag_values)
        argv[i] = f"{argv[i].split('=')[0]}={value}" if "=" in argv[i] else value

    with tempfile.TemporaryDirectory() as tmp:
        files = {"{config}": json.dumps(config), "{cone}": json.dumps(cone),
                 "{points}": "\n".join(points) + "\n"}
        for name, content in files.items():
            file = Path(tmp) / name.strip("{}")
            file.write_text(content)
            argv = [str(file) if a == name else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        if argv[0] == "check":
            assert any(json.loads(line)["verdict"] == "Violated" for line in out.splitlines())
        else:
            assert argv[0] == "separate" and json.loads(out)["disjoint"] is False
    if code == 2:
        # the CLI prints one line; argparse prints its usage before its one error line
        lines = err.splitlines()
        assert [line for line in lines if "error: " in line] == lines[-1:]
        assert err.startswith("usage: ") or (len(lines) == 1 and err.startswith("error: "))
        assert not caught, [str(w.message) for w in caught]
