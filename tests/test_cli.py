import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ulset
import ulset.cli as cli
import ulset.evaluator as evaluator
from ulset.cli import main
from ulset.evaluator import ExtReal, key_text
from ulset.scalarization import _LINE_FLOATS

GOLDEN = Path(__file__).parent / "golden"

TQ_CONFIG = {
    "dim": 2,
    "k": [1.0, 0.0],
    "set": {
        "type": "union",
        "members": [
            {"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": -1}]},
            {"type": "polyhedron",
             "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}]},
            {"type": "polyhedron", "halfspaces": [{"a": [0, 1], "b": -1}]},
        ],
    },
}

CONE_CONFIG = {
    "dim": 2,
    "k": [1.0, 1.0],
    "set": {
        "type": "polyhedron",
        "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 0}],
    },
}


#: Spellings the JSON reader refuses: a shift offset that is an object
#: (a TypeError traceback before), a fractional dim and a boolean offset
#: (read as 2 and 1.0 before), string coefficients, and a boolean offset
#: in a cone file; each with the key path its error names.
_ROW = {"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}]}
MALFORMED = [
    ("shift_y0_object", json.loads((GOLDEN / "malformed_shift.json").read_text()),
     "config key 'set.y0'"),
    ("dim_fraction", {"dim": 2.7, "k": [1, 0], "set": _ROW}, "config key 'dim'"),
    ("b_true", {"dim": 2, "k": [1, 0], "set": {
        "type": "union", "members": [_ROW, {"type": "polyhedron",
                                            "halfspaces": [{"a": [1, 0], "b": True}]}]}},
     "config key 'set.members[1].halfspaces[0].b'"),
    ("a_strings", {"dim": 2, "k": [1, 0], "set": {
        "type": "polyhedron", "halfspaces": [_ROW["halfspaces"][0], {"a": ["1", "0"], "b": 0}]}},
     "config key 'set.halfspaces[1].a"),
    ("cone_b_false", {"halfspaces": [{"a": [-1, 0]}, {"a": [0, -1], "b": False}]},
     "cone file key 'halfspaces[1].b'"),
]


@pytest.fixture
def tq_config(tmp_path):
    path = tmp_path / "tq.json"
    path.write_text(json.dumps(TQ_CONFIG))
    return str(path)


@pytest.fixture
def cone_config(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(CONE_CONFIG))
    return str(path)


class TestEval:
    def test_minus_inf_point(self, tq_config, capsys):
        assert main(["eval", tq_config, "--point", "0,-1"]) == 0
        assert capsys.readouterr().out == "0,-inf\n"

    def test_formula_point(self, tq_config, capsys):
        assert main(["eval", tq_config, "--point", "0.5,2"]) == 0
        assert capsys.readouterr().out == "0,1.5\n"

    def test_multiple_points_and_nu(self, cone_config, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("-1,-1\n-2,0\n")
        assert main(["eval", cone_config, "--points", str(pts)]) == 0
        assert capsys.readouterr().out == "0,-1.0\n1,0.0\n"

    def test_points_file_stays_on_arrays(self, tmp_path, monkeypatch, capsys):
        """No ExtReal per point: the output is written from the key arrays."""
        cfg = tmp_path / "mixed.json"
        # -inf below y = -1, y1 up to y = 1, nu above
        cfg.write_text(json.dumps({"dim": 2, "k": [1.0, 0.0], "set": {
            "type": "union", "members": [
                {"type": "polyhedron", "halfspaces": [{"a": [0, 1], "b": -1}]},
                {"type": "polyhedron",
                 "halfspaces": [{"a": [1, 0], "b": 0}, {"a": [0, 1], "b": 1}]},
            ]}}))
        P = np.random.default_rng(3).uniform(-3.0, 3.0, size=(300, 2))
        pts = tmp_path / "pts.csv"
        pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in P.tolist()))
        h = cli._load_config(str(cfg), None)
        expected = "".join(f"{i},{v}\n"
                           for i, v in enumerate(evaluator.evaluate_many(h, P)))
        assert {"-inf", "nu"} <= {line.split(",")[1] for line in expected.splitlines()}

        calls = {"finite": 0, "evaluate_many": 0}
        finite = ExtReal.finite
        many = evaluator.evaluate_many

        def counting_finite(t):
            calls["finite"] += 1
            return finite(t)

        def counting_many(*args):
            calls["evaluate_many"] += 1
            return many(*args)

        monkeypatch.setattr(ExtReal, "finite", staticmethod(counting_finite))
        for mod in (evaluator, ulset, cli):
            monkeypatch.setattr(mod, "evaluate_many", counting_many, raising=False)
        assert main(["eval", str(cfg), "--points", str(pts)]) == 0
        assert calls == {"finite": 0, "evaluate_many": 0}
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("strategy", ["closed_form", "bisection"])
    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_chunked_points_match_one_batch(self, lines, strategy, tmp_path, monkeypatch,
                                            capsys):
        """CSV chunks of a few lines give the bytes of one _keys call over
        all the points: one point, chunk + 1 points, points between blank
        lines, and a label in the last chunk."""
        monkeypatch.setattr(evaluator, "_BLOCK_FLOATS", lines * _LINE_FLOATS)
        cfg = tmp_path / "tq.json"
        cfg.write_text(json.dumps({**TQ_CONFIG, "strategy": strategy}))
        h = cli._load_config(str(cfg), None)
        P = np.random.default_rng(lines).uniform(-3.0, 3.0, size=(3 * lines + 2, 2))
        rows = [f"{x!r},{y!r}" for x, y in P.tolist()]
        files = {1: rows[0] + "\n", lines + 1: "\n".join(rows[:lines + 1]) + "\n",
                 len(P): "\n\n".join(rows[:-1]) + "\n\n" * lines + rows[-1] + ",last\n"}
        for n, text in files.items():
            pts = tmp_path / f"pts{n}.csv"
            pts.write_text(text)
            expected = "".join(f"{i},{key_text(v)}\n"
                               for i, v in enumerate(cli._keys(h, P[:n]).tolist()))
            assert main(["eval", str(cfg), "--points", str(pts)]) == 0
            assert capsys.readouterr().out == expected

    def test_nu_serialization(self, cone_config, capsys):
        assert main(["eval", cone_config, "--k", "1,0", "--point", "0,1"]) == 0
        assert capsys.readouterr().out == "0,nu\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.json"), "--point", "0,0"]) == 2

    def test_no_direction_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nok.json"
        doc = {k: v for k, v in CONE_CONFIG.items() if k != "k"}
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--point", "0,0"]) == 2


class TestContour:
    def test_writes_csv_with_header(self, cone_config, tmp_path):
        out = tmp_path / "contour.csv"
        code = main(["contour", cone_config, "--level", "0", "--bbox=-2,-2,2,2",
                     "--grid", "41", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "polyline_id,x,y"
        assert len(lines) > 10

    def test_no_crossing_writes_header_only(self, cone_config, capsys):
        assert main(["contour", cone_config, "--level", "100", "--bbox=-2,-2,2,2"]) == 0
        assert capsys.readouterr().out == "polyline_id,x,y\n"

    def test_small_grid_exit_2(self, cone_config):
        assert main(["contour", cone_config, "--level", "0", "--bbox=-2,-2,2,2",
                     "--grid", "7"]) == 2

    def test_all_nu_region_exit_2(self, cone_config):
        assert main(["contour", cone_config, "--k", "1,0", "--level", "0",
                     "--bbox", "2,2,5,5", "--grid", "16"]) == 2

    def test_nan_level_exit_2(self, cone_config, capsys):
        assert main(["contour", cone_config, "--level", "nan", "--bbox=-2,-2,2,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: contour level must be finite, got nan\n"


class TestCheck:
    def test_cone_all_suites_pass(self, cone_config, capsys):
        assert main(["check", cone_config, "--suite", "all",
                     "--samples", "200", "--seed", "42"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(l) for l in lines]
        assert {d["name"] for d in docs} >= {
            "sublevel_identity", "translation_invariance", "recession_inequality",
            "dual_relation", "convex", "sublinear"}
        assert all(d["verdict"] in ("Holds", "Inapplicable") for d in docs)

    def test_violating_fixture_exit_1(self, tq_config, capsys):
        assert main(["check", tq_config, "--suite", "convexity",
                     "--samples", "400", "--seed", "42"]) == 1
        docs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert any(d["verdict"] == "Violated" for d in docs)

    def test_complement_recession_suite_runs(self, tmp_path, capsys):
        # complement closures have a recession cone (their reversed rows)
        path = tmp_path / "complement.json"
        path.write_text(json.dumps({"dim": 2, "k": [-1.0, -1.0],
                                    "set": {"type": "complement", "base": CONE_CONFIG["set"]}}))
        assert main(["check", str(path), "--suite", "recession", "--samples", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Holds"
        assert doc["applicable"] == 200

    def test_unknown_suite_exit_2(self, cone_config):
        assert main(["check", cone_config, "--suite", "mystery"]) == 2

    def test_deterministic_output(self, cone_config, capsys):
        main(["check", cone_config, "--suite", "sublevel", "--samples", "100",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["check", cone_config, "--suite", "sublevel", "--samples", "100",
              "--seed", "5"])
        assert capsys.readouterr().out == first


class TestSeparate:
    def test_disjoint_exit_0(self, cone_config, tmp_path, capsys):
        pts = tmp_path / "d.csv"
        pts.write_text("1,1\n2,0.5\n")
        assert main(["separate", cone_config, "--points", str(pts)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disjoint"] is True
        assert doc["offending"] == []

    def test_touching_mode_dependent(self, cone_config, tmp_path, capsys):
        pts = tmp_path / "d.csv"
        pts.write_text("0,0\n")
        assert main(["separate", cone_config, "--points", str(pts),
                     "--mode", "closed"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["offending"][0]["index"] == 0
        assert main(["separate", cone_config, "--points", str(pts),
                     "--mode", "interior"]) == 0

    def test_intersecting_exit_1(self, cone_config, tmp_path, capsys):
        pts = tmp_path / "d.csv"
        pts.write_text("-1,-1\n")
        assert main(["separate", cone_config, "--points", str(pts)]) == 1


class TestPareto:
    def test_origin_ref_selects_ideal_point(self, tmp_path, capsys):
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n3,0\n2,2\n")
        refs = tmp_path / "r.csv"
        refs.write_text("0,0\n")
        assert main(["pareto", "--points", str(pts), "--k", "1,1",
                     "--refs", str(refs)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ref_index,point_index,value"
        assert out[1] == "0,1,1.0"

    def test_refs_default_to_cloud(self, tmp_path, capsys):
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n3,0\n2,2\n")
        assert main(["pareto", "--points", str(pts), "--k", "1,1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        selected = sorted({int(r.split(",")[1]) for r in rows})
        assert selected == [0, 1, 2]

    def test_empty_points_exit_2(self, tmp_path):
        pts = tmp_path / "f.csv"
        pts.write_text("")
        assert main(["pareto", "--points", str(pts), "--k", "1,1"]) == 2


class TestNonPointedCone:
    """A cone given generators that is not pointed warns. Outside pytest's
    warning capture, a command that fails then prints its one error line
    alone, and one that succeeds prints the warning as one line."""

    CONE = {"halfspaces": [{"a": [-1, 0]}, {"a": [1, 0]}], "generators": [[0, 1], [0, -1]]}

    @classmethod
    def run(cls, tmp_path, *args):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps(cls.CONE))
        env = {**os.environ, "PYTHONPATH": str(Path(ulset.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "ulset.cli", *args, "--cone-file", str(cone)],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_failing_command_prints_only_its_error(self, tmp_path):
        done = self.run(tmp_path, "norm", "--point", "1,2", "--k", "1,1")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: order cone is not pointed: its rows have rank below its "
                               "dimension; the order interval gauge would only be a seminorm\n")

    def test_norm_on_half_plane_refused(self):
        # the golden cone has no generators, so nothing but its rows shows its line
        env = {**os.environ, "PYTHONPATH": str(Path(ulset.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "ulset.cli", "norm", "--cone-file",
                               str(GOLDEN / "half_plane_cone.json"), "--k", "1,1", "--point", "5,0"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: order cone is not pointed")
        assert done.stderr.count("\n") == 1

    def test_succeeding_command_prints_the_warning(self, tmp_path):
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n3,0\n2,2\n")
        done = self.run(tmp_path, "pareto", "--points", str(pts), "--k", "0,1")
        assert (done.returncode, done.stdout) == (
            0, "ref_index,point_index,value\n0,0,-inf\n1,1,-inf\n2,2,-inf\n3,3,-inf\n")
        assert done.stderr == ("warning: order cone is not pointed: its rows have rank below "
                               "its dimension\n")


class TestNorm:
    def test_unit_mode(self, capsys):
        assert main(["norm", "--k", "1,1", "--point=-2,3"]) == 0
        assert capsys.readouterr().out == "3.0\n"

    def test_gauge_mode(self, tmp_path, capsys):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({
            "halfspaces": [{"a": [1, 0]}, {"a": [0, 1]}],
            "generators": [[-1, 0], [0, -1]],
        }))
        assert main(["norm", "--cone-file", str(cone), "--k", "1,1",
                     "--point", "2,1", "--mode", "gauge"]) == 0
        assert capsys.readouterr().out == "2.0\n"


class TestMalformedInput:
    """Malformed input exits 2 with one stderr line, never 1 with a traceback."""

    @staticmethod
    def _assert_rejected(argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("command", ["norm", "pareto"])
    def test_cone_file_without_halfspaces(self, command, tmp_path, capsys):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n")
        args = ["--point", "2,1"] if command == "norm" else ["--points", str(pts)]
        self._assert_rejected([command, "--cone-file", str(cone), "--k", "1,1", *args], capsys)

    def test_point_with_points(self, capsys):
        """--points is not dropped in favour of --point: both together exit 2."""
        err = self._assert_rejected(["eval", str(GOLDEN / "three_quadrant.json"), "--point", "0,0",
                                     "--points", str(GOLDEN / "points.csv")], capsys)
        assert err == "error: pass --point or --points, not both\n"

    def test_points_of_different_dimensions(self, cone_config, capsys):
        err = self._assert_rejected(["eval", cone_config, "--point", "0,0", "--point", "1,2,3"],
                                    capsys)
        assert err == "error: --point values differ in dimension: 2 and 3\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one(self, samples, cone_config, capsys):
        err = self._assert_rejected(["check", cone_config, "--samples", samples], capsys)
        assert "sample count must be at least 1" in err

    def test_sample_count_above_cap(self, capsys):
        # the count once went to a single 14.9 GiB draw: a traceback and exit 1
        err = self._assert_rejected(["check", str(GOLDEN / "three_quadrant.json"),
                                     "--samples", "1000000000"], capsys)
        assert "sample count must be at most 1000000" in err

    @pytest.mark.parametrize("suite", ["all", "convexity"])
    @pytest.mark.parametrize("samples", ["500001", "1000000"])
    def test_sample_count_above_convexity_cap(self, suite, samples, monkeypatch, capsys):
        """The convexity suite draws two points per sample: a count it cannot
        draw is refused in terms of --samples before any suite runs; it once
        ran the other suites and then refused a count of 2 * samples."""
        monkeypatch.setattr(cli, "_run_suite", lambda *a: pytest.fail("a suite ran"))
        err = self._assert_rejected(["check", str(GOLDEN / "three_quadrant.json"), "--suite",
                                     suite, "--samples", samples], capsys)
        assert err == ("error: --samples must be at most 500000 for the convexity suite, "
                       f"which draws two points per sample; got {samples}\n")

    def test_convexity_cap_leaves_other_suites(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_run_suite",
                            lambda h, name, samples, seed: calls.append((name, samples)) or [])
        assert main(["check", str(GOLDEN / "three_quadrant.json"), "--suite", "sublevel",
                     "--samples", "600000"]) == 0
        assert calls == [("sublevel", 600000)]

    @pytest.mark.parametrize("refs", [False, True], ids=["cloud-as-refs", "refs-file"])
    def test_non_finite_cloud_is_named(self, refs, tmp_path, capsys):
        # the cloud's nan was blamed on the reference points without --refs,
        # and on "points" in general with it
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\nnan,1\n")
        extra = ["--refs", str(GOLDEN / "points.csv")] if refs else []
        err = self._assert_rejected(["pareto", "--points", str(pts), "--k", "1,1", *extra], capsys)
        assert err == "error: point cloud has non-finite entries\n"

    @pytest.mark.parametrize("bbox, shown", [
        ("0,0,inf,1", "[0.0, 0.0, inf, 1.0]"),
        ("-1e308,-1,1e308,1", "[-1e+308, -1.0, 1e+308, 1.0]"),  # the width overflows
        ("0,nan,1,1", "[0.0, nan, 1.0, 1.0]"),
    ])
    def test_non_finite_bbox_is_named(self, bbox, shown, cone_config, capsys):
        # the grid's non-finite points were blamed on "points"
        err = self._assert_rejected(["contour", cone_config, "--level", "0", f"--bbox={bbox}"],
                                    capsys)
        assert err == f"error: bbox {shown} needs 0 < x1 - x0 < inf, 0 < y1 - y0 < inf\n"

    def test_negative_seed(self, cone_config, capsys):
        # numpy's own message, "expected non-negative integer", named no option
        err = self._assert_rejected(["check", cone_config, "--seed", "-1"], capsys)
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_memory_error(self, cone_config, monkeypatch, capsys):
        def exhausted(h, Y):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(cli, "_keys", exhausted)
        err = self._assert_rejected(["eval", cone_config, "--point", "0,0"], capsys)
        assert err == "error: out of memory: Unable to allocate 14.9 GiB for an array\n"

    def test_non_finite_static_row(self, tmp_path, capsys):
        """a·y - b of the static row 10y1 + 10y2 <= 0 (a·k = 0) comes out
        -inf; it was read as satisfied and the point got the value 1e308."""
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1, -1], "set": {
            "type": "polyhedron",
            "halfspaces": [{"a": [10, 10], "b": 0}, {"a": [1, 0], "b": 0}]}}))
        err = self._assert_rejected(["eval", str(cfg), "--point", "1e308,-1e308"], capsys)
        assert err == "error: a value of the functional overflows the float range\n"

    def test_non_finite_static_row_under_bisection(self, tmp_path, capsys):
        """The same point under bisection: the translate test read the NaN
        of inf - inf as a violated row and printed 0,nu."""
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1, -1], "strategy": "bisection", "set": {
            "type": "polyhedron",
            "halfspaces": [{"a": [10, 10], "b": 0}, {"a": [1, 0], "b": 0}]}}))
        err = self._assert_rejected(["eval", str(cfg), "--point", "1e308,-1e308"], capsys)
        assert err == "error: a value of the functional overflows the float range\n"

    def test_tol_below_float_spacing_under_bisection(self, tmp_path):
        """A tol no float gap can meet: bisection stops at adjacent floats.
        It split the same two floats forever before."""
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps({**CONE_CONFIG, "strategy": "bisection", "tol": 1e-17}))
        done = subprocess.run([sys.executable, "-m", "ulset.cli", "eval", str(cfg),
                               "--point", "0.3,0.7", "--point=-2,-5"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(
                                  Path(ulset.__file__).parents[1])}, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        values = [float(line.split(",")[1]) for line in done.stdout.splitlines()]
        assert values == pytest.approx([0.7, -2.0], abs=2e-9)

    def test_nested_too_deeply(self, tmp_path, capsys):
        node = {"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}]}
        for _ in range(450):
            node = {"type": "union", "members": [node]}
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1.0, 0.0], "set": node}))
        err = self._assert_rejected(["eval", str(cfg), "--point", "0.5,0.5"], capsys)
        assert err == "error: input nested too deeply\n"

    @pytest.mark.parametrize("name, doc, path", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_refused_spelling(self, name, doc, path, tmp_path, capsys):
        """Spellings the JSON reader refuses that were read before (or
        crashed): one stderr line that names the value's key path."""
        file = tmp_path / "doc.json"
        file.write_text(json.dumps(doc))
        if path.startswith("cone file"):
            argv = ["norm", "--cone-file", str(file), "--k", "1,1", "--point", "2,1"]
        else:
            argv = ["eval", str(file), "--point", "0.5,0.5"]
        assert path in self._assert_rejected(argv, capsys)

    @pytest.mark.parametrize("node, k, last", [
        # t = 1e305 / 1e-8 overflows
        ({"type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}]}, [1e-8, 1.0], "1e305,0"),
        # y - y0 overflows to (-inf, inf), so a·(y - y0) is inf - inf
        ({"type": "shift", "y0": [1e308, -1e308],
          "base": {"type": "polyhedron", "halfspaces": [{"a": [1, 1], "b": 0}]}},
         [1.0, 1.0], "-1e308,1e308"),
    ], ids=["overflow", "inf_minus_inf"])
    def test_overflow_in_a_late_block(self, node, k, last, tmp_path):
        """A value that overflows in the last of many blocks: nothing on
        stdout and one stderr line, also outside pytest's warning capture."""
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps({"dim": 2, "k": k, "set": node}))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0\n" * 999 + last + "\n")
        code = ("import sys, ulset.evaluator as e; e._BLOCK_FLOATS = 4; "
                "from ulset.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(ulset.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, "eval", str(cfg), "--points", str(pts)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: a value of the functional overflows the float range\n"

    def test_malformed_line_reported_before_an_early_overflow(self, tmp_path, monkeypatch,
                                                               capsys):
        """A malformed line chunks after a point whose value overflows is
        the error reported, as where the whole file is parsed first."""
        monkeypatch.setattr(evaluator, "_BLOCK_FLOATS", _LINE_FLOATS)
        cfg = tmp_path / "set.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1e-8, 1.0], "set": {
            "type": "polyhedron", "halfspaces": [{"a": [1, 0], "b": 0}]}}))
        pts = tmp_path / "pts.csv"
        pts.write_text("1e305,0\n0,0\n0,0\nx,1\n")
        err = self._assert_rejected(["eval", str(cfg), "--points", str(pts)], capsys)
        assert err == ("error: line 4: non-numeric coordinate "
                       "(could not convert string to float: 'x')\n")
        pts.write_text("1e305,0\n0,0\n0,0\n0,1,far\n")
        err = self._assert_rejected(["eval", str(cfg), "--points", str(pts)], capsys)
        assert err == "error: a value of the functional overflows the float range\n"

    @pytest.mark.parametrize("command", ["eval", "separate", "pareto"])
    def test_label_only_line(self, command, cone_config, tmp_path, capsys):
        pts = tmp_path / "f.csv"
        pts.write_text("# note\n")
        argv = {"eval": ["eval", cone_config, "--points", str(pts)],
                "separate": ["separate", cone_config, "--points", str(pts)],
                "pareto": ["pareto", "--points", str(pts), "--k", "1,1"]}[command]
        assert self._assert_rejected(argv, capsys) == "error: line 1: no coordinates\n"

    def test_non_finite_reference_point(self, tmp_path, capsys):
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n")
        refs = tmp_path / "r.csv"
        refs.write_text("0,0\ninf,1\n")
        err = self._assert_rejected(["pareto", "--points", str(pts), "--k", "1,1",
                                     "--refs", str(refs)], capsys)
        assert "non-finite" in err

    @pytest.mark.parametrize("key, value", [
        ("tol", None), ("tol", {}), ("tol", True), ("t_max", None), ("t_max", [1]),
        ("k", {"a": 1}), ("strategy", []), ("strategy", False), ("strategy", 0),
    ], ids=["tol-null", "tol-object", "tol-true", "t_max-null", "t_max-list", "k-object",
            "strategy-list", "strategy-false", "strategy-0"])
    def test_config_value_of_wrong_type(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**CONE_CONFIG, key: value}))
        err = self._assert_rejected(["eval", str(cfg), "--point", "0,0"], capsys)
        assert f"config key '{key}'" in err

    def test_cone_generators_not_a_list(self, tmp_path, capsys):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"halfspaces": [{"a": [1, 0]}, {"a": [0, 1]}],
                                    "generators": 5}))
        err = self._assert_rejected(["norm", "--cone-file", str(cone), "--k", "1,1",
                                     "--point", "2,1", "--mode", "gauge"], capsys)
        assert "'generators'" in err

    @pytest.mark.parametrize("node_type", ["union", "intersection"])
    def test_members_not_a_list(self, node_type, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1.0, 0.0],
                                   "set": {"type": node_type, "members": 5}}))
        self._assert_rejected(["eval", str(cfg), "--point", "0,0"], capsys)


def test_environment_sets_no_t_max(cone_config, monkeypatch, capsys):
    """t_max comes from the config key alone: ULSET_TMAX changes nothing."""
    args = ["eval", cone_config, "--point", "0,0", "--point=-3,5"]
    monkeypatch.delenv("ULSET_TMAX", raising=False)
    without = main(args), capsys.readouterr().out
    monkeypatch.setenv("ULSET_TMAX", "abc")
    assert (main(args), capsys.readouterr().out) == without
    assert without[0] == 0
