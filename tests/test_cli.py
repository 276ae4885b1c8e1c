import json

import numpy as np
import pytest

from ulset.cli import main

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

    def test_small_grid_exit_2(self, cone_config):
        assert main(["contour", cone_config, "--level", "0", "--bbox=-2,-2,2,2",
                     "--grid", "7"]) == 2

    def test_all_nu_region_exit_2(self, cone_config):
        assert main(["contour", cone_config, "--k", "1,0", "--level", "0",
                     "--bbox", "2,2,5,5", "--grid", "16"]) == 2


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

    @pytest.mark.parametrize("command", ["norm", "pareto"])
    def test_cone_file_without_halfspaces(self, command, tmp_path, capsys):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
        pts = tmp_path / "f.csv"
        pts.write_text("0,3\n1,1\n")
        args = ["--point", "2,1"] if command == "norm" else ["--points", str(pts)]
        self._assert_rejected([command, "--cone-file", str(cone), "--k", "1,1", *args], capsys)

    @pytest.mark.parametrize("node_type", ["union", "intersection"])
    def test_members_not_a_list(self, node_type, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dim": 2, "k": [1.0, 0.0],
                                   "set": {"type": node_type, "members": 5}}))
        self._assert_rejected(["eval", str(cfg), "--point", "0,0"], capsys)


class TestEnvOverride:
    def test_tmax_env_respected(self, cone_config, monkeypatch, capsys):
        monkeypatch.setenv("ULSET_TMAX", "1e3")
        assert main(["eval", cone_config, "--point", "0,0"]) == 0
        assert capsys.readouterr().out == "0,0.0\n"
