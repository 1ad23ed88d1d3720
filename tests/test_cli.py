"""End-to-end CLI tests driven through subprocess."""

import json
import math
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "bgeo.cli"]


def run(*args):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    return proc


def run_json(*args):
    proc = run(*args)
    return proc.returncode, json.loads(proc.stdout)


@pytest.fixture
def sphere_doc(tmp_path):
    doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
           "P": "h", "V": "1", "orientation": 1}
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scaled_sphere_doc(tmp_path):
    doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
           "P": "2*h", "V": "1", "orientation": 1}
    path = tmp_path / "sphere2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def bform_doc(tmp_path, name, alpha, beta, f="y", names=("x", "y")):
    doc = {"schema": "bgeo/1", "kind": "bform", "degree": 2, "zcoord": "y",
           "f": f,
           "patch": {"names": list(names),
                     "intervals": [[-1, 1], [-1, 1]],
                     "periods": [None, None], "params": []},
           "alpha": alpha, "beta": beta}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestInvariants:
    def test_sphere(self, sphere_doc):
        code, doc = run_json("invariants", sphere_doc)
        assert code == 0
        assert doc["n"] == 1
        assert doc["periods"][0] == pytest.approx(2 * math.pi, abs=1e-6)
        assert abs(doc["volume"]) < 1e-6
        assert doc["config"]["grid"] == 64

    def test_emit_plot(self, sphere_doc, tmp_path):
        csv = tmp_path / "veps.csv"
        code, _ = run_json("invariants", sphere_doc, "--emit-plot", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "eps,volume"
        assert len(lines) == 10  # header + 9 epsilon levels

    def test_deterministic_output(self, sphere_doc):
        out1 = run("invariants", sphere_doc).stdout
        out2 = run("invariants", sphere_doc).stdout
        assert out1 == out2

    def test_no_zeros(self, tmp_path):
        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
               "P": "h - 2", "V": "1", "orientation": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_json("invariants", str(path))
        assert code == 1
        assert "error" in out

    @pytest.mark.parametrize("P", ["h*log(h+1/2)", "h*(h+1/2)^(1/2)"])
    def test_domain_error(self, tmp_path, P):
        # P is not defined for h < -1/2: a JSON error, not a traceback
        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
               "P": P}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        proc = run("invariants", str(path))
        assert proc.returncode == 1
        assert "error" in json.loads(proc.stdout)
        assert "Traceback" not in proc.stderr


class TestClassify:
    def test_distinct(self, sphere_doc, scaled_sphere_doc):
        code, doc = run_json("classify", sphere_doc, scaled_sphere_doc)
        assert code == 1
        assert doc["verdict"] == "distinct"
        assert "period" in doc["witness"]

    def test_equivalent(self, sphere_doc):
        code, doc = run_json("classify", sphere_doc, sphere_doc)
        assert code == 0
        assert doc["verdict"] == "invariant-equivalent"


class TestCohomology:
    def test_surface(self):
        code, doc = run_json("cohomology", "--surface", "1,2")
        assert code == 0
        assert doc["poisson_betti"] == [1, 4, 3]
        assert doc["b_betti"] == [1, 4, 3]
        assert doc["consistent"]

    def test_betti_input(self):
        code, doc = run_json("cohomology", "--betti-m", "1,0,1",
                             "--betti-z", "1,1")
        assert code == 0
        assert doc["b_betti"] == [1, 1, 2]

    def test_s3_rejected(self):
        code, doc = run_json("cohomology", "--betti-m", "1,0,0,0,1",
                             "--betti-z", "1,0,0,1")
        assert code == 0  # arithmetic succeeded; verdict is in the payload
        assert not doc["consistent"]
        assert any("b_1" in r for r in doc["reasons"])


class TestParseCheck:
    def test_parse_roundtrip(self, tmp_path):
        path = bform_doc(tmp_path, "w.json", {"0": "1"}, {"0,1": "y"})
        code, doc = run_json("parse", path)
        assert code == 0 and doc["ok"]
        assert doc["normalized"]["f"] == "y"

    def test_parse_bad_expression(self, tmp_path):
        path = bform_doc(tmp_path, "w.json", {"0": "1 + )"}, {})
        code, doc = run_json("parse", path)
        assert code == 1 and "error" in doc

    def test_parse_wrong_schema(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"schema": "bgeo/0"}))
        code, doc = run_json("parse", str(path))
        assert code == 1 and "schema" in doc["error"]

    def test_check(self, tmp_path):
        path = bform_doc(tmp_path, "w.json", {"0": "1"}, {})
        code, doc = run_json("check", path)
        assert code == 0
        assert doc["transversal"]
        assert doc["nondegeneracy"].startswith("nonvanishing")
        assert doc["components"][0]["value"] == 0.0

    def test_check_degenerate(self, tmp_path):
        # top coefficient 1+x vanishes at the grid point x = -1
        path = bform_doc(tmp_path, "w.json", {"0": "1+x"}, {})
        code, doc = run_json("check", path)
        assert code == 1
        assert doc["nondegeneracy"] == "degenerate"


class TestDarboux:
    def test_flatten(self, tmp_path):
        path = bform_doc(tmp_path, "w.json", {"1": "-(1+z2^2)"}, {},
                         f="z1", names=("z1", "z2"))
        # rewrite zcoord for this patch
        doc = json.loads(open(path).read())
        doc["zcoord"] = "z1"
        open(path, "w").write(json.dumps(doc))
        code, out = run_json("darboux", path)
        assert code == 0 and out["ok"]
        assert out["forward"] == ["z1", "z2 + 1/3*z2^3"]
        assert out["max_residual"] < 1e-9


class TestMoser:
    def test_perturbed_pair(self, tmp_path):
        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        code, doc = run_json("moser", p0, p1, "--points", "50")
        assert code == 0 and doc["ok"]
        assert doc["max_residual"] < 1e-5
        assert doc["vfield_on_Z_max"] < 1e-8
        assert doc["steps"] == 256

    def test_emit_plot(self, tmp_path):
        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        csv = tmp_path / "resid.csv"
        code, _ = run_json("moser", p0, p1, "--points", "20",
                           "--emit-plot", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,residual"
        assert len(lines) == 21

    @pytest.mark.parametrize("knob", [("--steps", "0"), ("--steps", "-3"),
                                      ("--points", "0")])
    def test_bad_knob(self, tmp_path, knob):
        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        proc = run("moser", p0, p1, *knob)
        assert proc.returncode == 1
        assert knob[0].lstrip("-") in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr


class TestExtend:
    def test_torus3(self, tmp_path):
        two_pi = 2 * math.pi
        doc = {"schema": "bgeo/1", "kind": "zdata",
               "patch": {"names": ["theta1", "theta2", "theta3"],
                         "intervals": [[0, two_pi]] * 3,
                         "periods": [two_pi] * 3, "params": ["a", "b"]},
               "alpha": {"0": "a/(a^2+b^2+1)", "1": "b/(a^2+b^2+1)",
                         "2": "-1/(a^2+b^2+1)"},
               "omega": {"0,1": "1", "0,2": "b", "1,2": "-a"},
               "params": {"a": 1.0, "b": 2.0}}
        path = tmp_path / "zdata.json"
        path.write_text(json.dumps(doc))
        code, out = run_json("extend", str(path))
        assert code == 0 and out["ok"]
        assert all(out["defining_forms"].values())
        assert out["components"] == [0.0]
        assert out["nondegeneracy"].startswith("nonvanishing")
        assert out["model"]["f"] == "t"

    def test_failing_data(self, tmp_path):
        two_pi = 2 * math.pi
        doc = {"schema": "bgeo/1", "kind": "zdata",
               "patch": {"names": ["theta1", "theta2", "theta3"],
                         "intervals": [[0, two_pi]] * 3,
                         "periods": [two_pi] * 3, "params": []},
               "alpha": {"0": "cos(theta1)"},
               "omega": {"1,2": "1"}}
        path = tmp_path / "zdata.json"
        path.write_text(json.dumps(doc))
        code, out = run_json("extend", str(path))
        assert code == 1
        assert not out["defining_forms"]["alpha_nonvanishing"]

    def test_grid_reported(self, tmp_path):
        two_pi = 2 * math.pi
        doc = {"schema": "bgeo/1", "kind": "zdata",
               "patch": {"names": ["theta1", "theta2", "theta3"],
                         "intervals": [[0, two_pi]] * 3,
                         "periods": [two_pi] * 3},
               "alpha": {"0": "1/6", "1": "1/3", "2": "-1/6"},
               "omega": {"0,1": "1", "0,2": "2", "1,2": "-1"}}
        path = tmp_path / "zdata.json"
        path.write_text(json.dumps(doc))
        code, out = run_json("extend", str(path), "--grid", "16")
        assert code == 0 and out["config"]["grid"] == 16
        code, out = run_json("extend", str(path))
        assert code == 0 and out["config"]["grid"] == 24


class TestExitCodes:
    def test_missing_file(self):
        assert run("invariants", "/does/not/exist.json").returncode == 2

    def test_unknown_command(self):
        assert run("frobnicate").returncode == 2

    def test_missing_argument(self):
        assert run("classify").returncode == 2

    @pytest.mark.parametrize("argv", [
        ("cohomology", "--surface", "1,2", "--seed", "3"),
        ("parse", "doc.json", "--grid", "8"),
        ("invariants", "doc.json", "--seed", "1"),
        ("classify", "a.json", "b.json", "--emit-plot", "out.csv"),
        ("moser", "a.json", "b.json", "--grid", "8"),
        ("extend", "doc.json", "--seed", "1"),
    ])
    def test_unread_flag_rejected(self, argv):
        proc = run(*argv)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == ""
