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


def bform_doc(tmp_path, name, alpha, beta, f="y", names=("x", "y"),
              params=(), y_interval=(-1, 1)):
    doc = {"schema": "bgeo/1", "kind": "bform", "degree": 2, "zcoord": "y",
           "f": f,
           "patch": {"names": list(names),
                     "intervals": [[-1, 1], list(y_interval)],
                     "periods": [None, None], "params": list(params)},
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


    @pytest.mark.parametrize("P", ["1e999999", "2^99999999*h"])
    def test_huge_constant(self, tmp_path, P):
        # a constant no float holds: one JSON error, not an OverflowError
        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
               "P": P}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = run("invariants", str(path), "--grid", "8")
        assert proc.returncode == 1
        assert "error" in json.loads(proc.stdout)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("P", ["h/(h-h)", "h*0^-1", "h + 1/(h-h)"])
    def test_division_by_zero(self, tmp_path, P):
        # a parse error, not "non-finite value inf" after sampling
        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
               "P": P}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc))
        proc = run("invariants", str(path), "--grid", "8")
        assert proc.returncode == 1
        assert "division by zero" in json.loads(proc.stdout)["error"]
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

    def test_poincare_warning_in_report(self):
        # Betti numbers without Poincare symmetry: the library's warning is
        # listed in the report, and stderr stays empty
        proc = run("cohomology", "--betti-m", "1,0,0", "--betti-z", "1,1")
        doc = json.loads(proc.stdout)
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(doc["warnings"]) == 1 and "Poincare" in doc["warnings"][0]
        assert doc["b_betti"] == [1, 1, 1]
        # a symmetric input has no warnings key
        assert "warnings" not in run_json("cohomology", "--surface", "1,2")[1]

    @pytest.mark.parametrize("surface", ["1,0", "1,-2"])
    def test_surface_needs_a_curve(self, capsys, surface):
        from bgeo import cli

        assert cli.main(["cohomology", "--surface=" + surface]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schema", "error"}
        assert "at least one zero curve" in doc["error"]
        assert cli.main(["cohomology", "--surface=1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert tuple(doc["poisson_betti"]) == (1, 4, 3)

    @pytest.mark.parametrize("surface", ["1,2", "2,3", "0,1"])
    def test_surface_report_as_per_curve_table(self, capsys, surface):
        # the closed form prints the report that the table of one (1, 1)
        # component per curve gives, byte for byte
        from bgeo import cli, serialize as ser
        from bgeo.cohomology import (BettiData, b_betti, nonvanishing_witness,
                                     poisson_betti)

        g, n = map(int, surface.split(","))
        data = BettiData(2, (1, 2 * g, 1), ((1, 1),) * n)
        witness = nonvanishing_witness(data)
        want = ser.dumps_canonical({
            "b_betti": b_betti(data), "poisson_betti": poisson_betti(data),
            "consistent": witness.consistent,
            "reasons": list(witness.reasons), "schema": ser.SCHEMA}) + "\n"
        assert cli.main(["cohomology", "--surface", surface]) == 0
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("betti_z,reasons", [
        ([], ["b-H^2 vanishes"]),
        (["--betti-z", "1;1"], ["component 0 has b_1 = 0",
                                "component 1 has b_1 = 0", "b-H^2 vanishes"]),
    ])
    def test_one_manifold(self, capsys, betti_z, reasons):
        # a 1-manifold has no b-H^2, and its hypersurface no b_1: each
        # missing degree counts 0
        from bgeo import cli

        assert cli.main(["cohomology", "--betti-m", "1,1"] + betti_z) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert err == "" and doc["consistent"] is False
        assert doc["reasons"] == reasons

    @pytest.mark.parametrize("argv", [
        ["--surface", "1"], ["--surface", "a,b"], ["--surface", "1,2,3"],
        ["--surface", "1,"], ["--betti-m", "1,,1"], ["--betti-m", "1,x,1"],
        ["--betti-m", "1,0,1", "--betti-z", "1,a"],
        ["--betti-m", "1,0,1", "--betti-z", "1,1;;1,1"],
        ["--betti-m", "1,0,1", "--betti-z", ""],
        # past 4000 digits: int() refused 5000 ones, and str() the n + 1 of
        # 4300 nines, in errors that did not name the flag
        ["--surface", "1," + "1" * 5000], ["--surface", "0," + "9" * 4300],
        ["--betti-m", "1," + "1" * 5000 + ",1"],
        ["--betti-m", "1,0,1", "--betti-z", "1," + "9" * 4001],
    ])
    def test_list_knob_names_its_flag(self, capsys, argv):
        from bgeo import cli

        assert cli.main(["cohomology"] + argv) == 1
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {"schema", "error"} and err == ""
        assert doc["error"].startswith(argv[-2] + " must be")

    def test_longest_integers_print(self, capsys):
        # 4000 digits is the most a list-knob entry may have
        from bgeo import cli

        n = 10 ** 4000 - 1
        assert cli.main(["cohomology", "--surface", "%d,%d" % (n, n)]) == 0
        assert json.loads(capsys.readouterr().out)["b_betti"] == [
            1, 3 * n, n + 1]
        m = ",".join([str(n)] * 3)
        assert cli.main(["cohomology", "--betti-m", m,
                         "--betti-z", ";".join([str(n) + ",1"] * 20)]) == 0
        assert json.loads(capsys.readouterr().out)["b_betti"] == [
            n, 21 * n, n + 20]

    def test_surface_huge_curve_count(self, capsys):
        from bgeo import cli

        n = 10 ** 11
        assert cli.main(["cohomology", "--surface", "0,%d" % n]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_betti"] == doc["poisson_betti"] == [1, n, n + 1]
        assert doc["consistent"] and doc["reasons"] == []


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

    @pytest.mark.parametrize("f", ["(" * 3000 + "y" + ")" * 3000,
                                   "sin(" * 3000 + "y" + ")" * 3000],
                             ids=["parentheses", "sin"])
    def test_deep_nesting(self, tmp_path, f):
        path = bform_doc(tmp_path, "w.json", {"0": "1"}, {}, f=f)
        proc = run("check", path)
        assert proc.returncode == 1
        assert "nested deeper" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("f, alpha", [
        ("y*1e999999", "1"), ("y*2^99999999", "1"), ("y^3000000000", "1"),
        ("y", "1e400"), ("y", "1e999999")])
    def test_huge_constant(self, tmp_path, f, alpha):
        path = bform_doc(tmp_path, "w.json", {"0": alpha}, {}, f=f)
        proc = run("check", path, "--grid", "8")
        assert proc.returncode == 1
        assert "error" in json.loads(proc.stdout)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("f, alpha", [("y", "1e999999999"),
                                          ("y*1e-999999999", "1")])
    def test_huge_literal(self, tmp_path, f, alpha):
        # refused from the literal's exponent, before its exact value
        path = bform_doc(tmp_path, "w.json", {"0": alpha}, {}, f=f)
        proc = subprocess.run(CMD + ["check", path], capture_output=True,
                              text=True, timeout=10)
        assert proc.returncode == 1
        assert "number exceeds" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("f, alpha", [("y", "x/0"), ("y/(y-y)", "1"),
                                          ("y", "1 + 0^-1")])
    def test_division_by_zero(self, tmp_path, f, alpha):
        path = bform_doc(tmp_path, "w.json", {"0": alpha}, {}, f=f)
        proc = run("check", path)
        assert proc.returncode == 1
        assert "division by zero" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr

    def test_grid_only_when_sampled(self, tmp_path):
        # a constant top coefficient is decided symbolically: no grid
        path = bform_doc(tmp_path, "w.json", {"0": "1"}, {})
        code, doc = run_json("check", path, "--grid", "8")
        assert code == 0 and doc["nondegeneracy"] == "nonvanishing-symbolic"
        assert doc["config"] == {}
        path = bform_doc(tmp_path, "w.json", {"0": "2+x"}, {})
        code, doc = run_json("check", path, "--grid", "8")
        assert code == 0 and doc["nondegeneracy"] == "nonvanishing-grid"
        assert doc["config"] == {"grid": 8}
        # an integer, as invariants, classify and darboux print it
        assert type(doc["detail"]["grid_per_axis"]) is int

    def test_no_finite_grid_value(self, tmp_path):
        # the top coefficient is nan at every grid point: an error, not a
        # verdict resting on min_abs = Infinity, which is not JSON
        path = bform_doc(tmp_path, "w.json", {"0": "(-1-x^2)^(1/2)"}, {})
        code, doc = run_json("check", path)
        assert code == 1
        assert doc["error"] == "non-finite value nan"

    def test_partly_non_finite_grid_value(self, tmp_path):
        # nan for x < -1/2, half the grid: an error, not nonvanishing-grid
        # from the finite half (min_abs 1.089)
        path = bform_doc(tmp_path, "w.json", {"0": "1 + (x + 1/2)^(1/2)"}, {})
        code, doc = run_json("check", path)
        assert code == 1
        assert doc["error"] == "non-finite value nan"

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


    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        from bgeo import cli

        path = bform_doc(tmp_path, "w.json", {"1": "-(1+z2^2)"}, {},
                         f="z1", names=("z1", "z2"))
        assert cli.main(["darboux", path, "--seed", "-5"]) == 1
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {"schema", "error"} and err == ""
        assert "--seed" in doc["error"] and "-5" in doc["error"]

    @staticmethod
    def _darboux_out(capsys, path, *extra):
        from bgeo import cli

        code = cli.main(["darboux", str(path)] + list(extra))
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    @pytest.mark.parametrize("names, f, alpha, beta", [
        # 2-D: dt/dy - g is nan for z1 < -1/2, where g is
        (("z1", "z2"), "z1", {"1": "-(3 + sin(z2^2) + (z1 + 1/2)^(1/2))"},
         {}),
        # 4-D: the beta entry is the log of a negative number everywhere
        (("x1", "y1", "x2", "y2"), "x1", {"1": "1"},
         {"2,3": "1 + log(-1 - x2^2)"}),
    ], ids=["2d", "4d"])
    def test_non_finite_residual(self, tmp_path, capsys, names, f, alpha,
                                 beta):
        # the residuals were masked: ok true with max_residual over the
        # finite ones only (0.0 in 4-D, where none is finite)
        doc = {"schema": "bgeo/1", "kind": "bform", "degree": 2,
               "zcoord": f, "f": f,
               "patch": {"names": list(names),
                         "intervals": [[-1, 1]] * len(names)},
               "alpha": alpha, "beta": beta}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        code, out = self._darboux_out(capsys, path)
        assert code == 1
        assert json.loads(out)["error"] == "non-finite value nan"

    def test_no_grid_above_two_dimensions(self, tmp_path, capsys):
        # no grid is sampled on a 4-D patch: the report does not list one
        doc = {"schema": "bgeo/1", "kind": "bform", "degree": 2,
               "zcoord": "x1", "f": "x1",
               "patch": {"names": ["x1", "y1", "x2", "y2"],
                         "intervals": [[-1, 1]] * 4},
               "alpha": {"1": "1"}, "beta": {"2,3": "1 + x2*y1/4"}}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        code, out = self._darboux_out(capsys, path, "--grid", "8")
        assert (code, out) == self._darboux_out(capsys, path, "--grid", "64")
        assert code == 1 and json.loads(out)["config"] == {"seed": 0}

    def test_declared_parameter(self, tmp_path):
        # declared parameters take the value 1.0 in the grid checks
        doc = {"schema": "bgeo/1", "kind": "bform", "degree": 2,
               "zcoord": "z", "f": "z",
               "patch": {"names": ["z", "y"],
                         "intervals": [[-1, 1], [-1, 1]],
                         "periods": [None, None], "params": ["a"]},
               "alpha": {"1": "a + 2"}, "beta": {}}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        proc = run("darboux", str(path))
        out = json.loads(proc.stdout)
        assert proc.returncode == (0 if out["ok"] else 1)
        assert "Traceback" not in proc.stderr
        assert out["forward"] == ["z", "-2*y - a*y"]


class TestMoser:
    def test_perturbed_pair(self, tmp_path):
        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        code, doc = run_json("moser", p0, p1, "--points", "50")
        assert code == 0 and doc["ok"]
        assert doc["max_residual"] < 1e-5
        assert doc["vfield_on_Z_max"] < 1e-8
        assert doc["steps"] == 256

    def test_points_past_the_flow_batch_cap(self, tmp_path):
        # 10^11 points tried to allocate terabytes (exit 3); the flow
        # batch is capped at GRID_CAP points, so 400,000 on a 2-D patch
        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        for points in ("100000000000", "400001"):
            code, doc = run_json("moser", p0, p1, "--points", points)
            assert code == 1
            assert "--points" in doc["error"] and "400000" in doc["error"]

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

    @staticmethod
    def _moser_out(capsys, tmp_path, beta, **patch):
        """Exit code and stdout of moser, in process, on dx^dy/f against
        dx^dy/f + beta dx^dy."""
        from bgeo import cli

        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {}, **patch)
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": beta},
                       **patch)
        code = cli.main(["moser", p0, p1, "--points", "50"])
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    def test_declared_parameter_is_one(self, capsys, tmp_path):
        # a declared parameter reads 1.0 in the flow: the report is that
        # of the pair with 1 in its place, byte for byte
        code, out = self._moser_out(capsys, tmp_path, "a*y/4", params=["a"])
        assert code == 0 and json.loads(out)["ok"]
        assert (code, out) == self._moser_out(capsys, tmp_path, "y/4")

    def test_component_away_from_zero(self, capsys, tmp_path):
        # the root y = 1/2 is snapped to an exact rational, so f factors
        code, out = self._moser_out(capsys, tmp_path, "(y - 1/2)/4",
                                    f="y - 1/2")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["collar_radius"] == 0.25

    def test_non_finite_residual(self, capsys, tmp_path):
        # 12 of the 50 residuals are nan: the report said ok true with
        # max_residual 0.0, as max([0.0, nan]) is 0.0
        from bgeo import cli

        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"},
                       {"0,1": "y*log(x + 1/2)"})
        code = cli.main(["moser", p0, p1, "--points", "50", "--steps", "32"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert json.loads(out)["error"] == "non-finite value nan"

    def test_no_zeros_in_patch(self, capsys, tmp_path):
        code, out = self._moser_out(capsys, tmp_path, "y/4",
                                    y_interval=(1, 2))
        assert code == 1
        assert json.loads(out)["error"] == ("defining function has no "
                                            "zeros in the patch")

    @pytest.mark.parametrize("steps", ["1000000", "1" + "0" * 400])
    def test_steps_past_the_flow_budget(self, tmp_path, capsys, steps):
        # at one point a million steps would take minutes, and 10^400 made
        # a step size of 0.0 (exit 3); the flow budget refuses both at once
        import time

        from bgeo import cli
        from bgeo.normalform import FLOW_BUDGET, STEP_OVERHEAD

        p0 = bform_doc(tmp_path, "w0.json", {"0": "1"}, {})
        p1 = bform_doc(tmp_path, "w1.json", {"0": "1"}, {"0,1": "y"})
        t0 = time.perf_counter()
        code = cli.main(["moser", p0, p1, "--points", "1", "--steps", steps])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 1 and err == "" and elapsed < 1.0
        most = FLOW_BUDGET // (5 + STEP_OVERHEAD)
        assert "--steps" in json.loads(out)["error"]
        assert " at most %d " % most in json.loads(out)["error"]

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

    def test_huge_eps_is_quiet(self, tmp_path):
        # products past the float range in the zero scan and the falsi
        # point printed RuntimeWarnings; the report is the bytes it was
        import hashlib

        path = self._torus3_doc(tmp_path, "(2 + cos(theta1))/6")
        proc = run("extend", path, "--eps", "1e300")
        assert proc.returncode == 0 and proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "571a0c4ee549df7440de206248790d6da0bc1a69098c86312693021c29ef7f6b")

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
        code, out = run_json("extend", str(path), "--grid", "16")
        assert code == 1
        assert not out["defining_forms"]["alpha_nonvanishing"]
        # the defining forms fail before any grid is sampled
        assert out["config"] == {"eps": 1.0}

    @staticmethod
    def _torus3_doc(tmp_path, alpha0):
        two_pi = 2 * math.pi
        doc = {"schema": "bgeo/1", "kind": "zdata",
               "patch": {"names": ["theta1", "theta2", "theta3"],
                         "intervals": [[0, two_pi]] * 3,
                         "periods": [two_pi] * 3},
               "alpha": {"0": alpha0, "1": "1/3", "2": "-1/6"},
               "omega": {"0,1": "1", "0,2": "2", "1,2": "-1"}}
        path = tmp_path / "zdata.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _torus3_params_doc(tmp_path, params):
        """test_torus3's document with the given "params" field."""
        two_pi = 2 * math.pi
        doc = {"schema": "bgeo/1", "kind": "zdata",
               "patch": {"names": ["theta1", "theta2", "theta3"],
                         "intervals": [[0, two_pi]] * 3,
                         "periods": [two_pi] * 3, "params": ["a", "b"]},
               "alpha": {"0": "a/(a^2+b^2+1)", "1": "b/(a^2+b^2+1)",
                         "2": "-1/(a^2+b^2+1)"},
               "omega": {"0,1": "1", "0,2": "b", "1,2": "-a"},
               "params": params}
        path = tmp_path / "zdata.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_some_params_substituted(self, capsys, tmp_path):
        # a is replaced by 2.0; b stays declared and is 1.0 in the checks
        path = self._torus3_params_doc(tmp_path, {"a": 2})
        code, out = _main_json(capsys, "extend", path)
        assert code == 0 and out["ok"] and all(out["defining_forms"].values())
        patch = out["model"]["patch"]
        assert patch["params"] == ["b"]
        assert out["model"]["alpha"]["0"] == "2.0/(5.0 + b^2)"
        code, out = _main_json(capsys, "parse", path)
        assert code == 0 and out["normalized"]["patch"]["params"] == ["b"]

    def test_grid_reported(self, tmp_path):
        # alpha depends on theta1: the grid decides nondegeneracy
        path = self._torus3_doc(tmp_path, "(2 + cos(theta1))/6")
        code, out = run_json("extend", path, "--grid", "16")
        assert code == 0 and out["nondegeneracy"] == "nonvanishing-grid"
        assert out["config"] == {"eps": 1.0, "grid": 16}
        code, out = run_json("extend", path)
        assert code == 0 and out["config"]["grid"] == 24

    def test_partly_non_finite_alpha(self, tmp_path):
        # alpha's first component is nan for theta1 < 1: an error, not a
        # nonvanishing verdict from the finite values
        path = self._torus3_doc(tmp_path, "(theta1 - 1)^(1/2)")
        code, out = run_json("extend", path, "--grid", "16")
        assert code == 1
        assert out["error"] == "non-finite value nan"

    def test_symbolic_verdict_has_no_grid(self, tmp_path):
        path = self._torus3_doc(tmp_path, "1/6")
        code, out = run_json("extend", path, "--grid", "16")
        assert code == 0 and out["nondegeneracy"] == "nonvanishing-symbolic"
        assert out["config"] == {"eps": 1.0}


class TestExitCodes:
    def test_missing_file(self):
        assert run("invariants", "/does/not/exist.json").returncode == 2

    def test_unknown_command(self):
        assert run("frobnicate").returncode == 2

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out = _main_json(capsys, "parse", path)
        assert code == 1 and "nested" in out["error"]

    def test_unreadable_input(self, tmp_path):
        # a directory cannot be read as a document: exit 2, like a missing
        # file, with a JSON error
        proc = run("parse", str(tmp_path))
        assert proc.returncode == 2 and proc.stderr == ""
        assert set(json.loads(proc.stdout)) == {"schema", "error"}

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

    @pytest.mark.parametrize("argv", [
        ("parse", "DOC"), ("check", "DOC"), ("invariants", "DOC"),
        ("classify", "DOC", "DOC"), ("darboux", "DOC"),
        ("moser", "DOC", "DOC"), ("extend", "DOC"),
    ], ids=lambda argv: argv[0])
    def test_array_document(self, tmp_path, argv):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        proc = run(*(str(path) if a == "DOC" else a for a in argv))
        assert proc.returncode == 1
        assert "JSON object" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr


class TestGridKnob:
    """A --grid below 2 samples nothing: a JSON error naming --grid."""

    @staticmethod
    def _argv(tmp_path, sphere_doc, command):
        bform = bform_doc(tmp_path, "w.json", {"0": "2+x"}, {})
        zdata = TestExtend._torus3_doc(tmp_path, "(2 + cos(theta1))/6")
        return {"check": [bform], "invariants": [sphere_doc],
                "classify": [sphere_doc, sphere_doc], "darboux": [bform],
                "extend": [zdata]}[command]

    @pytest.mark.parametrize("grid", ["-2", "0", "1"])
    @pytest.mark.parametrize("command", ["check", "invariants", "classify",
                                         "darboux", "extend"])
    def test_grid_below_two(self, tmp_path, sphere_doc, command, grid):
        argv = self._argv(tmp_path, sphere_doc, command)
        proc = run(command, *argv, "--grid", grid)
        assert proc.returncode == 1
        assert "--grid" in json.loads(proc.stdout)["error"]
        assert "Traceback" not in proc.stderr


class TestGridCap:
    """A grid past 2,000,000 points is sampled with fewer points per axis,
    at once, and the report says how many."""

    def test_check_huge_grid(self, tmp_path, capsys):
        import time

        from bgeo import cli

        path = bform_doc(tmp_path, "w.json", {"0": "2+x"}, {})
        t0 = time.perf_counter()
        code = cli.main(["check", path, "--grid", "1000000000"])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert doc["nondegeneracy"] == "nonvanishing-grid"
        assert doc["detail"]["grid_per_axis"] == 1414
        assert doc["config"] == {"grid": 1000000000}
        assert elapsed < 1.0

    def test_darboux_huge_grid(self, tmp_path, capsys):
        from bgeo import cli

        doc = json.loads(open(bform_doc(tmp_path, "w.json",
                                        {"1": "-(1+z2^2)"}, {}, f="z1",
                                        names=("z1", "z2"))).read())
        doc["zcoord"] = "z1"
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["darboux", str(path), "--grid", "100000"]) == 0
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert rep["ok"] and rep["grid_per_axis"] == 1414 and err == ""
        assert rep["forward"] == ["z1", "z2 + 1/3*z2^3"]
        # a grid the cap does not lower has no count in the report
        for extra in ([], ["--grid", "1414"]):
            assert cli.main(["darboux", str(path)] + extra) == 0
            assert "grid_per_axis" not in json.loads(capsys.readouterr().out)


    def test_invariants_huge_grid(self, sphere_doc, capsys):
        from bgeo import cli

        assert cli.main(["invariants", sphere_doc, "--grid", "100000"]) == 0
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert rep["grid_per_axis"] == 1414 and err == ""
        assert rep["n"] == 1 and rep["config"]["grid"] == 100000
        assert rep["periods"][0] == pytest.approx(2 * math.pi, abs=1e-6)
        # the largest grid the cap does not lower has no count in the report
        assert cli.main(["invariants", sphere_doc, "--grid", "1414"]) == 0
        assert "grid_per_axis" not in json.loads(capsys.readouterr().out)


class TestKnobRange:
    """A tolerance below 0 or not finite, or an --eps that is not finite
    and positive, is a JSON error naming the flag, before any document is
    read."""

    @pytest.mark.parametrize("value", ["-1", "-1e-300", "nan", "inf"])
    @pytest.mark.parametrize("argv,flag", [
        (["invariants", "DOC"], "--tol-log"),
        (["classify", "DOC", "DOC"], "--tol"),
        (["moser", "DOC", "DOC"], "--tol-residual"),
        (["moser", "DOC", "DOC"], "--tol-tangency"),
    ])
    def test_tolerance(self, capsys, argv, flag, value):
        from bgeo import cli

        # the document does not exist: a knob error comes first
        argv = [a.replace("DOC", "/does/not/exist.json") for a in argv]
        assert cli.main(argv + [flag + "=" + value]) == 1
        out, err = capsys.readouterr()
        assert set(json.loads(out)) == {"schema", "error"} and err == ""
        assert json.loads(out)["error"].startswith(flag + " must be")

    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
    def test_eps(self, capsys, value):
        from bgeo import cli

        argv = ["extend", "/does/not/exist.json", "--eps=" + value]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"].startswith(
            "--eps must be")

    @pytest.mark.parametrize("argv,flag,value", [
        (["check", "DOC"], "--grid", "1"),
        (["moser", "DOC", "DOC"], "--points", "0"),
        (["moser", "DOC", "DOC"], "--steps", "-1"),
        (["darboux", "DOC"], "--seed", "-1"),
    ])
    def test_integer(self, capsys, argv, flag, value):
        from bgeo import cli

        # the document does not exist: a knob error comes first
        argv = [a.replace("DOC", "/does/not/exist.json") for a in argv]
        assert cli.main(argv + [flag, value]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == "%s must be at least %d, got %s" % (
            flag, {"--grid": 2, "--seed": 0}.get(flag, 1), value)

    def test_zero_tolerance_runs(self, tmp_path, capsys):
        from bgeo import cli

        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "torus",
               "P": "sin(t1)"}
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(doc))
        # the same structure: equivalent at any tolerance, 0 included
        argv = ["classify", str(path), str(path), "--grid", "16", "--tol"]
        assert cli.main(argv + ["0"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 0.0


class TestNonStringExpression:
    """An expression that is JSON null or a number is an invalid document
    (exit 1), never an internal error."""

    @staticmethod
    def _run(capsys, tmp_path, command, doc):
        from bgeo import cli

        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert "must be a string" in json.loads(out)["error"]

    @pytest.mark.parametrize("value", [None, 5])
    @pytest.mark.parametrize("field", ["P", "V"])
    def test_surface(self, capsys, tmp_path, field, value):
        doc = {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
               "P": "h", "V": "1"}
        doc[field] = value
        self._run(capsys, tmp_path, "invariants", doc)

    @pytest.mark.parametrize("value", [None, 2.5])
    @pytest.mark.parametrize("where", ["f", "alpha"])
    def test_bform(self, capsys, tmp_path, where, value):
        doc = json.loads(open(bform_doc(tmp_path, "w.json",
                                        {"0": "2+x"}, {})).read())
        if where == "f":
            doc["f"] = value
        else:
            doc["alpha"]["0"] = value
        self._run(capsys, tmp_path, "check", doc)

    @pytest.mark.parametrize("value", [None, 3])
    def test_zdata(self, capsys, tmp_path, value):
        doc = json.loads(open(TestExtend._torus3_doc(tmp_path, "1/6")).read())
        doc["alpha"]["1"] = value
        self._run(capsys, tmp_path, "extend", doc)


def _main_json(capsys, *argv):
    """Exit code and report of one in-process run, checking that it prints
    one JSON object and nothing on stderr."""
    from bgeo import cli

    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


class TestTypedReads:
    """A field of the wrong JSON type is an invalid document (exit 1)
    whose error names the field, never an internal error."""

    @staticmethod
    def _docs(tmp_path):
        return {"surface": {"schema": "bgeo/1", "kind": "surface",
                            "topology": "sphere", "P": "h", "V": "1",
                            "orientation": 1},
                "bform": json.loads(open(bform_doc(
                    tmp_path, "w.json", {"0": "2+x"}, {})).read()),
                "zdata": json.loads(open(TestExtend._torus3_doc(
                    tmp_path, "1/6")).read())}

    @pytest.mark.parametrize("kind,path,value,command", [
        ("surface", ("orientation",), True, "invariants"),
        ("surface", ("orientation",), [1], "parse"),
        ("surface", ("topology",), ["sphere"], "parse"),
        ("bform", ("degree",), [2], "check"),
        ("bform", ("degree",), 2.0, "parse"),
        ("bform", ("patch", "intervals"), [1, 2], "check"),
        ("bform", ("patch", "intervals"), [[-1, 1], [-1, "1"]], "darboux"),
        ("bform", ("patch", "intervals"), [[-1, 1], [-1, 10 ** 400]],
         "check"),
        ("bform", ("patch", "names"), "xy", "check"),
        ("bform", ("patch", "periods"), [None, "2"], "parse"),
        ("bform", ("patch", "params"), {"a": 1}, "parse"),
        ("bform", ("patch",), [], "check"),
        ("bform", ("alpha",), ["2+x"], "check"),
        ("bform", ("zcoord",), {"y": 1}, "darboux"),
        ("zdata", ("omega",), [], "extend"),
        ("zdata", ("params",), ["a"], "extend"),
        ("zdata", ("params",), {"a": "1"}, "parse"),
        ("zdata", ("kind",), ["zdata"], "parse"),
    ])
    def test_wrong_type(self, capsys, tmp_path, kind, path, value, command):
        top = self._docs(tmp_path)[kind]
        doc = top
        for k in path[:-1]:
            doc = doc[k]
        doc[path[-1]] = value
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(top))
        code, out = _main_json(capsys, command, target)
        assert code == 1
        assert path[-1] in out["error"]

    def test_params_name_undeclared(self, capsys, tmp_path):
        doc = TestExtend._torus3_params_doc(tmp_path, {"a": 1.0, "c": 2.0})
        code, out = _main_json(capsys, "extend", doc)
        assert code == 1 and "'c'" in out["error"]


class TestLastResort:
    def test_internal_error(self, monkeypatch, capsys):
        from bgeo import cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_cohomology", broken)
        assert cli.main(["cohomology", "--surface", "1,2"]) == 3
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {"schema", "error"}
        assert "RuntimeError" in doc["error"] and "boom" in doc["error"]
        assert "Traceback" not in err and err == ""


class TestImports:
    def test_no_scipy_at_import(self):
        # numpy is the only runtime dependency; surface2d still hands out
        # scipy's brentq and quad on request
        code = (
            "import sys\n"
            "import bgeo.cli, bgeo.normalform, bgeo.extension\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n"
            "import bgeo.surface2d, scipy.integrate, scipy.optimize\n"
            "print(bgeo.surface2d.brentq is scipy.optimize.brentq,\n"
            "      bgeo.surface2d.quad is scipy.integrate.quad)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True True"]
