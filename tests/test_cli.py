"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heiscurves as hc
from heiscurves import analysis, cli, curves, factory, manifold, numerics
from heiscurves.cli import main

from conftest import FIGURE1_ALPHA0, assert_nan_outside, inflection_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_parser_error(capsys, *argv):
    """stdout and stderr of a command line that argparse rejects (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestTensors:
    def test_heisenberg_reference_match(self, capsys):
        code, out, _ = run(capsys, "tensors", "--m", "0", "--l", "1")
        assert code == 0
        assert out.count("MATCH") == 6  # 3 Riemann + 3 Ricci reference values
        assert "MISMATCH" not in out
        assert "R_1212 = -0.75" in out
        assert "PASS" in out

    def test_constant_curvature_member(self, capsys):
        code, out, _ = run(capsys, "tensors", "--m", "1", "--l", "2", "--point", "0,0,0")
        assert code == 0
        for pair in ("K(e1, e2)", "K(e1, e3)", "K(e2, e3)"):
            line = next(l for l in out.splitlines() if pair in l)
            assert float(line.split("=")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_left_invariance_of_tables(self, capsys, tmp_path):
        # frame-basis tables at another point coincide with the origin tables
        j0 = tmp_path / "origin.json"
        j1 = tmp_path / "moved.json"
        run(capsys, "tensors", "--m", "0", "--l", "1", "--json", str(j0))
        run(capsys, "tensors", "--m", "0", "--l", "1", "--point", "1,1,0", "--json", str(j1))
        a = json.loads(j0.read_text())
        b = json.loads(j1.read_text())
        assert np.abs(np.array(a["connection"]) - np.array(b["connection"])).max() < 1e-15
        assert np.abs(np.array(a["riemann"]) - np.array(b["riemann"])).max() < 1e-15

    # (m, l, point, max(1, max|G|), max|E|): max|E| is F = 1 + m (x^2 + y^2)
    # or |l| r / 2, whichever is larger
    @pytest.mark.parametrize("m,l,point,scale,reach", [
        ("0", "1", "10,10,0", 1.0, 5.0), ("0", "1", "100,-50,3", 1.0, 50.0),
        ("0.25", "1.2", "1.5,1.5,0", 1.0, 2.125), ("1", "2", "3,0,0", 6.0, 10.0),
        ("2", "1", "300,-100,5", 1200.0, 200001.0), ("0.25", "1.2", "1000,0,0", 500.0, 250001.0),
        ("2", "1", "1000,0,0", 4000.0, 2000001.0), ("0", "3", "10000,1000,0", 1.5, 15000.0),
    ])
    def test_cross_check_passes_away_from_origin(self, capsys, m, l, point, scale, reach):
        # the frame coefficients grow with the point, and so does the
        # stencil step; the roundoff of the numeric route grows with the
        # connection entries max|G| (2m x, 2m y) and, for the curvature, with
        # the frame's reach max|E| too, and the tolerance with them
        code, out, _ = run(capsys, "tensors", "--m", m, "--l", l, "--point", point)
        assert code == 0
        tols = [float(v) for v in re.findall(r"\(tol ([^)]*)\)", out.splitlines()[-1])]
        curv_tol = max(1e-8 * scale**2, manifold._ROUNDOFF * reach * scale)
        printed = [float(f"{v:g}") for v in (1e-8 * scale, curv_tol)]  # as the line gives them
        assert tols == pytest.approx(printed, rel=1e-12)
        assert out.splitlines()[-1].endswith(" PASS")

    def test_cross_check_at_the_origin(self, capsys):
        # manifold.cross_check: both deviations within their tolerances, and
        # the tolerances are the ones the tensors line prints
        conn_dev, conn_tol, curv_dev, curv_tol = manifold.cross_check(hc.HEISENBERG, np.zeros(3))
        assert conn_dev <= conn_tol and curv_dev <= curv_tol
        code, out, _ = run(capsys, "tensors", "--m", "0", "--l", "1")
        assert code == 0
        last = out.splitlines()[-1]
        assert re.findall(r"\(tol ([^)]*)\)", last) == [f"{conn_tol:g}", f"{curv_tol:g}"]
        assert re.findall(r"dev (\S+)", last) == [f"{conn_dev:.3e}", f"{curv_dev:.3e}"]

    def test_cross_check_fails_on_a_wrong_table(self, capsys, monkeypatch):
        exact = manifold.curvature_table

        def perturbed(params, p):
            R = np.array(exact(params, p))
            R[0, 1, 0, 1] += 1e-6
            return R

        monkeypatch.setattr(manifold, "curvature_table", perturbed)
        code, out, _ = run(capsys, "tensors", "--m", "0", "--l", "1")
        assert code == 1
        assert out.splitlines()[-1].endswith("(tol 1e-08) FAIL")

    @pytest.mark.parametrize("flag,value", [("--m", "nan"), ("--l", "inf"), ("--m", "-inf")])
    def test_nonfinite_manifold_flag_exit_two(self, capsys, flag, value):
        # NaN tables would fail the cross-check and exit 1, as a verdict would
        code, out, err = run(capsys, "tensors", f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must be finite" in err


class TestManifoldFlags:
    def test_defaults_and_override(self, capsys):
        # without flags the manifold is the Heisenberg group, m = 0 and l = 1
        code, out, _ = run(capsys, "tensors")
        assert code == 0 and "m = 0, l = 1" in out
        code, out, _ = run(capsys, "tensors", "--m", "1", "--l", "2")
        assert code == 0 and "m = 1, l = 2" in out

    @pytest.mark.parametrize("setting", ["--m=nan", "--l=-inf", "--m=1e999"])
    @pytest.mark.parametrize("command", ["verify", "geodesic"])
    def test_nonfinite_manifold_exit_two(self, capsys, tmp_path, command, setting):
        # each command builds the manifold from its own flags; exit 1 means
        # "not biharmonic" to verify, so bad input must not reach a verdict
        argv = {
            "verify": [str(_figure_helix_csv(tmp_path))],
            "geodesic": ["--point", "0,0,0", "--direction", "1,0,0", "--out", str(tmp_path / "g")],
        }[command]
        code, out, err = run(capsys, command, setting, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must be finite" in err
        assert list(tmp_path.glob("g*")) == []


class TestGenerateVerify:
    def _generate(self, capsys, tmp_path, *extra):
        out = tmp_path / "curve"
        code, stdout, _ = run(
            capsys,
            "generate",
            "--sin-alpha0", repr(1.0 / math.sqrt(10.0)),
            "--a", "1", "--b", "1", "--c", "1",
            "--samples", "501",
            "--s1", repr(2.0 * math.pi),
            "--out", str(out),
            *extra,
        )
        return code, stdout, out

    def test_roundtrip_exit_zero(self, capsys, tmp_path):
        code, stdout, out = self._generate(capsys, tmp_path)
        assert code == 0
        assert "nongeodesic_biharmonic" in stdout
        code2, stdout2, _ = run(capsys, "verify", f"{out}.csv")
        assert code2 == 0
        assert "verdict: nongeodesic_biharmonic" in stdout2

    def test_outputs_exist_and_parse(self, capsys, tmp_path):
        _, _, out = self._generate(capsys, tmp_path, "--surfaces")
        frenet = json.loads((tmp_path / "curve.frenet.json").read_text())
        assert frenet["n"] == 501
        report = json.loads((tmp_path / "curve.report.json").read_text())
        assert report["max_interior_residual"] < 1e-5
        params = json.loads((tmp_path / "curve.params.json").read_text())
        assert params["family"] == "biharmonic_helix"
        cls = json.loads((tmp_path / "curve.classification.json").read_text())
        assert cls["verdict"] == "nongeodesic_biharmonic"
        cyl = (tmp_path / "curve.cylinder.csv").read_text().splitlines()
        assert cyl[0] == "u,v,x,y,z"
        hel = (tmp_path / "curve.helicoid.csv").read_text().splitlines()
        assert hel[0] == "u,v,x,y,z"

    def test_surfaces_solve_the_rate_once(self, capsys, tmp_path, monkeypatch):
        # HelixParams keeps its branch root: the curve and both surfaces
        # read it there instead of solving again
        calls = []
        solve = factory.solve_branch_A

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(factory, "solve_branch_A", spy)
        code, _, _ = self._generate(capsys, tmp_path, "--surfaces")
        assert code == 0 and len(calls) == 1

    def test_determinism(self, capsys, tmp_path):
        _, _, out_a = self._generate(capsys, tmp_path, "--surfaces", "--with-velocity")
        (tmp_path / "second").mkdir()
        out_b = tmp_path / "second" / "curve"
        run(
            capsys,
            "generate",
            "--sin-alpha0", repr(1.0 / math.sqrt(10.0)),
            "--a", "1", "--b", "1", "--c", "1",
            "--samples", "501",
            "--s1", repr(2.0 * math.pi),
            "--surfaces", "--with-velocity",
            "--out", str(out_b),
        )
        written = sorted(p.name for p in tmp_path.glob("curve.*"))
        assert len(written) == 8
        assert sorted(p.name for p in out_b.parent.iterdir()) == written
        for name in written:
            assert (tmp_path / name).read_bytes() == (out_b.parent / name).read_bytes(), name

    def test_inadmissible_angle_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "--alpha0", repr(math.pi / 2), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "cos(alpha0)^2 >= 4/5" in err

    def test_frame_undefined_on_the_interior_exit_zero(self, capsys, tmp_path):
        # k is about alpha0^3, below k_floor: there is no frame, so no
        # expansion agreement, and stdout says so as .report.json does
        out = tmp_path / "t"
        code, stdout, err = run(capsys, "generate", "--alpha0", "1e-3", "--samples", "2001",
                                "--out", str(out))
        assert code == 0 and err == ""
        assert "expansion agreement = none\n" in stdout
        assert "verdict: geodesic" in stdout.splitlines()
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["expansion_agreement"] is None

    @pytest.mark.parametrize("flag, value", [("--sin-alpha0", "2")])
    def test_angle_function_outside_its_range_exit_two(self, capsys, tmp_path, flag, value):
        code, stdout, err = run(capsys, "generate", flag, value, "--out", str(tmp_path / "x"))
        assert code == 2 and stdout == ""
        assert err == f"error: {flag} must lie in [-1, 1], got {float(value)!r}\n"

    @pytest.mark.parametrize("angle, message", [
        ([], "one of the arguments --alpha0 --sin-alpha0 is required"),
        (["--alpha0", "0.3", "--sin-alpha0", "0.3"],
         "argument --sin-alpha0: not allowed with argument --alpha0"),
        (["--alpha0", "0.3", "--alpha0-deg", "18"], "unrecognized arguments: --alpha0-deg 18"),
        (["--alpha0", "0.3", "--cos-alpha0", "0.9"], "unrecognized arguments: --cos-alpha0 0.9"),
    ], ids=["none", "both", "degrees", "cosine"])
    def test_axis_angle_given_once_by_one_of_two_flags(self, capsys, tmp_path, angle, message):
        out, err = run_parser_error(capsys, "generate", *angle, "--out", str(tmp_path / "x"))
        assert out == "" and message in err
        assert not list(tmp_path.iterdir())

    def test_boundary_branches_identical(self, capsys, tmp_path):
        alpha = math.acos(2.0 / math.sqrt(5.0))
        outs = []
        for branch in ("plus", "minus"):
            out = tmp_path / branch
            code, _, _ = run(
                capsys,
                "generate",
                "--alpha0", repr(alpha),
                "--branch", branch,
                "--samples", "201",
                "--s1", "6.0",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()

    def test_verify_b3zero_exit_one(self, capsys, tmp_path):
        spec = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        samples = hc.sample_curve(spec, 801)
        path = tmp_path / "b3zero.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "verdict: not_biharmonic" in out
        tau_line = next(l for l in out.splitlines() if "tau_mean" in l)
        assert float(tau_line.split("=")[1]) == pytest.approx(-0.5, abs=1e-4)

    def test_verify_inflection_point_exit_one(self, capsys, tmp_path):
        # a valid curve whose k vanishes at one sample is not biharmonic, not
        # an input error
        path = tmp_path / "inflection.csv"
        hc.write_samples_csv(path, hc.sample_curve(inflection_spec(), 2001), include_velocity=True)
        code, out, err = run(capsys, "verify", str(path), "--json", str(tmp_path / "v.json"))
        assert (code, err) == (1, "")
        assert "verdict: not_biharmonic" in out
        payload = json.loads((tmp_path / "v.json").read_text(), parse_constant=pytest.fail)
        assert payload["verdict"] == "not_biharmonic"
        assert payload["checks"]["system_k_constant"]["passed"] is False

    def test_verify_geodesic_exit_zero(self, capsys, tmp_path):
        spec = hc.geodesic_ivp(hc.HEISENBERG, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        samples = hc.sample_curve(spec, 1601)
        path = tmp_path / "geo.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verdict: geodesic" in out

    def test_verify_bad_input_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n0.1,1,0,0\n0.05,2,0,0\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "row" in err

    def test_verify_nan_velocity_input_error(self, capsys, tmp_path):
        spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 2 * math.pi))
        samples = hc.sample_curve(spec, 401)
        samples.velocity_frame = samples.velocity_frame.copy()
        samples.velocity_frame[250] = np.nan
        path = tmp_path / "nan.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "sample 250" in err

    @pytest.mark.parametrize("column", ["s", "x"])
    def test_verify_nonfinite_position_input_error(self, capsys, tmp_path, column):
        # a nan x used to fail in the chart check without a line, and a nan s
        # passed the spacing check and failed the unit-speed one at sample 7
        spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 2 * math.pi))
        samples = hc.sample_curve(spec, 401)
        path = tmp_path / "nan.csv"
        hc.write_samples_csv(path, samples)
        lines = path.read_text().splitlines()
        fields = lines[11].split(",")
        fields["sx".index(column)] = "nan"
        lines[11] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("input error:")
        assert f"line 12 (sample 10), column {column}" in err

    def test_generate_shares_text_across_files(self, capsys, tmp_path):
        # each file generate writes equals what its writer gives on its own
        _, _, out = self._generate(capsys, tmp_path, "--with-velocity")
        hp = hc.HelixParams(alpha0=math.asin(1.0 / math.sqrt(10.0)), a=1.0, b=1.0, c=1.0)
        samples = hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 2.0 * math.pi)), 501)
        report = hc.bitension_report(samples)
        alone = tmp_path / "alone"
        hc.write_samples_csv(f"{alone}.csv", samples, include_velocity=True)
        hc.residuals_to_csv(f"{alone}.residuals.csv", report)
        for suffix in (".csv", ".residuals.csv"):
            assert Path(f"{out}{suffix}").read_bytes() == Path(f"{alone}{suffix}").read_bytes()
        assert Path(f"{out}.frenet.json").read_text() == hc.frenet_to_json(report.frenet)

    def test_generate_without_velocity_writes_T_in_the_json(self, capsys, tmp_path):
        # the CSV leaves the frame velocity out; .frenet.json still holds T
        code, _, out = self._generate(capsys, tmp_path)
        assert code == 0
        hp = hc.HelixParams(alpha0=math.asin(1.0 / math.sqrt(10.0)), a=1.0, b=1.0, c=1.0)
        samples = hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 2.0 * math.pi)), 501)
        assert Path(f"{out}.csv").read_bytes().startswith(b"s,x,y,z\r\n")
        s, points, vel = hc.read_samples_csv(f"{out}.csv")
        assert vel is None
        assert s.tobytes() == samples.s.tobytes() and points.tobytes() == samples.points.tobytes()
        columns = json.loads(Path(f"{out}.frenet.json").read_text())["columns"]
        assert np.array(columns["T"], float).T.tobytes() == samples.velocity_frame.tobytes()

    def test_verify_malformed_file_input_error(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("s,x,y,z,vx,vy,vz\n0,0,0,0\n0.1,0.1,0,0\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("input error:") and "line 2" in err

    @pytest.mark.parametrize("header", [
        "s,x,y,z,vy,vx,vz", "s,x,y,z,vx,vy", "s,x,y,z,w", "s,x,y,z,vx,vy,vz,extra",
    ])
    def test_verify_unknown_header_input_error(self, capsys, tmp_path, header):
        # rows as wide as the header: velocity columns under another header
        # used to be dropped, and the positions differentiated
        _, _, out = self._generate(capsys, tmp_path, "--with-velocity")
        lines = Path(f"{out}.csv").read_text().splitlines()[1:]
        width = header.count(",") + 1
        rows = [",".join((line.split(",") * 2)[:width]) for line in lines]
        path = tmp_path / "header.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        code, stdout, err = run(capsys, "verify", str(path))
        assert code == 2 and stdout == ""
        assert err.startswith("input error:") and header in err

    def test_verify_digit_underscore_names_line(self, capsys, tmp_path):
        path = tmp_path / "underscore.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n1,1_0,0,0\n2,0,0,0\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("input error:") and "unparseable number at line 3" in err


NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import heiscurves, heiscurves.cli as cli
from heiscurves import factory

csv_path, out = sys.argv[1:]

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

assert quiet("verify", csv_path) == 0
assert quiet("generate", "--sin-alpha0", "0.31622776601683794", "--samples", "201",
             "--surfaces", "--with-velocity", "--out", out) == 0
for m, l in (("0", "1"), ("0.25", "1.2"), ("-0.2", "0.7"), ("1", "2")):
    assert quiet("geodesic", "--m", m, "--l", l, "--point", "0.1,0.2,0",
                 "--direction", "0.6,0,0.8", "--samples", "201",
                 "--out", f"{out}_{m}_{l}") == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]

solve_ivp, results = factory.solve_ivp, []
def counted(*args, **kwargs):
    results.append(solve_ivp(*args, **kwargs))
    return results[-1]
factory.solve_ivp = counted
par = heiscurves.ManifoldParams(0.25, 1.2)
spec = heiscurves.tangent_driven_curve(par, lambda s: [0.6, 0.0, 0.8], [0.1, 0.2, 0.0], (0.0, 1.0))
heiscurves.sample_curve(spec, 11)
assert "scipy" in sys.modules
assert len(results) == 1, results
assert results[0].success and results[0].nfev > 0
print("ok")
"""


def _run_on_helix_csv(script, tmp_path, samples):
    """Run ``script`` in a fresh interpreter on this package, with a CSV of
    ``samples`` (velocities included) and an output prefix as arguments."""
    csv_path = tmp_path / "helix.csv"
    curves.write_samples_csv(csv_path, samples, include_velocity=True)
    src = str(Path(hc.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_scipy_loaded_only_for_odes(tmp_path, figure1_samples):
    """Importing the package, ``verify``, ``generate`` and ``geodesic`` on
    m = 0 and m != 0 members (closed form on all of them) leave scipy
    unimported; sampling a tangent-driven curve imports it and solves one
    ODE."""
    proc = _run_on_helix_csv(NO_SCIPY_SCRIPT, tmp_path, figure1_samples)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


WITHOUT_SCIPY_SCRIPT = r"""
import sys
sys.modules["scipy"] = None  # every import of scipy now fails

import contextlib, io
import numpy as np
import heiscurves
from heiscurves import cli

csv_path, out = sys.argv[1:]

def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

assert quiet("tensors", "--m", "0.25", "--l", "1.2", "--point", "0.3,-0.4,1") == 0
assert quiet("verify", csv_path) == 0
assert quiet("generate", "--sin-alpha0", "0.31622776601683794", "--samples", "201",
             "--surfaces", "--with-velocity", "--out", out) == 0
assert quiet("geodesic", "--m", "0.25", "--l", "1.2", "--point", "0.1,0.2,0",
             "--direction", "0.6,0,0.8", "--samples", "201", "--out", out + "_geo") == 0
assert quiet("cone", "--sweep", "10") == 0
assert quiet("scan", "--count", "10") == 0
bz = heiscurves.sample_curve(heiscurves.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0)), 101)
assert np.isfinite(bz.points).all() and np.isfinite(bz.velocity_frame).all()
spec = heiscurves.tangent_driven_curve(heiscurves.HEISENBERG, lambda s: [0.6, 0.0, 0.8],
                                       [0.0, 0.0, 0.0], (0.0, 1.0))
try:
    heiscurves.sample_curve(spec, 11)
except ModuleNotFoundError as exc:
    assert exc.name.split(".")[0] == "scipy", exc
else:
    raise AssertionError("a tangent-driven curve sampled without scipy")
print("ok")
"""


def test_every_command_runs_without_scipy(tmp_path, figure1_samples):
    """scipy is an optional dependency: with it unimportable, every CLI
    command and the vanishing-B3 family still work, and only sampling a
    tangent-driven curve (an ODE) fails, naming scipy."""
    proc = _run_on_helix_csv(WITHOUT_SCIPY_SCRIPT, tmp_path, figure1_samples)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_cli_import_loads_no_fractions_decimal_or_scipy():
    """Importing the CLI pulls in neither exact-arithmetic module, nor scipy;
    nor orjson, which the sample reader and the writers import when they
    first run."""
    src = str(Path(hc.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = (
        "import sys, heiscurves.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'fractions', 'decimal', 'scipy', 'orjson'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_freezes_the_heap_before_the_interpreter_exits():
    """Importing the CLI registers ``gc.freeze`` at exit, so the
    interpreter skips its last cyclic collection.  atexit runs its handlers
    in reverse order: the check registered before the import runs last."""
    src = str(Path(hc.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = (
        "import atexit, gc; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
        "import heiscurves.cli"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "frozen True"


class TestOneAnalysisPerCurve:
    """``generate`` and ``verify`` differentiate each series once: t1 and
    nabla_T N inside the single Frenet frame, then t2 and t3 for tau2."""

    COUNTED = ("covariant_derivative_along", "frenet_apparatus")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            original = getattr(curves, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            # wrap the name wherever it is bound, as module-level imports copy it
            for module in (hc, analysis, cli, curves, factory, manifold, numerics):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return counts

    def test_generate(self, calls, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "generate",
            "--sin-alpha0", repr(1.0 / math.sqrt(10.0)),
            "--samples", "501",
            "--s1", repr(2.0 * math.pi),
            "--out", str(tmp_path / "curve"),
        )
        assert code == 0
        assert calls == {"covariant_derivative_along": 4, "frenet_apparatus": 1}

    def test_verify(self, calls, capsys, tmp_path):
        spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 2 * math.pi))
        path = tmp_path / "h.csv"
        hc.write_samples_csv(path, hc.sample_curve(spec, 501))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert calls == {"covariant_derivative_along": 4, "frenet_apparatus": 1}

    def test_verify_per_tile(self, calls, capsys, tmp_path):
        # bitension_report runs the chain once per tile: three tiles here
        n = 2 * numerics.TILE + 7
        spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 10 * math.pi))
        path = tmp_path / "h.csv"
        hc.write_samples_csv(path, hc.sample_curve(spec, n), include_velocity=True)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0, out
        tiles = len(list(numerics.tiles(n, 3)))
        assert tiles == 3
        assert calls == {"covariant_derivative_along": 4 * tiles, "frenet_apparatus": tiles}


@pytest.mark.parametrize("with_velocity, checks", [(True, 1), (False, 2)])
def test_verify_checks_the_points_once(capsys, tmp_path, monkeypatch, with_velocity, checks):
    """On a curve of three tiles, ``verify`` checks the points in the chart
    when it builds the samples, and on positions once more when it converts
    their differences to frame components; the tiles, windows of the checked
    samples, check nothing again."""
    calls = []
    original = manifold.conformal_factor

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    n = 2 * numerics.TILE + 7
    spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 10 * math.pi))
    path = tmp_path / "h.csv"
    hc.write_samples_csv(path, hc.sample_curve(spec, n), include_velocity=with_velocity)
    monkeypatch.setattr(manifold, "conformal_factor", counted)
    code, out, _ = run(capsys, "verify", str(path))
    assert code in (0, 1), out
    assert calls == [n] * checks


class TestVerifyWorstSample:
    """``verify`` gives the worst sample's s on the four worst-interior
    checks, and ``--json`` gives its sample and s on every check (null on
    the others); the lines the benchmark reads keep their form."""

    WORST = ("helix_N3B3_zero", "helix_N3_zero", "system_algebraic_relation",
             "system_torsion_derivative")

    def test_lines_and_json(self, capsys, tmp_path):
        spec = hc.helix_family_curve(FIGURE1_ALPHA0, hc.solve_branch_A(FIGURE1_ALPHA0) + 0.05)
        samples = hc.sample_curve(spec, 2001)
        path = tmp_path / "offroot.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        code, out, _ = run(capsys, "verify", str(path), "--json", str(tmp_path / "v.json"))
        assert code == 1
        payload = json.loads((tmp_path / "v.json").read_text())
        lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
        for name, check in payload["checks"].items():
            if name in self.WORST:
                assert samples.interior(3).start <= check["sample"] < samples.interior(3).stop
                assert check["s"] == samples.s[check["sample"]]
                assert lines[name].endswith(f"  at s = {check['s']:.9g}")
            else:
                assert check["sample"] is None and check["s"] is None
                assert "at s =" not in lines[name]
        assert re.search(r"^verdict: helix_not_biharmonic$", out, re.MULTILINE)
        assert re.search(r"^max interior \|tau2\| = \S+$", out, re.MULTILINE)
        assert re.search(r"^  k_mean = \S+$", out, re.MULTILINE)
        assert re.search(r"^  tau_mean = \S+$", out, re.MULTILINE)


class TestWritersPerGenerate:
    """``generate`` writes each per-sample file through its public writer,
    once, so the writers' call counts and bytes describe the files."""

    WRITERS = (
        (curves, "write_samples_csv"), (curves, "write_frenet_json"), (analysis, "residuals_to_csv"),
    )

    def test_generate(self, capsys, monkeypatch, tmp_path):
        counts = {name: 0 for _, name in self.WRITERS}
        for owner, name in self.WRITERS:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (hc, analysis, cli, curves, factory, manifold, numerics):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        code, _, _ = run(
            capsys,
            "generate",
            "--sin-alpha0", repr(1.0 / math.sqrt(10.0)),
            "--samples", "501",
            "--s1", repr(2.0 * math.pi),
            "--surfaces", "--with-velocity",
            "--out", str(tmp_path / "curve"),
        )
        assert code == 0
        assert counts == {"write_samples_csv": 1, "write_frenet_json": 1, "residuals_to_csv": 1}


class TestGeodesicCommand:
    def test_writes_and_reports(self, capsys, tmp_path):
        out = tmp_path / "geo"
        code, stdout, _ = run(
            capsys,
            "geodesic",
            "--point", "0,0,0",
            "--direction", "0.6,0,0.8",
            "--length", "20",
            "--samples", "801",
            "--out", str(out),
        )
        assert code == 0
        drift_line = next(l for l in stdout.splitlines() if "unit-speed drift" in l)
        drift = float(drift_line.split("=")[1].split(",")[0])
        assert drift < 1e-8
        assert (tmp_path / "geo.csv").exists()


# derivative passes behind each per-sample series: positions read back add one
PASSES = {"T": 0, "k": 1, "tau": 2, "N": 2, "B": 2, "cT": 2, "cN": 3, "cB": 3, "residual": 3}


@pytest.mark.parametrize("route", ["velocities", "positions"])
def test_series_are_nan_exactly_past_the_stencils_reach(capsys, tmp_path, route):
    """Every per-sample series of ``generate``'s ``.frenet.json`` and
    ``.residuals.csv``, and ``tension1`` of the ``geodesic`` command's
    curve, is null or ``nan`` exactly outside ``interior(depth)`` for its
    depth and finite inside: on the figure helix from exact velocities, and
    on the CSV of its positions read back."""
    out = tmp_path / "helix"
    assert run(capsys, "generate", "--alpha0", repr(FIGURE1_ALPHA0), "--samples", "1001",
               "--out", str(out))[0] == 0
    if route == "positions":
        samples = hc.import_samples(hc.HEISENBERG, *hc.read_samples_csv(f"{out}.csv"))
        report = hc.bitension_report(samples)
        out = tmp_path / "positions"
        hc.write_frenet_json(f"{out}.frenet.json", report.frenet)
        hc.residuals_to_csv(f"{out}.residuals.csv", report)
    frenet = json.loads(Path(f"{out}.frenet.json").read_text())
    velocity_depth = frenet["provenance"]["velocity_depth"]
    assert velocity_depth == (route == "positions")
    columns = frenet["columns"]
    series = {name: np.array(columns[name], float).T for name in ("T", "k", "tau", "N", "B")}
    table = np.loadtxt(f"{out}.residuals.csv", delimiter=",", skiprows=1)
    series.update(zip(("cT", "cN", "cB", "residual"), table[:, 1:].T))
    for name, depth in PASSES.items():
        interior = numerics.interior_slice(1001, depth + velocity_depth)
        assert_nan_outside(series[name], interior)
        assert np.isfinite(series[name][interior]).all(), name
    assert columns["defined"] == np.isfinite(series["tau"]).tolist()
    assert np.isfinite(table[:, 0]).all() and np.isfinite(columns["point"]).all()

    geodesic = tmp_path / "geodesic"
    assert run(capsys, "geodesic", "--point", "0.1,0.2,0", "--direction", "0.6,0,0.8",
               "--samples", "801", "--with-velocity", "--out", str(geodesic))[0] == 0
    s, points, velocities = hc.read_samples_csv(f"{geodesic}.csv")
    if route == "positions":
        velocities = None
    samples = hc.import_samples(hc.HEISENBERG, s, points, velocities)
    t1 = hc.tension1(samples)
    assert_nan_outside(t1, samples.interior(1))
    assert np.isfinite(t1[samples.interior(1)]).all()


class TestConeCommand:
    def test_direction_queries(self, capsys):
        code, out, _ = run(capsys, "cone", "--direction", "0,0,1")
        assert code == 0 and "geodesic_only" in out
        code, out, _ = run(
            capsys, "cone", "--direction", "0.31622776601683794,0,0.9486832980505138"
        )
        assert code == 0 and "biharmonic_direction" in out

    def test_sweep_prints_boundaries(self, capsys):
        code, out, _ = run(capsys, "cone", "--sweep", "100")
        assert code == 0
        assert "0.463647609" in out
        assert "2.677945045" in out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 100

    def test_sweep_uses_the_admissibility_rule(self, capsys, monkeypatch):
        # the sweep's flags come from factory.admissible_cos, one call per row
        seen = []

        def spy(cos_a):
            seen.append(cos_a)
            return len(seen) % 2 == 0

        monkeypatch.setattr(factory, "admissible_cos", spy)
        code, out, _ = run(capsys, "cone", "--sweep", "10")
        flags = [int(l.rsplit(",", 1)[1]) for l in out.splitlines() if l and l[0].isdigit()]
        assert code == 0 and flags == [0, 1] * 5
        assert seen == [math.cos(a) for a in np.linspace(0.0, math.pi, 12)[1:-1]]

    def test_rejects_other_manifolds(self, capsys):
        # the cone is H3's alone: cone takes no --m/--l, so it cannot print
        # H3's angles as the answer for another manifold
        out, err = run_parser_error(capsys, "cone", "--m", "1", "--sweep", "3")
        assert out == "" and "unrecognized arguments: --m 1" in err

    def test_nonunit_direction_exit_two(self, capsys):
        code, _, err = run(capsys, "cone", "--direction", "1,1,1")
        assert code == 2
        assert "unit" in err


class TestNonFiniteInput:
    """A NaN or an infinity on the command line fails with exit 2 and an
    error that names it, before any numerics run (so without a warning)."""

    HELIX = ["generate", "--sin-alpha0", "0.3"]

    @pytest.mark.parametrize("argv,cause", [
        (["cone", "--direction", "0,nan,0"], "--direction must be finite, got '0,nan,0'"),
        (["geodesic", "--point", "0,0,0", "--direction", "nan,0,1"],
         "--direction must be finite, got 'nan,0,1'"),
        (["geodesic", "--point", "0,0,0", "--direction", "inf,0,0"],
         "--direction must be finite, got 'inf,0,0'"),
        (["geodesic", "--point", "0,0,0", "--direction", "0.6,0,0.8", "--length", "inf"],
         "s_range must be finite, got (0.0, inf)"),
        ([*HELIX, "--s1", "inf"], "s_range must be finite, got (0.0, inf)"),
        ([*HELIX, "--s1=-inf"], "s_range must be finite, got (0.0, -inf)"),
        ([*HELIX, "--s1", "nan"], "s_range must be finite, got (0.0, nan)"),
        # the helix is built from its point at s0, before it is sampled
        ([*HELIX, "--s0=-inf"], "s_range must be finite, got (-inf, 31.41592653589793)"),
        ([*HELIX, "--s0", "inf"], "s_range must be finite, got (inf, 31.41592653589793)"),
        ([*HELIX, "--s0", "nan"], "s_range must be finite, got (nan, 31.41592653589793)"),
        ([*HELIX, "--a", "inf"], "helix constants must be finite, got a = inf"),
    ], ids=["cone-direction", "geodesic-nan-direction", "geodesic-inf-direction",
            "geodesic-length", "generate-s1", "generate-s1-minus-inf", "generate-s1-nan",
            "generate-s0-minus-inf", "generate-s0-inf", "generate-s0-nan", "generate-a"])
    def test_exit_two_naming_the_cause(self, capsys, tmp_path, argv, cause):
        out = [] if argv[0] == "cone" else ["--out", str(tmp_path / "curve")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, *argv, *out)
        assert code == 2 and stdout == ""
        assert err == f"error: {cause}\n"
        assert not list(tmp_path.iterdir())


class TestScanCommand:
    def test_invariant_column(self, capsys):
        code, out, _ = run(capsys, "scan", "--count", "50", "--branch", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha0,branch,A,k,tau,B3")
        assert len(lines) > 50
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(0.25, abs=1e-12)

    def test_two_components_present(self, capsys):
        code, out, _ = run(capsys, "scan", "--count", "20", "--component", "both")
        angles = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert min(angles) < 0.5 and max(angles) > 2.6
        assert not any(0.5 < a < 2.6 for a in angles)

    def test_empty_window_warns(self, capsys):
        code, out, err = run(
            capsys, "scan", "--count", "10", "--alpha-min", "1.0", "--alpha-max", "2.0"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only
        assert "no admissible" in err

    def test_rejects_other_manifolds(self, capsys):
        # the closed forms hold on (m, l) = (0, 1) alone: scan takes no --m/--l
        out, err = run_parser_error(capsys, "scan", "--m", "1", "--l", "2")
        assert out == "" and "unrecognized arguments: --m 1 --l 2" in err


def _figure_helix_csv(tmp_path, speed=1.0):
    """The figure helix on one turn at n = 4 001, with frame velocities
    scaled to ``speed``."""
    spec = hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 2 * math.pi))
    samples = hc.sample_curve(spec, 4001)
    samples.velocity_frame = speed * samples.velocity_frame
    path = tmp_path / f"h{speed:g}.csv"
    hc.write_samples_csv(path, samples, include_velocity=True)
    return path


class TestNumericsFlag:
    def test_flag_override(self, capsys, tmp_path):
        # the helix passes with the defaults; a constancy tolerance no
        # measured k can meet flips the verdict, so the flag reached verify
        path = _figure_helix_csv(tmp_path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and "verdict: nongeodesic_biharmonic" in out
        code, out, _ = run(capsys, "--numerics", "constancy_tol=1e-30", "verify", str(path))
        assert code == 1 and "verdict: not_biharmonic" in out

    def test_bad_flag_exit_two(self, capsys):
        # frame_tol and expansion_tol were never read; ode_fixed_step lost its
        # only reader with the closed-form geodesics; the stencil order, the
        # cross-check steps and the ODE and quadrature settings are constants
        # at their one reader: none is a setting
        removed = (
            "frame_tol", "expansion_tol", "ode_fixed_step", "stencil_order", "fd_step",
            "fd_step_nested", "ode_method", "ode_rtol", "ode_atol", "quad_refine",
        )
        for key in ("bogus",) + removed:
            code, _, err = run(capsys, "--numerics", f"{key}=1", "tensors")
            assert code == 2
            assert key in err

    @pytest.mark.parametrize("setting, message", [
        ("bogus=1", "error: unknown numerics settings: ['bogus']"),
        ("residual_tol=nan", "error: residual_tol must be finite and positive, got nan"),
    ], ids=["unknown", "nan"])
    @pytest.mark.parametrize("command", ["tensors", "generate", "verify", "geodesic", "cone",
                                         "scan"])
    def test_every_command_checks_the_flag(self, capsys, tmp_path, command, setting, message):
        # main checks the settings before any command runs, also on the
        # commands that read none
        argv = {
            "tensors": [],
            "generate": ["--sin-alpha0", "0.3", "--out", str(tmp_path / "x")],
            "verify": [str(_figure_helix_csv(tmp_path))],
            "geodesic": ["--point", "0,0,0", "--direction", "1,0,0", "--out", str(tmp_path / "x")],
            "cone": ["--sweep", "3"],
            "scan": ["--count", "2", "--out", str(tmp_path / "x")],
        }[command]
        code, out, err = run(capsys, "--numerics", setting, command, *argv)
        assert code == 2 and out == ""
        assert err == message + "\n"
        assert list(tmp_path.glob("x*")) == []

    def test_nan_unit_speed_tol_rejected(self, capsys, tmp_path):
        # with a NaN tolerance no deviation compares greater, so a frame speed
        # of 2 would pass the unit-speed check and reach a verdict
        path = _figure_helix_csv(tmp_path, speed=2.0)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "input error:" in err
        code, out, err = run(capsys, "--numerics", "unit_speed_tol=nan", "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "unit_speed_tol" in err

    @pytest.mark.parametrize(
        "setting",
        [f"{name}={value}" for name in (
            "unit_speed_tol", "residual_tol", "k_floor", "constancy_tol", "relation_tol",
            "b3_zero_tol",
        ) for value in ("nan", "-1e-3", "0", "inf", "tight")],
    )
    def test_bad_tolerance_exit_two(self, capsys, tmp_path, setting):
        code, out, err = run(capsys, "--numerics", setting, "verify", str(_figure_helix_csv(tmp_path)))
        assert code == 2 and out == ""
        assert err.startswith("error:") and setting.split("=")[0] in err
