"""Bad input on the branches no other test reaches: each library entry
point raises its typed error, and each command exits 2 with its message,
empty stdout and no output file.  Also the ``scan`` components."""

import math

import numpy as np
import pytest

import heiscurves as hc
from heiscurves import factory
from heiscurves import manifold as mf
from heiscurves.cli import main
from heiscurves.numerics import derivative_on_grid

from conftest import FIGURE1_ALPHA0


@pytest.mark.parametrize("argv, message", [
    (["--numerics", "residual_tol", "tensors"], "--numerics expects KEY=VALUE, got 'residual_tol'"),
    (["tensors", "--point", "1,a,2"],
     "cannot parse --point '1,a,2'; expected three comma-separated numbers"),
    (["tensors", "--point", "1,2"], "--point needs exactly three components, got 2"),
    (["geodesic", "--point", "0,0,0", "--direction", "0,0,0"], "--direction must be nonzero"),
], ids=["numerics-without-value", "point-unparseable", "point-two-components",
        "geodesic-zero-direction"])
def test_command_exit_two(capsys, tmp_path, argv, message):
    out = ["--out", str(tmp_path / "curve")] if "geodesic" in argv else []
    assert main([*argv, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("component", ["pos", "neg"])
def test_scan_one_component(capsys, component):
    """``--component pos`` keeps the angles of the cone around e3, and
    ``neg`` those around -e3."""
    assert main(["scan", "--count", "5", "--component", component]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    angles = [float(row.split(",")[0]) for row in rows]
    assert len(angles) == 5
    boundary = factory.ADMISSIBLE_BOUNDARY
    if component == "pos":
        assert all(0.0 < a <= boundary for a in angles)
    else:
        assert all(math.pi - boundary <= a < math.pi for a in angles)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_too_few_positions_to_difference(n):
    with pytest.raises(hc.TooFewSamples, match="need at least 9 samples to differentiate"):
        hc.import_samples(hc.HEISENBERG, np.linspace(0.0, 1.0, n), np.zeros((n, 3)))


def test_unknown_branch():
    with pytest.raises(ValueError, match="branch must be 'plus' or 'minus', got 'both'"):
        hc.HelixParams(alpha0=FIGURE1_ALPHA0, branch="both")


def test_zero_rate():
    with pytest.raises(ValueError, match="rate must be nonzero"):
        hc.helix_family_curve(FIGURE1_ALPHA0, 0.0)


def test_geodesic_direction_of_two_components():
    with pytest.raises(hc.NonUnitVector, match="initial velocity must have 3 components"):
        hc.geodesic_ivp(hc.HEISENBERG, [0.0, 0.0, 0.0], [1.0, 0.0], (0.0, 1.0))


def test_unknown_surface_kind():
    with pytest.raises(ValueError, match="unknown surface kind 'sphere'"):
        factory.SurfacePatch("sphere", FIGURE1_ALPHA0, 0.8)


def test_numeric_curvature_of_two_points():
    with pytest.raises(ValueError, match="expects a single point"):
        mf.curvature_table_numeric(hc.HEISENBERG, np.zeros((2, 3)))


def test_derivative_of_four_rows():
    with pytest.raises(hc.TooFewSamples, match="need at least 5 samples .* got 4"):
        derivative_on_grid(np.zeros((4, 3)), 0.1)
