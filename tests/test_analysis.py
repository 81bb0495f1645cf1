"""Tension / bitension fields, characterization systems and classification."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import heiscurves as hc
from heiscurves import manifold as mf

from conftest import FIGURE1_A, FIGURE1_ALPHA0, FIGURE1_COS, assert_nan_outside, inflection_spec

H = hc.HEISENBERG


def unit_circle_spec(radius=1.0):
    """Euclidean circle in the z = 0 plane, reparametrized to unit speed.

    With q = 2 / sqrt(4 + radius^2) the map s -> (r cos(qs/r), r sin(qs/r), 0)
    has frame velocity of norm 1 on the Heisenberg group.
    """
    r = radius
    q = 2.0 / math.sqrt(4.0 + r * r)

    def sampler(s):
        s = np.asarray(s, dtype=float)
        t = q * s / r
        points = np.stack([r * np.cos(t), r * np.sin(t), np.zeros_like(t)], axis=-1)
        v_coord = np.stack([-q * np.sin(t), q * np.cos(t), np.zeros_like(t)], axis=-1)
        return points, mf.to_frame_components(H, points, v_coord)

    return hc.CurveSpec(manifold=H, s_range=(0.0, 12.0), sampler=sampler)


def cv_test_curve(m, l, S0=0.5, rate=3.0, length=4.0, start=(0.05, -0.1, 0.0)):
    """Non-geodesic curve on a general member, with k bounded away from 0."""
    par = hc.ManifoldParams(m, l)
    C0 = math.sqrt(1.0 - S0 * S0)

    def tangent(s):
        return np.array([S0 * math.cos(rate * s), S0 * math.sin(rate * s), C0])

    return hc.tangent_driven_curve(par, tangent, start, (0.0, length))


class TestTension1:
    def test_geodesic_vanishes(self):
        spec = hc.geodesic_ivp(H, [0.1, 0.2, 0.3], [0.6, 0.0, 0.8], (0.0, 10.0))
        samples = hc.sample_curve(spec, 801)
        t1 = hc.tension1(samples)
        assert np.linalg.norm(t1, axis=1)[samples.interior(1)].max() < 1e-6

    def test_subgroup_e1_exactly_geodesic(self):
        spec = hc.one_param_subgroup(np.array([1.0, 0.0, 0.0]), (0.0, 5.0))
        samples = hc.sample_curve(spec, 201)
        t1 = hc.tension1(samples)
        interior = samples.interior(1)
        assert np.abs(t1[interior]).max() < 1e-13
        assert_nan_outside(t1, interior)

    def test_helix_norm_is_constant_curvature(self, figure1_samples):
        t1 = hc.tension1(figure1_samples)
        interior = figure1_samples.interior(1)
        k = np.linalg.norm(t1, axis=1)[interior]
        expected = math.sin(FIGURE1_ALPHA0) * (math.cos(FIGURE1_ALPHA0) - FIGURE1_A)
        assert np.abs(k - expected).max() < 1e-6
        assert k.max() - k.min() < 1e-8


class TestTension2:
    def test_geodesic_bitension_vanishes(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        samples = hc.sample_curve(spec, 1601)
        t2 = hc.tension2_direct(samples)
        assert np.linalg.norm(t2, axis=1)[samples.interior(3)].max() < 1e-6

    def test_helix_bitension_vanishes(self, figure1_samples):
        rep = hc.bitension_report(figure1_samples)
        assert rep.max_residual < 1e-5

    def test_perturbed_angle_negative_control(self):
        # keep the rate solved for cos(a0) = 3/sqrt(10) but evaluate the
        # family at cos(a0)^2 = 0.81: the defect has a closed form
        C = 0.9
        S = math.sqrt(1.0 - C * C)
        alpha0 = math.acos(C)
        A = FIGURE1_A
        w = C - A
        defect = w * w - C * w + 1.0 - C * C
        k = S * abs(w)
        expected = k * abs(defect)
        spec = hc.helix_family_curve(alpha0, A, s_range=(0.0, 10.0 * math.pi))
        samples = hc.sample_curve(spec, 2001)
        rep = hc.bitension_report(samples)
        assert rep.max_residual >= 1e-3
        assert rep.max_residual == pytest.approx(expected, abs=1e-6)

    def test_negative_control_scales_linearly(self):
        # residual = k |1/4 - B3^2 - k^2 - tau^2| for constant-invariant
        # off-root helices
        alpha0 = FIGURE1_ALPHA0
        for offset in (0.02, 0.05, 0.1):
            A = FIGURE1_A + offset
            spec = hc.helix_family_curve(alpha0, A, s_range=(0.0, 6.0 * math.pi))
            samples = hc.sample_curve(spec, 1501)
            fr = hc.frenet_apparatus(samples)
            interior = fr.samples.interior(3)
            k = fr.k[interior].mean()
            tau = fr.tau[interior].mean()
            B3 = fr.B3[interior].mean()
            expected = k * abs(0.25 - B3**2 - k**2 - tau**2)
            rep = hc.bitension_report(samples)
            assert rep.max_residual == pytest.approx(expected, abs=1e-6)

    def test_frame_route_coefficients(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        cT, cN, cB = hc.tension2_frame(fr)
        interior = fr.samples.interior(3)
        assert np.abs(cT[interior]).max() < 1e-5
        assert np.abs(cN[interior]).max() < 1e-5
        assert np.abs(cB[interior]).max() < 1e-5

    def test_frame_route_wrong_relation(self):
        # constant k, tau with the algebraic relation broken: cT = cB = 0 and
        # cN = k (1/4 - B3^2 - k^2 - tau^2)
        spec = hc.helix_family_curve(FIGURE1_ALPHA0, FIGURE1_A + 0.05,
                                     s_range=(0.0, 6.0 * math.pi))
        samples = hc.sample_curve(spec, 1501)
        fr = hc.frenet_apparatus(samples)
        cT, cN, cB = hc.tension2_frame(fr)
        interior = fr.samples.interior(3)
        k = fr.k[interior].mean()
        tau = fr.tau[interior].mean()
        B3 = fr.B3[interior].mean()
        expected_cN = k * (0.25 - B3**2 - k**2 - tau**2)
        assert np.abs(cT[interior]).max() < 1e-6
        assert np.abs(cB[interior]).max() < 1e-6
        assert np.abs(cN[interior] - expected_cN).max() < 1e-6

    def test_frame_route_requires_frame(self):
        spec = hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0))
        fr = hc.frenet_apparatus(hc.sample_curve(spec, 64))
        with pytest.raises(hc.GeodesicFrameUndefined):
            hc.tension2_frame(fr)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: hc.sample_curve(
                hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 10 * math.pi)),
                2001,
            ),
            lambda: hc.sample_curve(
                hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0)), 1001
            ),
            lambda: hc.sample_curve(
                hc.one_param_subgroup(np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0), (0.0, 20.0)),
                1001,
            ),
            lambda: hc.sample_curve(cv_test_curve(1.0, 2.0), 1201),
            lambda: hc.sample_curve(cv_test_curve(1.0, -2.0), 1201),
            lambda: hc.sample_curve(cv_test_curve(0.25, 1.0, S0=0.6, rate=1.5, length=6.0), 1201),
        ],
    )
    def test_direct_equals_frame_expansion(self, builder):
        samples = builder()
        rep = hc.bitension_report(samples)
        assert rep.expansion_agreement is not None
        assert rep.expansion_agreement < 1e-4


class TestSystems:
    def test_helix_passes_system(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        checks = hc.classify_curve(fr).checks
        assert all(c.passed for name, c in checks.items() if name.startswith("system_"))
        for name in ("k_constant", "algebraic_relation", "torsion_derivative"):
            assert checks[f"system_{name}"].residual < 1e-5

    def test_subgroup_satisfies_circle_relation_but_not_system(self):
        d = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        samples = hc.sample_curve(hc.one_param_subgroup(d, (0.0, 20.0)), 2001)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(3)
        circle = np.abs(fr.k[interior] ** 2 + fr.tau[interior] ** 2 - 0.25)
        assert circle.max() < 1e-6
        assert np.abs(fr.B3[interior]).min() > 0.1
        checks = hc.classify_curve(fr).checks
        assert not checks["system_algebraic_relation"].passed
        assert checks["system_k_constant"].passed

    def test_circle_classification(self):
        samples = hc.sample_curve(unit_circle_spec(), 1201)
        result = hc.classify_curve(hc.frenet_apparatus(samples))
        assert result.verdict in ("helix_not_biharmonic", "not_biharmonic")
        assert not result.is_biharmonic
        assert "system_algebraic_relation" in result.checks

    def test_helix_system_checks(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        checks = hc.classify_curve(fr).checks
        assert all(c.passed for name, c in checks.items() if name.startswith("helix_"))
        assert checks["helix_N3_zero"].residual < 1e-7
        assert checks["helix_B3_constant"].residual < 1e-7

    def test_b3zero_fails_helix_system(self):
        spec = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        samples = hc.sample_curve(spec, 1001)
        fr = hc.frenet_apparatus(samples)
        result = hc.classify_curve(fr)
        assert not result.checks["helix_B3_nonzero"].passed
        assert abs(result.values["tau_mean"] + 0.5) < 1e-4
        assert not result.checks["system_algebraic_relation"].passed

    def test_geodesic_has_no_frame_checks(self):
        # the Frenet frame is undefined along the whole e3 subgroup, and the
        # verdict builds no check that needs it
        spec = hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0))
        fr = hc.frenet_apparatus(hc.sample_curve(spec, 64))
        assert not fr.defined.any()
        result = hc.classify_curve(fr)
        assert result.verdict == "geodesic"
        assert list(result.checks) == ["tension1_zero"]

    def test_general_system_reduces_to_heisenberg(self, figure1_samples):
        # the parametrized system evaluated at (0, 1) must coincide with the
        # hard-coded Heisenberg relations to float precision
        fr = hc.frenet_apparatus(figure1_samples)
        checks = hc.classify_curve(fr).checks
        interior = fr.samples.interior(3)
        k, tau, B3, N3 = (
            fr.k[interior], fr.tau[interior], fr.B3[interior], fr.N3[interior]
        )
        relation_h3 = float(np.abs(k**2 + tau**2 - (0.25 - B3**2)).max())
        taup = fr.samples.derivative(fr.tau)[interior]
        torsion_h3 = float(np.abs(taup - N3 * B3).max())
        assert abs(checks["system_algebraic_relation"].residual - relation_h3) < 1e-10
        assert abs(checks["system_torsion_derivative"].residual - torsion_h3) < 1e-10

    def test_degenerate_member_reports_zero_coefficient(self):
        samples = hc.sample_curve(cv_test_curve(1.0, 2.0), 1201)
        fr = hc.frenet_apparatus(samples)
        values = hc.classify_curve(fr).values
        assert values["coefficient"] == 0.0
        assert values["curvature_level"] == 1.0

    def test_torsion_drift_fails_the_torsion_check_alone(self, figure1_samples):
        # tau drifts at rate 1e-3 while N3 B3 = 0, so tau' = mu N3 B3 fails;
        # k is a nonzero constant and B3 keeps k^2 + tau^2 = 1/4 - B3^2, so
        # the other system checks hold
        n, s = figure1_samples.n, figure1_samples.s
        k = np.full(n, 0.3)
        tau = -0.3 + 1e-3 * s
        series = hc.VerdictSeries(figure1_samples, k=k, tau=tau, N3=np.zeros(n),
                                  B3=np.sqrt(0.25 - k**2 - tau**2),
                                  defined=np.ones(n, dtype=bool), max_residual=0.0)
        result = hc.classify_curve(series)
        torsion = result.checks["system_torsion_derivative"]
        assert torsion.residual == pytest.approx(1e-3, abs=1e-9)
        assert not torsion.passed
        for name in ("k_constant", "k_nonzero", "algebraic_relation"):
            assert result.checks[f"system_{name}"].passed, name
        assert result.verdict != "nongeodesic_biharmonic"


class TestClassification:
    def test_helix_verdict(self, figure1_samples):
        result = hc.classify_curve(hc.frenet_apparatus(figure1_samples))
        assert result.verdict == "nongeodesic_biharmonic"

    def test_geodesic_verdict(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        result = hc.classify_curve(hc.frenet_apparatus(hc.sample_curve(spec, 1601)))
        assert result.verdict == "geodesic"
        assert result.is_biharmonic

    def test_b3zero_verdict(self):
        spec = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        result = hc.classify_curve(hc.frenet_apparatus(hc.sample_curve(spec, 1001)))
        assert result.verdict == "not_biharmonic"
        assert abs(result.values["tau_mean"] + 0.5) < 1e-4

    def test_offroot_helix_verdict(self):
        spec = hc.helix_family_curve(FIGURE1_ALPHA0, FIGURE1_A + 0.05,
                                     s_range=(0.0, 6.0 * math.pi))
        result = hc.classify_curve(hc.frenet_apparatus(hc.sample_curve(spec, 1501)))
        assert result.verdict == "helix_not_biharmonic"
        assert not result.is_biharmonic

    def test_inflection_point_is_not_biharmonic(self):
        # k = |s - 2| is no nonzero constant; where it vanishes the frame is
        # undefined, so the verdict rests on k alone
        samples = hc.sample_curve(inflection_spec(), 2001)
        frenet = hc.bitension_report(samples).frenet
        assert not frenet.defined[1000] and frenet.defined[4:990].all()
        assert not frenet.defined[:4].any() and not frenet.defined[-4:].any()
        result = hc.classify_curve(frenet)
        assert result.verdict == "not_biharmonic"
        assert set(result.checks) == {"tension1_zero", "system_k_constant"}
        check = result.checks["system_k_constant"]
        assert not check.passed and check.residual == pytest.approx(1.988, abs=1e-6)
        assert result.values["k_mean"] == pytest.approx(0.9945, abs=1e-4)
        json.loads(result.to_json(), parse_constant=pytest.fail)  # no NaN or Infinity

    def test_json_serialization(self, figure1_samples):
        result = hc.classify_curve(hc.frenet_apparatus(figure1_samples))
        payload = json.loads(result.to_json())
        assert payload["verdict"] == "nongeodesic_biharmonic"
        assert payload["biharmonic"] is True
        assert payload["checks"]["system_algebraic_relation"]["passed"] is True

    def test_report_series_gives_same_verdict(self, figure1_samples):
        # the report's Frenet series classifies exactly as the samples do
        geodesic = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        offroot = hc.helix_family_curve(FIGURE1_ALPHA0, FIGURE1_A + 0.05,
                                        s_range=(0.0, 6.0 * math.pi))
        for samples in (
            figure1_samples, hc.sample_curve(geodesic, 1601), hc.sample_curve(offroot, 1501)
        ):
            rep = hc.bitension_report(samples)
            direct = np.linalg.norm(hc.tension2_direct(samples), axis=1)
            assert rep.residual.tobytes() == direct.tobytes()
            whole = hc.frenet_apparatus(samples)
            assert hc.classify_curve(rep.frenet).to_json() == hc.classify_curve(whole).to_json()


class TestCone:
    def test_axis_direction(self):
        assert hc.cone_membership(H, np.array([0.0, 0.0, 1.0])) == "geodesic_only"

    def test_interior_direction(self):
        s0 = math.sin(FIGURE1_ALPHA0)
        X = np.array([s0, 0.0, FIGURE1_COS])
        assert hc.cone_membership(H, X) == "biharmonic_direction"

    def test_legendre_direction(self):
        assert hc.cone_membership(H, np.array([1.0, 0.0, 0.0])) == "geodesic_only"

    def test_boundary_included(self):
        c = 2.0 / math.sqrt(5.0)
        X = np.array([math.sqrt(1 - c * c), 0.0, c])
        assert hc.cone_membership(H, X) == "biharmonic_direction"

    def test_membership_translation_invariant(self):
        # frame components do not change under left translation: push the
        # direction at the origin to g and read its frame components there
        comps = np.array([math.sin(FIGURE1_ALPHA0), 0.0, FIGURE1_COS])
        g = np.array([3.0, -1.0, 2.0])
        moved = mf.left_translate_velocity(H, g, mf.to_coord_components(H, np.zeros(3), comps))
        away = mf.to_frame_components(H, g, moved)
        assert hc.cone_membership(H, away) == "biharmonic_direction"

    def test_errors(self):
        with pytest.raises(hc.NonUnitVector):
            hc.cone_membership(H, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(hc.UnsupportedManifold):
            hc.cone_membership(hc.ManifoldParams(1.0, 2.0), np.array([0.0, 0.0, 1.0]))

    def test_nan_direction_rejected(self):
        # NaN passed ``abs(|X| - 1) > tol`` and was classified
        with pytest.raises(hc.NonUnitVector):
            hc.cone_membership(H, np.array([0.0, np.nan, 0.0]))

    def test_plain_list_direction(self):
        # a direction is three frame components, as an array or a list
        assert hc.cone_membership(H, [0.0, 0.6, 0.8]) == "geodesic_only"
        assert hc.cone_membership(H, [0.31622776601683794, 0.0, 0.9486832980505138]) == (
            "biharmonic_direction"
        )
        for bad in ([1.0, 1.0, 1.0], [0.0, float("nan"), 1.0]):
            with pytest.raises(hc.NonUnitVector):
                hc.cone_membership(H, bad)


class TestLegendrePairing:
    def test_helix_constant_cos(self, figure1_samples):
        pairing = hc.legendre_pairing(figure1_samples)
        assert np.abs(pairing - FIGURE1_COS).max() < 1e-8

    def test_horizontal_curve_vanishes(self):
        # tangent in the contact distribution: T = cos(psi) e1 + sin(psi) e2
        def tangent(s):
            psi = 0.7 * s + 0.1 * s * s
            return np.array([math.cos(psi), math.sin(psi), 0.0])

        spec = hc.tangent_driven_curve(H, tangent, [0.0, 0.0, 0.0], (0.0, 4.0))
        samples = hc.sample_curve(spec, 801)
        assert np.abs(hc.legendre_pairing(samples)).max() < 1e-10

    def test_vertical_geodesic_is_one(self):
        spec = hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0))
        samples = hc.sample_curve(spec, 64)
        assert_allclose(hc.legendre_pairing(samples), np.ones(64), atol=1e-14)


class TestReports:
    def test_report_json(self, figure1_samples):
        rep = hc.bitension_report(figure1_samples)
        payload = json.loads(rep.to_json())
        assert payload["max_interior_residual"] < 1e-5
        assert payload["expansion_agreement"] < 1e-4
        assert payload["n"] == figure1_samples.n

    def test_residual_csv(self, tmp_path, figure1_samples):
        rep = hc.bitension_report(figure1_samples)
        path = tmp_path / "residuals.csv"
        hc.residuals_to_csv(path, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "s,cT,cN,cB,residual"
        assert len(lines) == figure1_samples.n + 1
        row = lines[len(lines) // 2].split(",")
        assert abs(float(row[4])) < 1e-5

    def test_geodesic_residual_csv_rows(self, tmp_path):
        spec = hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0))
        rep = hc.bitension_report(hc.sample_curve(spec, 64))
        assert rep.cT is None
        # a residual that is not finite keeps its text beside the empty fields
        residual = rep.residual.copy()
        residual[1:4] = [np.nan, np.inf, -np.inf]
        rep = dataclasses.replace(rep, residual=residual)
        path = tmp_path / "residuals.csv"
        hc.residuals_to_csv(path, rep)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"s,cT,cN,cB,residual" and lines[-1] == b""
        rows = [line.decode().split(",") for line in lines[1:-1]]
        assert [row[1:4] for row in rows] == [["", "", ""]] * rep.frenet.samples.n
        assert [float(row[0]) for row in rows] == rep.frenet.samples.s.tolist()
        assert [row[4] for row in rows[1:4]] == ["nan", "inf", "-inf"]
        back = np.array([float(row[4]) for row in rows])
        assert np.array_equal(back, residual, equal_nan=True)

    def test_geodesic_report_has_no_expansion(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        rep = hc.bitension_report(hc.sample_curve(spec, 1601))
        assert rep.expansion_agreement is None
        assert rep.cT is None
        assert rep.max_residual < 1e-6


class TestDepthGuards:
    def test_bitension_needs_interior(self, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 1.0))
        samples = hc.sample_curve(spec, 12)
        with pytest.raises(hc.TooFewSamples):
            hc.bitension_report(samples)

    def test_bitension_rejects_curve_outside_chart(self):
        # the curvature table is constant, but every sample must lie in the
        # chart 1 + m (x^2 + y^2) > 0; here x crosses 1 for m = -1, and the
        # samples refuse the points when they are built
        s = np.linspace(0.0, 2.0, 401)
        points = np.stack([0.5 + s / 2.0, np.zeros_like(s), np.zeros_like(s)], axis=-1)
        vel = np.tile([1.0, 0.0, 0.0], (len(s), 1))
        with pytest.raises(hc.DomainError):
            hc.import_samples(mf.ManifoldParams(-1.0, 1.0), s, points, vel)
