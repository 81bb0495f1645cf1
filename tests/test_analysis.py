"""Tension / bitension fields, characterization systems and classification."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import heiscurves as hc
from heiscurves import factory
from heiscurves import manifold as mf
from heiscurves.numerics import TILE, cumulative_simpson

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


def torsion_drift_series(samples) -> hc.VerdictSeries:
    """Series whose tau drifts at rate 1e-3 while N3 = 0, with k = 0.3 and
    B3 = sqrt(1/4 - k^2 - tau^2): they fail the torsion relation alone."""
    n, s = samples.n, samples.s
    k = np.full(n, 0.3)
    tau = -0.3 + 1e-3 * s
    return hc.VerdictSeries(samples, k=k, tau=tau, N3=np.zeros(n),
                            B3=np.sqrt(0.25 - k**2 - tau**2),
                            defined=np.ones(n, dtype=bool), max_residual=0.0)


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
        integral = cumulative_simpson(N3 * B3, fr.samples.ds)  # from s_a, the interior's first s
        torsion_h3 = float(np.abs(tau - tau[0] - integral).max())
        assert abs(checks["system_algebraic_relation"].residual - relation_h3) < 1e-10
        assert abs(checks["system_torsion_derivative"].residual - torsion_h3) < 1e-10

    def test_degenerate_member_reports_zero_coefficient(self):
        samples = hc.sample_curve(cv_test_curve(1.0, 2.0), 1201)
        fr = hc.frenet_apparatus(samples)
        values = hc.classify_curve(fr).values
        assert values["coefficient"] == 0.0
        assert values["curvature_level"] == 1.0

    def test_torsion_drift_fails_the_torsion_check_alone(self, figure1_samples):
        # tau drifts at rate 1e-3 while N3 B3 = 0, so tau' = mu N3 B3 fails:
        # in integral form tau - tau(s_a) reads 1e-3 (s - s_a), worst at the
        # interior's end; k is a nonzero constant and B3 keeps
        # k^2 + tau^2 = 1/4 - B3^2, so the other system checks hold
        result = hc.classify_curve(torsion_drift_series(figure1_samples))
        torsion = result.checks["system_torsion_derivative"]
        s, interior = figure1_samples.s, figure1_samples.interior(3)
        drift = 1e-3 * (s[interior.stop - 1] - s[interior.start])
        assert torsion.residual == pytest.approx(drift, abs=1e-9)
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


def _figure_family_series(delta, n, route, tmp_path=None) -> hc.VerdictSeries:
    """``verify``'s series of the figure helix's family, a = b = c = 1, at
    rate A + delta: from sampled velocities, or from its ``s,x,y,z`` rows."""
    spec = hc.helix_family_curve(FIGURE1_ALPHA0, FIGURE1_A + delta, 1.0, 1.0, 1.0)
    samples = hc.sample_curve(spec, n)
    if route == "positions":
        path = tmp_path / "positions.csv"
        hc.write_samples_csv(path, samples)
        samples = hc.import_samples(H, *hc.read_samples_csv(path))
    return hc.verdict_series(samples)


class TestIntegralTorsion:
    """The torsion relation is tested as tau - tau(s_a) = mu int N3 B3 ds,
    with no derivative of tau, so its roundoff does not grow with n."""

    @pytest.mark.parametrize("n", [1001, 16001, 50001])
    def test_figure_helix_is_biharmonic_at_every_n(self, n):
        result = hc.classify_curve(_figure_family_series(0.0, n, "velocities"))
        assert result.verdict == "nongeodesic_biharmonic"
        assert result.checks["system_torsion_derivative"].residual < 1e-7

    @pytest.mark.parametrize("n", [1001, 16001, 50001])
    def test_off_root_control_is_rejected(self, n):
        result = hc.classify_curve(_figure_family_series(0.05, n, "velocities"))
        assert result.verdict == "helix_not_biharmonic"
        assert not result.checks["system_algebraic_relation"].passed

    def test_running_integral_matches_the_whole_interior(self):
        """Carried across tiles, the integral has the bits of one
        ``cumulative_simpson`` over the whole interior, at every sample."""
        n = 3 * TILE + 5
        rng = np.random.default_rng(7)
        params = hc.ManifoldParams(0.25, 1.2)
        samples = hc.CurveSamples(params, np.linspace(0.0, 1.0, n), np.zeros((n, 3)),
                                  np.tile([1.0, 0.0, 0.0], (n, 1)))
        tau, N3, B3 = rng.standard_normal(n), rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
        series = hc.VerdictSeries(samples, k=np.full(n, 0.3), tau=tau, N3=N3, B3=B3,
                                  defined=np.ones(n, dtype=bool), max_residual=0.0)
        interior = samples.interior(3)
        integral = cumulative_simpson(N3[interior] * B3[interior], samples.ds)
        for last in (interior.start + TILE, interior.stop - 1):  # in the second tile; the last
            raised = tau.copy()  # the residual's worst sample is ``last``
            raised[last] += 10.0 * np.abs(tau).max()
            series.tau = raised
            check = hc.classify_curve(series).checks["system_torsion_derivative"]
            whole = np.abs(raised[interior] - raised[interior.start] - params.flatness * integral)
            assert check.sample == last == interior.start + int(np.argmax(whole))
            assert check.residual == float(whole.max())


class TestWorstSample:
    """Each worst-interior check names its worst sample and its s."""

    WORST = ("system_algebraic_relation", "system_torsion_derivative", "helix_N3_zero",
             "helix_N3B3_zero")

    def test_torsion_drift_is_worst_at_the_interior_end(self, figure1_samples):
        result = hc.classify_curve(torsion_drift_series(figure1_samples))
        torsion = result.checks["system_torsion_derivative"]
        last = figure1_samples.interior(3).stop - 1
        assert torsion.sample == last
        assert torsion.s == figure1_samples.s[last]

    def test_off_root_relation_is_its_series_at_the_sample(self):
        series = _figure_family_series(0.05, 2001, "velocities")
        result = hc.classify_curve(series)
        relation = result.checks["system_algebraic_relation"]
        i = relation.sample
        assert series.samples.interior(3).start <= i < series.samples.interior(3).stop
        assert relation.s == series.samples.s[i]
        k, tau, B3 = (a[i:i + 1] for a in (series.k, series.tau, series.B3))
        assert relation.residual == float(np.abs(k**2 + tau**2 - (0.25 - B3**2))[0])
        for name, check in result.checks.items():
            assert (check.sample is None) == (check.s is None) == (name not in self.WORST), name
            assert {"sample", "s"} <= set(check.as_dict())


class TestResolvingPower:
    """The figure helix's family at rate A + delta: delta = 0 is accepted
    and delta = +-1e-3 rejected through the algebraic relation, which reads
    about 0.707 |delta|, on both routes."""

    CASES = ([("velocities", n) for n in (1001, 4001, 50001)]
             + [("positions", n) for n in (1001, 4001)])

    @pytest.mark.parametrize("route, n", CASES)
    def test_exact_rate_is_accepted(self, route, n, tmp_path):
        result = hc.classify_curve(_figure_family_series(0.0, n, route, tmp_path))
        assert result.verdict == "nongeodesic_biharmonic"

    @pytest.mark.parametrize("delta", [1e-3, -1e-3])
    @pytest.mark.parametrize("route, n", CASES)
    def test_rate_off_by_a_thousandth_is_rejected(self, route, n, delta, tmp_path):
        result = hc.classify_curve(_figure_family_series(delta, n, route, tmp_path))
        assert result.verdict == "helix_not_biharmonic"
        relation = result.checks["system_algebraic_relation"].residual
        expected = 0.707 * abs(delta)
        assert expected / 2 <= relation <= 2 * expected


class TestConstantAngleWitnesses:
    """Positive and perturbed-negative witnesses on m = 0, l != 1, checked
    against the exact Frenet data of a constant-angle curve.

    With T = (S cos b, S sin b, C), S = sin(alpha0), C = cos(alpha0) and
    b' = w on m = 0, nabla_T T = S kappa (-sin b, cos b, 0) with
    kappa = w - l C.  So k = S |kappa|, tau = -l/2 - kappa C, N3 = 0 and
    |B3| = S, and the system's algebraic relation holds exactly when
    w^2 - l C w + l^2 S^2 = 0, that is w = l A with A the paper's root."""

    S = 1.0 / math.sqrt(10.0)
    C = math.cos(math.asin(S))
    A = factory.solve_branch_A(math.asin(S))

    def frenet(self, l, w, n):
        p0, phi = (0.1, 0.2, 0.3), 0.4
        sampler = factory._constant_angle_sampler(l, p0, self.S, phi, self.C, w, 0.0)
        spec = hc.CurveSpec(hc.ManifoldParams(0.0, l), (0.0, 10.0 * math.pi), sampler)
        return hc.frenet_apparatus(hc.sample_curve(spec, n))

    def oracle_errors(self, fr, w, l):
        """Worst interior(2) errors of k, tau, N3 and |B3| against the exact values."""
        kappa = w - l * self.C
        inner = fr.samples.interior(2)
        exact = (self.S * abs(kappa), -0.5 * l - kappa * self.C, 0.0, self.S)
        measured = (fr.k, fr.tau, fr.N3, np.abs(fr.B3))
        return [float(np.abs(series[inner] - value).max()) for series, value in zip(measured, exact)]

    @pytest.mark.parametrize("n, bound", [(1001, 1e-6), (4001, 1e-8)])
    @pytest.mark.parametrize("offset, verdict", [(0.0, "nongeodesic_biharmonic"),
                                                 (0.05, "helix_not_biharmonic")])
    @pytest.mark.parametrize("l", [2.0, 0.5])
    def test_verdict_and_exact_frenet_data(self, l, offset, verdict, n, bound):
        w = l * self.A + offset
        fr = self.frenet(l, w, n)
        assert hc.classify_curve(fr).verdict == verdict
        k_err, tau_err, N3_err, B3_err = self.oracle_errors(fr, w, l)
        assert k_err < bound and tau_err < bound
        assert N3_err < 1e-12 and B3_err < 1e-12

    @pytest.mark.parametrize("offset", [0.0, 0.05])
    def test_truncation_error_falls_with_n(self, offset):
        # on l = 2 the order-4 stencil's truncation dominates: 4 times the
        # samples cut the k and tau errors about 250-fold
        w = 2.0 * self.A + offset
        coarse, fine = (self.oracle_errors(self.frenet(2.0, w, n), w, 2.0)[:2]
                        for n in (1001, 4001))
        for c, f in zip(coarse, fine):
            assert f * 100.0 <= c


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
