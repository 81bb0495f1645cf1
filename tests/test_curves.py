"""Curve sampling, covariant differentiation and the Frenet apparatus."""

import dataclasses
import decimal
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import heiscurves as hc
from heiscurves import curves, manifold as mf
from heiscurves.curves import _check_uniform_s
from heiscurves.numerics import (
    cumulative_simpson,
    derivative_on_grid,
    TILE,
    interior_slice,
)

from conftest import (
    FIGURE1_A,
    FIGURE1_ALPHA0,
    FIGURE1_B3,
    FIGURE1_K,
    FIGURE1_TAU,
    assert_nan_outside,
)

H = hc.HEISENBERG


def vertical_line_spec(x0=0.5, y0=-1.0, s_range=(0.0, 5.0)):
    """x, y constant, z = s: the integral curve of e3."""

    def sampler(s):
        s = np.asarray(s, dtype=float)
        points = np.stack([np.full_like(s, x0), np.full_like(s, y0), s], axis=-1)
        velocity = np.zeros(s.shape + (3,))
        velocity[..., 2] = 1.0
        return points, velocity

    return hc.CurveSpec(manifold=H, s_range=s_range, sampler=sampler)


class TestStencils:
    def test_grid_derivative_convergence(self):
        # halving h cuts the error by >= 12x (order 4)
        f = lambda s: np.sin(1.3 * s) + 0.2 * np.cos(2.1 * s)
        df = lambda s: 1.3 * np.cos(1.3 * s) - 0.42 * np.sin(2.1 * s)
        errs = []
        for n in (201, 401):
            s = np.linspace(0.0, 4.0, n)
            approx = derivative_on_grid(f(s), s[1] - s[0])
            interior = slice(4, n - 4)
            errs.append(np.abs(approx - df(s))[interior].max())
        assert errs[0] / errs[1] >= 12.0

    @pytest.mark.parametrize("shape", [(5,), (40,), (40, 3)])
    def test_first_and_last_two_rows_are_nan(self, shape):
        # no number past the central stencil's reach
        y = np.random.default_rng(3).standard_normal(shape)
        out = derivative_on_grid(y, 0.037)
        assert np.isnan(out[:2]).all() and np.isnan(out[-2:]).all()
        assert np.isfinite(out[2:-2]).all()

    @pytest.mark.parametrize("shape", [(1001,), (1001, 3), (2 * TILE + 7, 3), (TILE + 5, 3)])
    def test_interior_stencil_is_the_one_expression_to_the_bit(self, shape):
        # derivative_on_grid works in place, a temporary of TILE rows at a
        # time; the bits are those of the expression it replaced
        rng = np.random.default_rng(4)
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        ds = 0.0123
        expected = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * ds)
        got = derivative_on_grid(y, ds)[2:-2]
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("shape", [(3,), (4,), (39,), (1000,), (1001,), (16001,),
                                       (3, 3), (4, 3), (1000, 3), (1001, 3)])
    def test_cumulative_simpson_is_scipys_to_the_bit(self, shape):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(5)
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        dx = 0.0123
        expected = scipy_integrate.cumulative_simpson(y, dx=dx, initial=0.0, axis=0)
        got = cumulative_simpson(y, dx)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [3, 4, 101, 102])
    def test_cumulative_simpson_exact_on_quadratics(self, n):
        s = np.linspace(0.0, 2.0, n)
        got = cumulative_simpson(np.stack([1.0 + 0 * s, s, s * s], axis=-1), s[1] - s[0])
        assert_allclose(got, np.stack([s, s * s / 2, s**3 / 3], axis=-1), rtol=0.0, atol=1e-14)
        with pytest.raises(hc.TooFewSamples):
            cumulative_simpson(s[:2], 1.0)

    def test_interior_margin_is_two_per_pass(self):
        assert interior_slice(20, 3) == slice(6, 14)
        with pytest.raises(hc.TooFewSamples):
            interior_slice(12, 3)


class TestSampleCurve:
    def test_helix_unit_speed(self, figure1_samples):
        dev = np.abs(np.linalg.norm(figure1_samples.velocity_frame, axis=1) - 1.0)
        assert dev.max() < 1e-10

    def test_vertical_line_velocity_is_e3(self):
        samples = hc.sample_curve(vertical_line_spec(), 101)
        assert_allclose(samples.velocity_frame, np.tile([0.0, 0.0, 1.0], (101, 1)), atol=0.0)

    def test_sampler_velocity_is_the_coordinate_derivative(self, figure1_hp):
        # the derivative of the helix's coordinates, in frame components, is
        # the sampler's frame velocity: a check of its z formula
        hp = figure1_hp
        spec = hc.biharmonic_helix(hp, (0.0, 2.0 * math.pi))
        samples = hc.sample_curve(spec, 301)
        S, C, A = math.sin(hp.alpha0), math.cos(hp.alpha0), spec.family["rate"]
        beta = A * samples.s + hp.a
        v_coord = np.stack([
            S * np.cos(beta),
            S * np.sin(beta),
            C + S * S / (2.0 * A) + 0.5 * S * (hp.b * np.sin(beta) - hp.c * np.cos(beta)),
        ], axis=-1)
        frame = mf.to_frame_components(H, samples.points, v_coord)
        assert_allclose(frame, samples.velocity_frame, rtol=0, atol=1e-13)

    def test_sampled_import_matches_analytic(self, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
        exact = hc.sample_curve(spec, 1001)
        samples = hc.import_samples(H, exact.s, exact.points)
        interior = samples.interior(0)
        dev = np.abs(samples.velocity_frame - exact.velocity_frame)[interior].max()
        assert dev < 1e-8
        assert samples.velocity_depth == 1

    def test_sampled_import_convergence_rate(self, figure1_hp):
        errs = {}
        for n in (801, 1601):
            spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
            exact = hc.sample_curve(spec, n)
            samples = hc.import_samples(H, exact.s, exact.points)
            interior = samples.interior(0)
            errs[n] = np.abs(samples.velocity_frame - exact.velocity_frame)[interior].max()
        assert errs[801] / errs[1601] >= 12.0

    def test_too_few_samples(self, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp)
        with pytest.raises(hc.TooFewSamples):
            hc.sample_curve(spec, 8)

    @pytest.mark.parametrize("s_range", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_range_must_be_finite(self, s_range):
        # such a range used to reach the sampler and fail its unit-speed
        # check with |v| = nan
        with pytest.raises(ValueError, match="s_range must be finite"):
            hc.sample_curve(vertical_line_spec(s_range=s_range), 11)

    @pytest.mark.parametrize("s_range", [(1.0, 1.0), (1.0, 0.0)])
    def test_range_must_increase(self, s_range):
        with pytest.raises(ValueError, match="s_range must be increasing"):
            hc.sample_curve(vertical_line_spec(s_range=s_range), 11)

    def test_nonuniform_rejected(self):
        s = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(hc.NonMonotone):
            _check_uniform_s(s)
        with pytest.raises(hc.NonMonotone):
            _check_uniform_s(np.array([0.0, 0.1, 0.1, 0.2]))

    def test_non_unit_speed_rejected(self):
        s = np.linspace(0.0, 1.0, 12)
        pts = np.stack([2.0 * s, np.zeros_like(s), np.zeros_like(s)], axis=-1)
        with pytest.raises(hc.NonUnitSpeed):
            hc.import_samples(H, s, pts)

    def test_nan_velocity_rejected(self, tmp_path, figure1_hp):
        # NaN compares false against any tolerance; it must not pass as unit speed
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 2.0 * math.pi))
        samples = hc.sample_curve(spec, 401)
        samples.velocity_frame = samples.velocity_frame.copy()
        samples.velocity_frame[137, 1] = np.nan
        path = tmp_path / "nan.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        with pytest.raises(hc.NonUnitSpeed, match="sample 137"):
            hc.import_samples(H, *hc.read_samples_csv(path))

    @pytest.mark.parametrize("spike,where", [(1e-2, 2 * TILE + 1), (np.nan, TILE + 100)])
    def test_unit_speed_names_its_worst_sample_past_the_first_tile(self, spike, where):
        # given velocities on three tiles deviate by 1e-3 at sample 50 and by
        # more, or by NaN, in a later tile: the message names the later sample
        n = 2 * TILE + 7
        vel = np.tile([0.6, 0.0, 0.8], (n, 1))
        vel[50] *= 1.0 + 1e-3
        vel[where] *= 1.0 + spike
        with pytest.raises(hc.NonUnitSpeed, match=rf"at sample {where} "):
            hc.import_samples(H, np.linspace(0.0, 1.0, n), np.zeros((n, 3)), vel)

    @pytest.mark.parametrize("s_shape,points_shape,velocity_shape", [
        ((4001,), (4501, 3), None),     # more points than arclengths
        ((4001,), (4001, 3), (100, 3)),  # a short velocity array
        ((4001,), (4001, 2), None),     # points without z
        ((4001,), (4001, 3), (4001, 2)),
        ((4001, 1), (4001, 3), None),   # arclengths not 1-D
        ((1,), (1, 3), None),           # fewer than two samples
    ])
    def test_import_rejects_mismatched_shapes(self, s_shape, points_shape, velocity_shape):
        s = np.linspace(0.0, 1.0, math.prod(s_shape)).reshape(s_shape)
        points = np.zeros(points_shape)
        vel = None if velocity_shape is None else np.ones(velocity_shape) / math.sqrt(3.0)
        with pytest.raises(ValueError, match=re.escape(f"points {points_shape}")) as err:
            hc.import_samples(H, s, points, vel)
        assert f"s {s_shape}" in str(err.value)
        if velocity_shape is not None:
            assert f"velocities {velocity_shape}" in str(err.value)


class TestCovariantDerivative:
    def test_constant_e3_along_vertical_line(self):
        samples = hc.sample_curve(vertical_line_spec(), 101)
        field = np.tile([0.0, 0.0, 1.0], (101, 1))
        out = hc.covariant_derivative_along(samples, field)
        interior = samples.interior(1)
        assert np.abs(out[interior]).max() < 1e-13
        assert_nan_outside(out, interior)

    def test_velocity_along_geodesic(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 10.0))
        samples = hc.sample_curve(spec, 801)
        out = hc.covariant_derivative_along(samples, samples.velocity_frame)
        interior = samples.interior(1)
        assert np.linalg.norm(out, axis=1)[interior].max() < 1e-6

    def test_helix_curvature_magnitude(self, figure1_samples):
        out = hc.covariant_derivative_along(figure1_samples, figure1_samples.velocity_frame)
        interior = figure1_samples.interior(1)
        k = np.linalg.norm(out, axis=1)[interior]
        expected = math.sin(FIGURE1_ALPHA0) * (math.cos(FIGURE1_ALPHA0) - FIGURE1_A)
        assert np.abs(k - expected).max() < 1e-6

    def test_heisenberg_component_formula(self, figure1_samples):
        # (T1' + T2 T3, T2' - T1 T3, T3') in the frame, checked entrywise
        T = figure1_samples.velocity_frame
        ds = figure1_samples.ds
        dT = derivative_on_grid(T, ds)
        explicit = np.stack(
            [
                dT[:, 0] + T[:, 1] * T[:, 2],
                dT[:, 1] - T[:, 0] * T[:, 2],
                dT[:, 2],
            ],
            axis=-1,
        )
        out = hc.covariant_derivative_along(figure1_samples, T)
        assert_allclose(out, explicit, atol=1e-14)

    @pytest.mark.parametrize("m,l", [(0.25, 1.2), (-0.2, 0.7), (0.3, 0.0), (1.0, -2.0)])
    def test_matches_connection_table_off_heisenberg(self, m, l):
        # the closed-form correction against the table contraction it replaced
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(41)
        n = 64
        points = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(-3.0, 3.0, n)])
        T = rng.standard_normal((n, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        V = rng.standard_normal((n, 3))
        samples = hc.CurveSamples(par, np.linspace(0.0, 1.0, n), points, T)
        expected = derivative_on_grid(V, samples.ds) + np.einsum(
            "ni,nj,nija->na", T, V, mf.connection_table(par, points)
        )
        out = hc.covariant_derivative_along(samples, V)
        interior = samples.interior(1)
        scale = np.abs(expected[interior]).max()
        assert np.abs(out - expected)[interior].max() <= 1e-13 * scale
        assert_nan_outside(out, interior)
        assert_nan_outside(expected, interior)

    @pytest.mark.parametrize("m,l", [(0.0, 1.0), (0.25, 1.2)])
    def test_connection_added_in_place_bit_for_bit(self, m, l):
        # the in-place sum has the bits of the derivative plus connection_term
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(43)
        n = 257
        points = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(-3.0, 3.0, n)])
        T = rng.standard_normal((n, 3))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        V = rng.standard_normal((n, 3))
        V[::7] = -0.0
        samples = hc.CurveSamples(par, np.linspace(0.0, 1.0, n), points, T)
        expected = derivative_on_grid(V, samples.ds) + mf.connection_term(par, points, T, V)
        out = hc.covariant_derivative_along(samples, V)
        assert out.tobytes() == expected.tobytes()

    def test_field_shape_validated(self, figure1_samples):
        with pytest.raises(ValueError):
            hc.covariant_derivative_along(figure1_samples, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, figure1_samples, bad):
        # the samples reject the point when they are built, so no pass sees it
        with pytest.raises(ValueError, match="finite"):
            _with_bad_point(figure1_samples, bad)


_CHART_EDGE = mf.ManifoldParams(-1.0, 1.0)  # the chart is x^2 + y^2 < 1


@pytest.mark.parametrize("route", ["CurveSamples", "replace", "import_samples"])
@pytest.mark.parametrize("axis, value, error, message", [
    (1, math.nan, ValueError, "point components must be finite"),
    (2, math.inf, ValueError, "point components must be finite"),
    (0, 1.5, hc.DomainError,
     "point outside the chart: 1 + m (x^2+y^2) <= 0 for (m, l) = (-1.0, 1.0)"),
], ids=["nan", "inf", "outside-chart"])
def test_samples_check_their_points_when_built(route, axis, value, error, message):
    # every way of making samples refuses the point, with the error a pass
    # along the curve would raise
    n = 41
    s = np.linspace(0.0, 1.0, n)
    points = np.zeros((n, 3))
    points[:, 0] = s / 4.0
    vel = np.tile([1.0, 0.0, 0.0], (n, 1))
    samples = hc.CurveSamples(_CHART_EDGE, s, points, vel)
    bad = points.copy()
    bad[n // 2, axis] = value
    build = {
        "CurveSamples": lambda: hc.CurveSamples(_CHART_EDGE, s, bad, vel),
        "replace": lambda: dataclasses.replace(samples, points=bad),
        "import_samples": lambda: hc.import_samples(_CHART_EDGE, s, bad, vel),
    }[route]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def _with_bad_point(samples, bad):
    """``samples`` with one coordinate of one interior point set to ``bad``,
    built by ``dataclasses.replace``, past the checks of ``import_samples``
    but not those of ``CurveSamples``."""
    points = samples.points.copy()
    points[samples.n // 2, 1] = bad
    return dataclasses.replace(samples, points=points)


class TestFrenet:
    def test_helix_invariant_values(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        interior = fr.samples.interior(2)
        assert fr.defined[interior].all()
        assert np.abs(fr.k[interior] - FIGURE1_K).max() < 1e-6
        assert np.abs(fr.tau[interior] - FIGURE1_TAU).max() < 1e-6
        assert np.abs(fr.B3[interior] - FIGURE1_B3).max() < 1e-6
        assert np.abs(fr.N3[interior]).max() < 1e-7
        assert np.abs(fr.T3[interior] - math.cos(FIGURE1_ALPHA0)).max() < 1e-12

    def test_frame_orthonormal(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        interior = fr.samples.interior(2)
        T = figure1_samples.velocity_frame
        frames = np.stack([T[interior], fr.N[interior], fr.B[interior]], axis=1)
        gram = np.einsum("nai,nbi->nab", frames, frames)
        assert np.abs(gram - np.eye(3)).max() < 1e-6

    def test_binormal_is_np_cross_to_the_bit(self, figure1_samples):
        # T is the helix's but e3 on a middle stretch, where k = 0 and N is NaN
        T = figure1_samples.velocity_frame.copy()
        T[800:1200] = [0.0, 0.0, 1.0]
        samples = dataclasses.replace(figure1_samples, velocity_frame=T)
        fr = hc.frenet_apparatus(samples)
        assert not fr.defined[900:1100].any() and fr.defined[4:700].all()
        assert not fr.defined[:4].any() and not fr.defined[-4:].any()
        expected = np.cross(samples.velocity_frame, fr.N)
        assert np.array_equal(fr.B.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_point_rejected(self, figure1_samples, bad):
        with pytest.raises(ValueError, match="finite"):
            hc.frenet_apparatus(_with_bad_point(figure1_samples, bad))

    def test_geodesic_frame_undefined(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 10.0))
        fr = hc.frenet_apparatus(hc.sample_curve(spec, 801))
        assert not fr.defined.any()
        assert np.isnan(fr.tau).all()
        assert np.isnan(fr.N).all()

    def test_frenet_equations_consistency(self):
        # <nabla_T N, T> = -k and <nabla_T B, N> = tau on a curve with
        # genuinely varying curvature
        spec = hc.b3zero_curve(lambda s: 0.4 + 0.3 * s + 0.05 * s**2, (0.0, 2.0))
        samples = hc.sample_curve(spec, 1001)
        fr = hc.frenet_apparatus(samples)
        dN = hc.covariant_derivative_along(samples, fr.N)
        dB = hc.covariant_derivative_along(samples, fr.B)
        interior = fr.samples.interior(3)  # dN and dB are a third pass
        lhs_k = np.einsum("ni,ni->n", dN, samples.velocity_frame)
        lhs_tau = np.einsum("ni,ni->n", dB, fr.N)
        assert np.abs(lhs_k + fr.k)[interior].max() < 1e-5
        assert np.abs(lhs_tau - fr.tau)[interior].max() < 1e-5
        assert_nan_outside(lhs_k, interior)
        assert_nan_outside(lhs_tau, interior)

    def test_frame_component_identity(self):
        # N3' + B3/2 = -k T3 - tau B3 along non-geodesic curves
        spec = hc.b3zero_curve(lambda s: 0.4 + 0.3 * s + 0.05 * s**2, (0.0, 2.0))
        samples = hc.sample_curve(spec, 1001)
        fr = hc.frenet_apparatus(samples)
        dN3 = derivative_on_grid(fr.N3, fr.samples.ds)
        interior = fr.samples.interior(3)  # dN3 is a third pass
        lhs = dN3 + 0.5 * fr.B3
        rhs = -fr.k * fr.T3 - fr.tau * fr.B3
        assert np.abs(lhs - rhs)[interior].max() < 1e-5
        assert_nan_outside(lhs, interior)


class TestLeftInvariance:
    def test_exact_transport_is_bitwise(self, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 4.0 * math.pi))
        moved = hc.left_translate_curve([3.0, -1.0, 2.0], spec)
        a = hc.frenet_apparatus(hc.sample_curve(spec, 801))
        b = hc.frenet_apparatus(hc.sample_curve(moved, 801))
        assert_allclose(b.k, a.k, atol=1e-15)
        assert_allclose(b.tau, a.tau, atol=1e-15)
        assert_allclose(b.B3, a.B3, atol=1e-15)

    def test_differentiated_import_route(self, figure1_hp):
        # velocities re-derived from translated positions: k and tau move by
        # no more than the stencil noise
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
        base = hc.sample_curve(spec, 2001)
        moved_pts = mf.left_translate(H, [3.0, -1.0, 2.0], base.points)
        orig = hc.frenet_apparatus(hc.import_samples(H, base.s, base.points))
        moved = hc.frenet_apparatus(hc.import_samples(H, base.s, moved_pts))
        interior = moved.samples.interior(2)
        assert np.abs(moved.k - orig.k)[interior].max() < 1e-6
        assert np.abs(moved.tau - orig.tau)[interior].max() < 1e-6

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        g=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
        sampled=st.booleans(),
    )
    def test_translated_curve_property(self, figure1_hp, g, sampled):
        # a translated curve and translated imported samples: the frame
        # velocities are the sampler's bit for bit, the points are the
        # translated points, and k and tau do not move
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 4.0 * math.pi))
        base = hc.sample_curve(spec, 401)
        if sampled:
            imported = hc.import_samples(H, base.s, base.points, base.velocity_frame)
            moved = hc.left_translate_samples(g, imported)
        else:
            moved = hc.sample_curve(hc.left_translate_curve(g, spec), 401)
        assert np.array_equal(moved.velocity_frame, base.velocity_frame)
        assert np.array_equal(moved.points, mf.left_translate(H, g, base.points))
        a, b = hc.frenet_apparatus(base), hc.frenet_apparatus(moved)
        assert_allclose(b.k, a.k, rtol=0, atol=1e-12)
        assert_allclose(b.tau, a.tau, rtol=0, atol=1e-12)

    def test_translate_samples(self, figure1_samples):
        # a step that is not s[1] - s[0], as on a tile, and differenced
        # velocities: both are carried, not recomputed
        base = dataclasses.replace(figure1_samples, velocity_depth=1,
                                   ds=np.nextafter(figure1_samples.ds, np.inf))
        moved = hc.left_translate_samples([3.0, -1.0, 2.0], base)
        assert_allclose(moved.velocity_frame, base.velocity_frame, atol=0.0)
        assert_allclose(
            moved.points,
            mf.left_translate(H, [3.0, -1.0, 2.0], base.points),
            atol=0.0,
        )
        assert moved.ds == base.ds and moved.velocity_depth == 1
        assert not np.shares_memory(moved.s, base.s)
        assert not np.shares_memory(moved.velocity_frame, base.velocity_frame)


class TestInterchange:
    def test_csv_roundtrip(self, tmp_path, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 2.0 * math.pi))
        samples = hc.sample_curve(spec, 301)
        path = tmp_path / "helix.csv"
        hc.write_samples_csv(path, samples, include_velocity=True)
        back = hc.import_samples(H, *hc.read_samples_csv(path))
        assert_allclose(back.s, samples.s, atol=0.0)
        assert_allclose(back.points, samples.points, atol=0.0)
        assert_allclose(back.velocity_frame, samples.velocity_frame, atol=0.0)

    def test_csv_positions_only(self, tmp_path, figure1_hp):
        spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
        samples = hc.sample_curve(spec, 1001)
        path = tmp_path / "pos.csv"
        hc.write_samples_csv(path, samples)
        back = hc.import_samples(H, *hc.read_samples_csv(path))
        assert back.velocity_depth == 1
        interior = back.interior(0)
        assert np.abs(back.velocity_frame - samples.velocity_frame)[interior].max() < 1e-8

    def test_csv_golden_bytes(self, tmp_path):
        s = np.array([-0.0, 1e-300, 0.1 + 0.2])
        points = np.array([[1.0, -2.5, 1e22], [np.pi, -1e-5, 123456789.0], [-0.0, 1e-300, 0.1 + 0.2]])
        vel = np.array([[0.6, 0.0, 0.8], [-0.0, 1.0, 2.0 / 3.0], [0.1, 0.2, 1.0 / 3.0]])
        path = tmp_path / "golden.csv"
        hc.write_samples_csv(path, hc.CurveSamples(H, s, points, vel), include_velocity=True)
        assert path.read_bytes() == (
            b"s,x,y,z,vx,vy,vz\r\n"
            b"-0.0,1.0,-2.5,1e22,0.6,0.0,0.8\r\n"
            b"1e-300,3.141592653589793,-0.00001,123456789.0,-0.0,1.0,0.6666666666666666\r\n"
            b"0.30000000000000004,-0.0,1e-300,0.30000000000000004,0.1,0.2,0.3333333333333333\r\n"
        )

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(hc.MalformedSampleFile):
            hc.read_samples_csv(path)

    def test_csv_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n0.1,oops,0,0\n")
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("number", ["1_0", "\u0661", " 1_0 "])
    def test_csv_number_numpy_rejects_reports_line(self, tmp_path, number):
        # Python's float accepts digit underscores and non-ASCII digits; the
        # reader's parser does not, and the rescan must agree with it
        path = tmp_path / "bad.csv"
        path.write_text(f"s,x,y,z\n0,0,0,0\n1,{number},0,0\n2,0,0,0\n", encoding="utf-8")
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert "unparseable number at line 3" in str(err.value)

    def test_csv_padded_number_not_blamed(self, tmp_path):
        # whitespace around a number, Unicode spaces included, is valid for
        # the reader, so the rescan must pass line 3 and name the wide line 4
        path = tmp_path / "padded.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n1,\u00a01\t,0,0\n2,0,0,0,5\n", encoding="utf-8")
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert "line 4 has 5 fields" in str(err.value)

    def test_csv_short_velocity_rows_rejected(self, tmp_path):
        # the header names vx,vy,vz but the rows carry positions only
        path = tmp_path / "short.csv"
        path.write_text("s,x,y,z,vx,vy,vz\n0,0,0,0\n0.1,0.1,0,0\n0.2,0.2,0,0\n")
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert "line 2" in str(err.value)

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n0.1,0.1,0,0\n0.2,0.2,0,0,1\n0.3,0.3,0,0\n")
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert "line 4" in str(err.value)

    def test_csv_blank_line_skipped_other_lines_rejected(self, tmp_path):
        rows = ["s,x,y,z", "0,0,0,0", "0.1,0.1,0,0", "0.2,0.2,0,0"]
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(rows) + "\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("\r\n".join(rows[:2] + [""] + rows[2:]) + "\r\n")
        (s_a, points_a, vel_a), (s_b, points_b, vel_b) = map(hc.read_samples_csv, (plain, blank))
        assert np.array_equal(s_a, s_b)
        assert np.array_equal(points_a, points_b)
        assert vel_a is None and vel_b is None
        for filler in ("   ", "# comment"):
            path = tmp_path / "filler.csv"
            path.write_text("\n".join(rows[:2] + ["", filler] + rows[2:]) + "\n")
            with pytest.raises(hc.MalformedSampleFile) as err:
                hc.read_samples_csv(path)
            assert "line 4" in str(err.value)

    @pytest.mark.parametrize("column,value", [("s", "nan"), ("x", "nan"), ("z", "-inf"),
                                              ("vy", "inf"), ("vz", "NaN")])
    def test_csv_nonfinite_value_names_line_and_column(self, tmp_path, column, value):
        cols = ["s", "x", "y", "z", "vx", "vy", "vz"]
        rows = [[f"{0.1 * i:.17g}", "0", "0", "0", "1", "0", "0"] for i in range(6)]
        rows[3][cols.index(column)] = value
        path = tmp_path / "nonfinite.csv"
        lines = [",".join(cols)] + [",".join(r) for r in rows]
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")  # sample 3 is on line 6
        with pytest.raises(hc.MalformedSampleFile) as err:
            hc.read_samples_csv(path)
        assert f"line 6 (sample 3), column {column}" in str(err.value)
        # a bad velocity is also a velocity that cannot have unit length
        assert isinstance(err.value, hc.NonUnitSpeed) is column.startswith("v")

    def test_nonfinite_arclength_rejected_outside_the_reader(self):
        s = np.linspace(0.0, 1.0, 11)
        s[7] = np.nan
        with pytest.raises(hc.NonMonotone, match="not finite at row 7"):
            hc.import_samples(H, s, np.zeros((11, 3)), np.tile([1.0, 0.0, 0.0], (11, 1)))

    def test_csv_nonmonotone_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["s,x,y,z"] + [f"{s},{s},0,0" for s in (0.0, 0.1, 0.05, 0.3)]
        path.write_text("\n".join(rows) + "\n")
        parsed = hc.read_samples_csv(path)  # the reader only parses
        with pytest.raises(hc.NonMonotone, match="at row 2"):
            hc.import_samples(H, *parsed)

    def test_frenet_json(self, figure1_samples):
        import json

        fr = hc.frenet_apparatus(figure1_samples)
        payload = json.loads(hc.frenet_to_json(fr))
        assert payload["n"] == figure1_samples.n
        assert payload["manifold"] == {"m": 0.0, "l": 1.0}
        columns = payload["columns"]
        mid = fr.samples.n // 2
        assert columns["defined"][mid] is True
        assert columns["k"][mid] == pytest.approx(FIGURE1_K, abs=1e-6)

    def test_frenet_json_geodesic_nulls(self):
        spec = hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0))
        fr = hc.frenet_apparatus(hc.sample_curve(spec, 64))
        import json

        text = hc.frenet_to_json(fr)
        assert "\n" not in text
        columns = json.loads(text)["columns"]
        assert columns["tau"][10] is None and columns["N"][0][10] is None
        # k = |nabla_T T| is a number exactly on the interior of its one
        # pass; N, B and tau are null exactly where the frame is undefined
        assert len(columns["defined"]) == fr.samples.n
        interior = fr.samples.interior(1)
        for i, defined in enumerate(fr.defined):
            assert columns["defined"][i] is bool(defined)
            k = columns["k"][i]
            if interior.start <= i < interior.stop:
                assert isinstance(k, (int, float)) and not isinstance(k, bool)
            else:
                assert k is None
            nulls = [columns["tau"][i] is None] + [
                columns[key][c][i] is None for key in ("N", "B") for c in range(3)
            ]
            assert nulls == [not defined] * 7

    def test_frenet_json_columns_round_trip(self, figure1_samples):
        import json

        fr = hc.frenet_apparatus(figure1_samples)
        columns = json.loads(hc.frenet_to_json(fr))["columns"]
        assert set(columns) == {"s", "point", "T", "k", "N", "B", "tau", "defined"}
        vectors = (("point", fr.samples.points), ("T", fr.samples.velocity_frame), ("N", fr.N),
                   ("B", fr.B))
        for key, series in vectors:
            assert _bits(np.array(columns[key], float).T) == _bits(series), key
        for key, series in (("s", fr.samples.s), ("k", fr.k), ("tau", fr.tau)):
            assert _bits(np.array(columns[key], float)) == _bits(series), key
        assert np.array_equal(np.array(columns["defined"]), fr.defined)
        # null exactly past the stencil's reach: k after one pass, the frame
        # after two
        for key, depth in (("k", 1), ("tau", 2), ("N", 2), ("B", 2)):
            back = np.array(columns[key], float).T
            interior = fr.samples.interior(depth)
            assert_nan_outside(back, interior)
            assert np.isfinite(back[interior]).all(), key
        # every number is written as a float, as in the CSVs: s = 0 is 0.0
        assert columns["s"][0] == 0 and isinstance(columns["s"][0], float)

    def test_frenet_json_special_values(self):
        import json

        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 2.0, 0.1])
        n = len(special)
        vec = np.stack([special, special[::-1], np.arange(n) - 4.0], axis=-1)
        points = np.where(np.abs(vec) < 1e150, vec, 0.5)  # samples hold finite points
        fr = hc.FrenetSeries(
            hc.CurveSamples(H, np.arange(n) / 8.0, points, vec), k=special, N=vec, B=vec,
            tau=special, defined=np.isfinite(special),
        )
        columns = json.loads(hc.frenet_to_json(fr))["columns"]
        expected = [None, None, None, -0.0, 0, 5e-324, 1e300, 2, 0.1]
        assert columns["tau"] == expected and columns["k"] == expected
        assert columns["N"][1] == columns["B"][1] == columns["T"][1] == expected[::-1]
        assert _bits(np.array(columns["point"], float)) == _bits(points.T)
        # negative zero keeps its sign; the other finite values are bit-equal
        back = np.array(columns["tau"], float)
        assert np.signbit(back[3]) and not np.signbit(back[4])
        finite = np.isfinite(special)
        assert _bits(back[finite]) == _bits(special[finite])

    def test_frenet_json_provenance(self, figure1_samples, tmp_path):
        import json

        fr = hc.frenet_apparatus(figure1_samples)
        prov = json.loads(hc.frenet_to_json(fr))["provenance"]
        interior = fr.samples.interior(2)
        assert prov == {
            "version": hc.__version__,
            "manifold": {"m": 0.0, "l": 1.0},
            "n": fr.samples.n,
            "ds": fr.samples.ds,
            "velocity_depth": 0,
            "stencil_order": 4,
            "interior": [interior.start, interior.stop],
        }
        # positions read back carry one more derivative pass
        path = tmp_path / "pos.csv"
        hc.write_samples_csv(path, figure1_samples)
        imported = hc.frenet_apparatus(hc.import_samples(H, *hc.read_samples_csv(path)))
        prov = json.loads(hc.frenet_to_json(imported))["provenance"]
        assert prov["velocity_depth"] == 1
        assert prov["interior"] == [6, fr.samples.n - 6]
        # a series too short for an interior still serializes
        short = hc.frenet_apparatus(hc.sample_curve(vertical_line_spec(), 9))
        assert json.loads(hc.frenet_to_json(short))["provenance"]["interior"] == [4, 5]
        deeper = dataclasses.replace(short.samples, velocity_depth=1)
        assert json.loads(hc.frenet_to_json(dataclasses.replace(short, samples=deeper)))[
            "provenance"]["interior"] is None


def _bits(values) -> list[int]:
    """The float64 bits of ``values``, flattened, with every NaN made
    canonical: a null read back is the NaN it was written for."""
    a = np.array(values, dtype=float).reshape(-1)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64).tolist()


def _assert_numbers_are_repr_decimals(texts, a) -> None:
    """Each text of ``texts`` is the decimal ``repr`` writes for its entry
    of the finite series ``a``, and reads back to that entry's bits, the sign
    of zero included."""
    values = a.tolist()
    assert len(texts) == len(values)
    assert [decimal.Decimal(t) for t in texts] == [decimal.Decimal(repr(v)) for v in values]
    assert _bits([float(t) for t in texts]) == _bits(values)


def _assert_table_round_trips(path, header, columns) -> None:
    """The file ``_write_table(path, header, columns)`` wrote: the header,
    then one row per sample, every line ended by ``\\r\\n``, with an empty
    field for a ``None`` column, ``nan``, ``inf`` or ``-inf`` for a number
    that is not finite, and for every other number ``repr``'s decimal with
    its bits."""
    lines = path.read_bytes().decode("ascii").split("\r\n")
    assert lines.pop() == ""
    assert lines.pop(0) == ",".join(header)
    fields = list(zip(*(line.split(",") for line in lines)))
    n = len(next(c for c in columns if c is not None))
    assert len(lines) == n and all(len(line.split(",")) == len(header) for line in lines)
    for texts, column in zip(fields or [()] * len(columns), columns):
        if column is None:
            assert set(texts) <= {""}
            continue
        a = np.asarray(column, dtype=float)
        finite = np.isfinite(a)
        assert [t for t, f in zip(texts, finite) if not f] == [repr(v) for v in a[~finite].tolist()]
        _assert_numbers_are_repr_decimals([t for t, f in zip(texts, finite) if f], a[finite])


def _outcome(path):
    """What ``read_samples_csv`` gives for ``path``: its rows as the bits of
    one array, or the type and message of its error."""
    try:
        s, points, vel = hc.read_samples_csv(path)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return np.column_stack([s, points, *([] if vel is None else [vel])]).view(np.int64).tolist()


def _rows_file(path, texts, width=4) -> list[str]:
    """Write ``texts`` as rows of ``width`` fields under a sample header,
    padded with "0" to whole rows and to at least two; returns the fields."""
    texts = list(texts) + ["0"] * (-len(texts) % width)
    texts += ["0"] * max(0, 2 * width - len(texts))
    header = ",".join(["s", "x", "y", "z", "vx", "vy", "vz"][:width])
    rows = [",".join(texts[i:i + width]) for i in range(0, len(texts), width)]
    path.write_bytes(("\n".join([header, *rows]) + "\n").encode("ascii"))
    return texts


def _json_rows(path, width=4):
    with open(path, "rb") as fh:
        fh.readline()
        return curves._read_json_rows(fh, width)


def _midpoint_texts(x: float) -> list[str]:
    """The exact decimal midpoint between ``x`` and the next double up, and
    the decimals just below and just above it."""
    with decimal.localcontext(prec=2000):
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
        return [format(d, "e") for d in (mid.next_minus(), mid, mid.next_plus())]


class TestReaderRoutes:
    """orjson reads files of plain rows of JSON numbers; ``np.loadtxt`` reads
    every other file.  Each file gives the same bits, or the same error, on
    both routes: the reference route reads every file with ``np.loadtxt``,
    as when ``_read_json_rows`` declines it."""

    ROWS = ["0,0,0,0", "1,0.5,-0.25,3", "2,1e-5,2.5E+3,-7", "3,4,5,6"]

    @staticmethod
    def _both_routes(monkeypatch, path):
        """The outcome of the reader, the outcome of ``np.loadtxt`` alone,
        and whether the first read took orjson's route."""
        routes, read = [], curves._read_json_rows
        monkeypatch.setattr(curves, "_read_json_rows",
                            lambda *a: routes.append(read(*a)) or routes[-1])
        fast = _outcome(path)
        with monkeypatch.context() as m:
            m.setattr(curves, "_read_json_rows", lambda *a: None)
            slow = _outcome(path)
        return fast, slow, bool(routes) and routes[0] is not None

    @pytest.mark.parametrize("text,json_route", [
        ('"1.5"', False), ("true", False), ("false", False), ("null", False),
        ("-0", True), ("-0.0", True), ("-0e0", True), (".5", False), ("1.", False),
        ("+1", False), ("01", False), ("1e400", False), ("-1e-400", True), ("1e-0", True),
        ("12345678901234567", True), ("12345678901234567890", True),
        ("123456789012345678901234567890", True), (" \t-2.5 ", True),
        ("\u00a01", False), ("1\u2003", False), ("1_0", False), ("nan", False),
        ("-inf", False), ("Infinity", False), ("0x1p0", False), ("", False), ("1 2", False),
    ])
    def test_field_grammar(self, tmp_path, monkeypatch, text, json_route):
        rows = list(self.ROWS)
        rows[1] = f"1,{text},-0.25,3"
        path = tmp_path / "field.csv"
        path.write_bytes(("s,x,y,z\n" + "\n".join(rows) + "\n").encode("utf-8"))
        fast, slow, took_json = self._both_routes(monkeypatch, path)
        assert fast == slow
        assert took_json is json_route
        if json_route:  # the parsed value is float()'s, sign of zero included
            assert fast[1][1] == _bits(float(text))[0]

    def test_integer_minus_zero_keeps_its_sign(self, tmp_path):
        # orjson reads the integer -0 as 0; 1e-0 is one
        path = tmp_path / "zeros.csv"
        path.write_bytes(b"s,x,y,z\n-0,0,-0 ,1e-0\n-0,\t-0,0,-0\n")
        rows = _json_rows(path)
        assert np.signbit(rows).tolist() == [[True, False, True, False], [True, True, False, True]]
        assert rows[0, 3] == 1.0

    @pytest.mark.parametrize("body,json_route", [
        (b"s,x,y,z\r\n{}", True),                      # rows end in \r\n
        (b"s,x,y,z\n{}", True),
        (b" S , X,y ,z\n{}", True),                    # the header check is text's
        (b"s,x,y,z,vx,vy,vz\n0,0,0,0,1,0,0\n1,1,0,0,1,0,0\n", True),
        (b"s,x,y,z\n0,0,0,0\n1,1,1,1", True),          # the last line lacks its newline
        (b"s,x,y,z\r\n0,0,0,0\r\n1,1,1,1", True),
        (b"s,x,y,z\n0,0,0,0\n1,1,1,1\r", False),     # a lone \r ends the last line
        (b"s,x,y,z\n0,0,0,0\n\n1,1,1,1\n", False),     # a blank line
        (b"s,x,y,z\n0,0,0,0\n1,1,1,1\n\n", False),
        (b"s,x,y,z\n0,0,0,0\r\n1,1,1,1\n", False),     # mixed line ends
        (b"s,x,y,z\n0,0\r,0,0\n1,1,1,1\n", False),     # a lone \r ends a line
        (b"s,x,y,z\n0,0,0,0\r1,1,1,1\n", False),
        (b"s,x,y,z\n0,0,0,0\r\r\n1,1,1,1\n", False),
        (b"s,x\r,y,z\n0,0,0,0\n1,1,1,1\n", None),
        (b"s,x,y,z\xc2\xa0\n0,0,0,0\n1,1,1,1\n", None),  # Unicode padding
        (b"\xef\xbb\xbfs,x,y,z\n0,0,0,0\n1,1,1,1\n", None),
        (b"s,x,y,z\n0,0,0,0\n1,1,1,\xff\n", False),
        (b"s,x,y,z\n0,0,0,0\n1,1,1,1,1\n", False),
        (b"s,x,y,z,vx,vy,vz\n0,0,0,0\n1,1,1,1\n", False),
        (b"s,x,y,z\n0,0,0,0\n", True),                  # too few rows
        (b"s,x,y,z\n", True),
        (b"s,x,y\n0,0,0\n1,1,1\n", None),
        (b"", None),
    ])
    def test_line_grammar(self, tmp_path, monkeypatch, body, json_route):
        path = tmp_path / "lines.csv"
        rows = "\r\n" if body.startswith(b"s,x,y,z\r\n") else "\n"
        path.write_bytes(body.replace(b"{}", (rows.join(self.ROWS) + rows).encode()))
        fast, slow, took_json = self._both_routes(monkeypatch, path)
        assert fast == slow
        if json_route is not None:
            assert took_json is json_route

    def test_blocks_of_whole_lines(self, tmp_path, monkeypatch):
        # rows that cross the block boundary many times, each read once
        monkeypatch.setattr(curves, "_BLOCK_BYTES", 37)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((500, 7)) * 10.0 ** rng.integers(-300, 300, (500, 7))
        path = tmp_path / "blocks.csv"
        texts = _rows_file(path, ["%.17g" % v for v in a.ravel()], width=7)
        assert _bits(_json_rows(path, 7)) == _bits([float(t) for t in texts])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(
        allow_nan=False, allow_infinity=False, allow_subnormal=True)),
        st.sampled_from(["%.17g", "repr"]))
    def test_doubles_read_as_float_reads_them(self, tmp_path_factory, a, style):
        texts = [repr(float(v)) if style == "repr" else style % v for v in a]
        self._check_texts(tmp_path_factory, texts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
                    | st.integers(0, 2**52 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
                    min_size=1, max_size=6))
    def test_midpoints_read_as_float_reads_them(self, tmp_path_factory, xs):
        # the decimals that are hardest to round: ties between two doubles
        # (subnormal ones included) and their nearest neighbours
        texts = [t for x in xs if math.isfinite(math.nextafter(x, math.inf))
                 for t in _midpoint_texts(x)]
        self._check_texts(tmp_path_factory, texts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.from_regex(
        r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
        min_size=1, max_size=20))
    def test_decimal_strings_read_as_float_reads_them(self, tmp_path_factory, texts):
        texts = [t for t in texts if math.isfinite(float(t))]
        self._check_texts(tmp_path_factory, texts)

    @staticmethod
    def _check_texts(tmp_path_factory, texts):
        path = tmp_path_factory.getbasetemp() / "property.csv"
        texts = _rows_file(path, texts)
        expected = _bits([float(t) for t in texts])
        assert _bits(_json_rows(path)) == expected
        with pytest.MonkeyPatch.context() as m:
            m.setattr(curves, "_read_json_rows", lambda *a: None)
            assert _outcome(path) == np.reshape(expected, (-1, 4)).tolist()


class TestTextCodec:
    """Every number of the per-sample files is the shortest text that reads
    back to its float64 bits: the decimal Python's ``repr`` writes.  Numbers
    that are not finite are ``nan``, ``inf`` and ``-inf`` in the CSVs, and
    null in ``.frenet.json``."""

    SPECIAL = np.array([
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, -1e-310,
        1e300, -1e300, 1.0, -3.0, 2.0**53, 123456789.0, 0.1, 1.0 / 3.0,
    ])
    # powers of ten and of two, the doubles next to them, and the switches
    # between fixed and scientific notation
    EDGES = np.concatenate([
        a for p in (10.0 ** np.arange(-300, 301), np.ldexp(1.0, np.arange(-1074, 1024)),
                    np.array([1e-5, 1e-4, 1e15, 1e16, 1e17]))
        for a in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p)
    ])

    def test_table_round_trips(self, tmp_path):
        rng = np.random.default_rng(7)
        a = self.SPECIAL
        b = rng.permutation(a)
        c = rng.standard_normal(len(a)) * 10.0 ** rng.integers(-20, 20, len(a))
        cases = [
            (("a",), (a,)),
            (("s", "a", "b", "c"), (np.arange(len(a)) / 4.0, a, b, c)),
            (("s", "gap", "a", "gap2", "c"), (a, None, b, None, c)),
            (("s", "a"), (np.arange(len(a)), a)),  # an integer column
            (("s", "a"), (np.zeros(0), np.zeros(0))),
        ]
        for header, columns in cases:
            path = tmp_path / "t.csv"
            curves._write_table(path, header, columns)
            _assert_table_round_trips(path, header, columns)

    @pytest.mark.parametrize("rows_per_write", [4, None])  # None: the package's own block size
    def test_table_split_in_blocks_round_trips(self, tmp_path, monkeypatch, rows_per_write):
        # a table is written one block of rows at a time; rows on either side
        # of every block end must come out whole, with the nulls of the block
        # replaced in order.  SPECIAL's column goes first and last on the
        # line, and an empty column goes in the middle
        if rows_per_write is not None:
            monkeypatch.setattr(curves, "_ROWS_PER_WRITE", rows_per_write)
        block = curves._ROWS_PER_WRITE
        rng = np.random.default_rng(8)
        path = tmp_path / "blocks.csv"
        for n in sorted({1, block - 1, block, block + 1, 2 * block, 2 * block + 1}):
            a = rng.permutation(np.resize(self.SPECIAL, n))
            b = rng.standard_normal(n)
            s = np.arange(n) / 8.0
            tables = [
                (("s", "a", "gap", "b"), (s, a, None, b)),
                (("a", "gap", "b"), (a, None, b)),
                (("b", "s", "a"), (b, s, a)),
            ]
            for header, columns in tables:
                curves._write_table(path, header, columns)
                _assert_table_round_trips(path, header, columns)

    def test_nonfinite_fields_keep_their_text(self, tmp_path):
        # orjson writes null for nan, inf and -inf alike; each goes back to
        # its own text, which the sample reader names, and a None column
        # stays empty
        path = tmp_path / "t.csv"
        curves._write_table(path, ("a", "gap", "b"), (
            np.array([np.nan, np.inf, -np.inf, 1.0]), None, np.array([-np.inf, 0.5, np.nan, -0.0])
        ))
        assert path.read_bytes() == (
            b"a,gap,b\r\nnan,,-inf\r\ninf,,0.5\r\n-inf,,nan\r\n1.0,,-0.0\r\n"
        )

    @staticmethod
    def _assert_series(texts, a) -> None:
        """``texts``, a JSON list read with every float left as its text,
        holds the series ``a``: booleans as they are, null where a number is
        not finite, and otherwise ``repr``'s decimal with ``a``'s bits."""
        if a.ndim == 2:
            assert len(texts) == 3
            for component, series in zip(texts, a.T):
                TestTextCodec._assert_series(component, series)
            return
        assert len(texts) == len(a)
        if a.dtype == bool:
            assert texts == a.tolist()
            return
        finite = np.isfinite(a)
        assert [t is None for t in texts] == (~finite).tolist()
        # each number is a float literal, so no series reads back as integers
        assert all(isinstance(t, str) for t in texts if t is not None)
        _assert_numbers_are_repr_decimals([t for t in texts if t is not None], a[finite])

    @pytest.mark.parametrize("rows_per_write", [4, None])
    def test_write_frenet_json_matches_frenet_to_json(
        self, tmp_path, monkeypatch, rows_per_write, figure1_hp
    ):
        # on either side of a block end: the figure helix, a geodesic (N, B and
        # tau all null) and series with negative zeros
        if rows_per_write is not None:
            monkeypatch.setattr(curves, "_ROWS_PER_WRITE", rows_per_write)
        block = curves._ROWS_PER_WRITE
        sizes = (block - 1, block + 1) if block > 8 else (2 * block + 1, 3 * block - 1)
        path = tmp_path / "curve.frenet.json"
        for n in sizes:
            helix = hc.frenet_apparatus(
                hc.sample_curve(hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi)), n)
            )
            geodesic = hc.frenet_apparatus(hc.sample_curve(
                hc.one_param_subgroup(np.array([0.0, 0.0, 1.0]), (0.0, 2.0)), n
            ))
            assert not geodesic.defined.any()
            copied = dataclasses.replace(
                helix.samples, s=helix.samples.s.copy(), points=helix.samples.points.copy(),
                velocity_frame=helix.samples.velocity_frame.copy(),
            )
            signed = dataclasses.replace(
                helix, samples=copied, k=helix.k.copy(), tau=helix.tau.copy()
            )
            for i in (0, n // 2, n - 1):
                copied.s[i] = copied.points[i, 1] = copied.velocity_frame[i, 2] = -0.0
                signed.k[i] = -0.0
                signed.tau[i] = np.nan
            for fr in (helix, geodesic, signed):
                text = hc.frenet_to_json(fr)
                samples = fr.samples
                columns = {
                    "B": fr.B, "N": fr.N, "T": samples.velocity_frame, "defined": fr.defined,
                    "k": fr.k, "point": samples.points, "s": samples.s, "tau": fr.tau,
                }
                assert text.startswith('{"columns":{"B":[['), n
                read = json.loads(text, parse_float=str)["columns"]
                assert list(read) == list(columns), n
                for key, a in columns.items():
                    self._assert_series(read[key], a)
                hc.write_frenet_json(path, fr)
                assert path.read_bytes() == text.encode("ascii"), n

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hnp.arrays(np.uint64, st.integers(2, 40)))
    def test_any_bit_pattern_round_trips(self, tmp_path_factory, bits):
        a = bits.view(np.float64)
        # the finite values through a sample CSV and its reader
        finite = a[np.isfinite(a)]
        finite = np.concatenate([finite, np.zeros(-len(finite) % 4 + 8 * (len(finite) < 8))])
        path = tmp_path_factory.getbasetemp() / "property.csv"
        curves._write_table(path, ("s", "x", "y", "z"), finite.reshape(-1, 4).T)
        s, points, _ = hc.read_samples_csv(path)
        assert _bits(np.column_stack([s, points])) == _bits(finite)
        # every value through .frenet.json, null where it is not finite
        vec = np.column_stack([a, a[::-1], a])
        points = np.where(np.abs(vec) < 1e150, vec, 0.5)  # samples hold finite points
        fr = hc.FrenetSeries(hc.CurveSamples(H, np.arange(len(a)) / 8.0, points, vec), k=a,
                             N=vec, B=vec, tau=a[::-1], defined=np.isfinite(a))
        columns = json.loads(hc.frenet_to_json(fr))["columns"]
        for key, series in (("k", a), ("tau", a[::-1]), ("point", points.T), ("T", vec.T),
                            ("N", vec.T), ("B", vec.T)):
            back = np.array(columns[key], dtype=float)  # null reads as NaN
            assert _bits(back) == _bits(np.where(np.isfinite(series), series, np.nan)), key
        assert columns["defined"] == np.isfinite(a).tolist()

    @staticmethod
    def _json_list(a):
        """The series ``a`` as ``.frenet.json`` writes it, read back with
        every float left as its text."""
        return json.loads(b"".join(curves._json_list_parts(a)), parse_float=str)

    def test_text_edges(self, tmp_path):
        # in both files, as columns and as 1-D and (n, 3) series
        path = tmp_path / "edges.csv"
        header, columns = ("e", "gap", "f"), (self.EDGES, None, self.EDGES[::-1])
        curves._write_table(path, header, columns)
        _assert_table_round_trips(path, header, columns)
        self._assert_series(self._json_list(self.EDGES), self.EDGES)
        vectors = self.EDGES[: len(self.EDGES) // 3 * 3].reshape(-1, 3)
        self._assert_series(self._json_list(vectors), vectors)

    def test_text_of_views(self, tmp_path):
        # columns and series with strides, taken from a larger array
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-20, 20, (1000, 3))
        a = pts.ravel()
        views = (a[::-3], a[::3], pts[:, 1], pts.T[2][::-1])
        assert not any(view.flags.c_contiguous for view in views)
        path = tmp_path / "views.csv"
        header = ("a", "b", "gap", "c", "d")
        curves._write_table(path, header, (*views[:2], None, *views[2:]))
        _assert_table_round_trips(path, header, (*views[:2], None, *views[2:]))
        for view in (*views, pts[::-2], pts[:, ::-1], pts[::3, 1], pts[:7, 0]):
            self._assert_series(self._json_list(view), view)
        # a sample CSV of strided points and velocities reads back to their bits
        samples = hc.CurveSamples(H, np.arange(500) / 8.0, pts[::2], pts[1::2, ::-1])
        hc.write_samples_csv(path, samples, include_velocity=True)
        s, points, vel = hc.read_samples_csv(path)
        assert _bits(s) == _bits(samples.s)
        assert _bits(points) == _bits(pts[::2]) and _bits(vel) == _bits(pts[1::2, ::-1])

    def test_text_across_block_ends(self, tmp_path):
        # rows on either side of a writer's block end, in a file many of the
        # reader's blocks long, read back to their bits
        rng = np.random.default_rng(10)
        block = curves._ROWS_PER_WRITE
        finite = self.SPECIAL[np.isfinite(self.SPECIAL)]
        path = tmp_path / "blocks.csv"
        for n in (block - 1, block, block + 1):
            values = np.resize(np.concatenate([finite, rng.standard_normal(50)]), 6 * n)
            rng.shuffle(values)
            points, velocities = values.reshape(2, n, 3)
            samples = hc.CurveSamples(H, np.arange(n) / 8.0, points, velocities)
            for include_velocity in (False, True):
                hc.write_samples_csv(path, samples, include_velocity)
                s, back, vel = hc.read_samples_csv(path)
                assert _bits(s) == _bits(samples.s), n
                assert _bits(back) == _bits(points), n
                if include_velocity:
                    assert _bits(vel) == _bits(velocities), n
                else:
                    assert vel is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_text_property_any_float64(self, tmp_path_factory, a):
        path = tmp_path_factory.getbasetemp() / "any_float64.csv"
        header, columns = ("a", "gap", "b"), (a, None, a[::-1])
        curves._write_table(path, header, columns)
        _assert_table_round_trips(path, header, columns)
        self._assert_series(self._json_list(a), a)

    def test_rounding_ties_read_back_to_their_bits(self, tmp_path):
        # m / 2**k is m 5**k / 10**k: for odd m with m 5**k of 18 digits, 17
        # significant digits fall on a tie, and the shortest text that reads
        # back to the bits is still repr's
        rng = np.random.default_rng(11)
        pairs = []
        for k in range(2, 26):
            lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
            pairs += [(m | 1, k) for m in rng.integers(lo, hi, 8).tolist()]
        assert all(len(str(m * 5**k)) == 18 for m, k in pairs)
        ties = np.array([m / 2**k for m, k in pairs])
        path = tmp_path / "ties.csv"
        curves._write_table(path, ("t", "u"), (ties, -ties))
        _assert_table_round_trips(path, ("t", "u"), (ties, -ties))
        self._assert_series(self._json_list(ties), ties)

    def test_frenet_series_shares_the_sampled_arrays(self, figure1_samples):
        fr = hc.frenet_apparatus(figure1_samples)
        assert fr.samples is figure1_samples
        assert np.shares_memory(fr.T3, figure1_samples.velocity_frame)

    def test_series_hold_their_samples(self, figure1_samples):
        # one grid record: the whole-curve series of a tiled report holds the
        # samples too, not a copy of their fields
        assert hc.frenet_apparatus(figure1_samples).samples is figure1_samples
        assert hc.bitension_report(figure1_samples).frenet.samples is figure1_samples
        assert [f.name for f in dataclasses.fields(hc.FrenetSeries)] == [
            "samples", "k", "N", "B", "tau", "defined", "t1"
        ]


TOLERANCES = (
    "unit_speed_tol", "residual_tol", "k_floor", "constancy_tol", "relation_tol", "b3_zero_tol",
)


class TestNumericsConfig:
    def test_fields_are_the_verdict_tolerances(self):
        assert tuple(f.name for f in dataclasses.fields(hc.NumericsConfig)) == TOLERANCES

    def test_validation(self):
        # every tolerance must be finite and positive
        for name in TOLERANCES:
            for bad in (0.0, -1e-3, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    hc.NumericsConfig(**{name: bad})
            assert getattr(hc.NumericsConfig(**{name: 1e-9}), name) == 1e-9

    def test_every_field_has_a_reader(self):
        # a field that no module outside numerics reads is a knob that does nothing
        src = Path(hc.__file__).parent
        text = "\n".join(
            p.read_text() for p in sorted(src.glob("*.py")) if p.name != "numerics.py"
        )
        unread = [
            f.name for f in dataclasses.fields(hc.NumericsConfig)
            if not re.search(rf"\b(config|cfg)\.{f.name}\b", text)
        ]
        assert unread == []
