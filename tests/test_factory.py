"""Helix family, geodesic shooting, subgroups, the vanishing-B3 family and
the cylinder / helicoid pair."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import heiscurves as hc
from heiscurves import factory
from heiscurves import manifold as mf

from geodesic_reference import ode_geodesic, rk4_geodesic
from conftest import (
    FIGURE1_A,
    FIGURE1_ALPHA0,
    FIGURE1_B3,
    FIGURE1_COS,
    FIGURE1_K,
    FIGURE1_TAU,
    assert_nan_outside,
)

H = hc.HEISENBERG
BOUNDARY_ALPHA = math.acos(2.0 / math.sqrt(5.0))


def points_of(spec, s):
    """The curve's points at the arclengths ``s``, from its sampler."""
    return spec.sampler(np.asarray(s, dtype=float))[0]


@pytest.fixture
def no_ode(monkeypatch):
    """Make ``factory.solve_ivp`` raise, so that a package curve sampled
    under this fixture is shown to solve no ODE (the reference geodesics
    integrate with scipy directly)."""

    def refuse(*args, **kwargs):
        raise AssertionError("an ODE was solved")

    monkeypatch.setattr(factory, "solve_ivp", refuse)


def admissible_alpha_grid(count):
    """Angles across both admissible components, away from the degenerate
    endpoints sin(alpha0) = 0."""
    lo = hc.ADMISSIBLE_BOUNDARY
    half = count // 2
    first = np.linspace(0.02, lo, half)
    second = np.linspace(math.pi - lo, math.pi - 0.02, count - half)
    return np.concatenate([first, second])


class TestBranchRoot:
    def test_known_root(self):
        A = hc.solve_branch_A(FIGURE1_ALPHA0, "plus")
        assert A == pytest.approx(FIGURE1_A, abs=1e-15)
        c = FIGURE1_COS
        assert abs(A * A - c * A + 1.0 - c * c) < 1e-12

    def test_minus_branch(self):
        A = hc.solve_branch_A(FIGURE1_ALPHA0, "minus")
        c = FIGURE1_COS
        assert abs(A * A - c * A + 1.0 - c * c) < 1e-12
        assert A < hc.solve_branch_A(FIGURE1_ALPHA0, "plus")

    def test_double_root_at_boundary(self):
        plus = hc.solve_branch_A(BOUNDARY_ALPHA, "plus")
        minus = hc.solve_branch_A(BOUNDARY_ALPHA, "minus")
        assert plus == pytest.approx(minus, abs=1e-12)
        assert plus == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)

    def test_degenerate_angle_rejected(self):
        with pytest.raises(hc.InadmissibleAlpha):
            hc.solve_branch_A(0.0)  # cos = 1, sin = 0
        with pytest.raises(hc.InadmissibleAlpha):
            hc.HelixParams(alpha0=0.0)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_angle_whose_cosine_rounds_to_one_rejected(self, branch):
        # cos(alpha0) rounds to 1.0 below about 1.05e-8, and the roots to 1
        # and 0: the plus root forces k = 0, the minus root is no rate
        for alpha0 in (1e-9, 1e-8):
            assert math.cos(alpha0) == 1.0
            with pytest.raises(hc.InadmissibleAlpha):
                hc.solve_branch_A(alpha0, branch)
            with pytest.raises(hc.InadmissibleAlpha):
                hc.HelixParams(alpha0=alpha0, branch=branch)
        hc.HelixParams(alpha0=2e-8, branch=branch)  # cos(2e-8) < 1.0
        assert hc.solve_branch_A(2e-8, branch) not in (0.0, math.cos(2e-8))

    def test_inadmissible_angle_rejected(self):
        with pytest.raises(hc.InadmissibleAlpha):
            hc.solve_branch_A(math.pi / 2.0)
        with pytest.raises(hc.InadmissibleAlpha):
            hc.HelixParams(alpha0=1.0)  # cos^2 = 0.29 < 4/5

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "delta, admissible", [(1e-13, True), (-1e-13, True), (1e-11, True), (-1e-11, False)]
    )
    def test_admissibility_sites_agree(self, sign, delta, admissible):
        # cos^2 = 4/5 + delta: the discriminant 5 delta is inside the 1e-12
        # slack at |delta| = 1e-13 and outside it at delta = -1e-11
        alpha0 = math.acos(sign * math.sqrt(0.8 + delta))
        cos_a = math.cos(alpha0)
        assert hc.admissible_cos(cos_a) is admissible
        X = mf.FrameVector(np.zeros(3), np.array([math.sin(alpha0), 0.0, cos_a]))
        cone = hc.cone_membership(hc.HEISENBERG, X)
        assert cone == ("biharmonic_direction" if admissible else "geodesic_only")
        if admissible:
            hc.HelixParams(alpha0=alpha0)
            hc.solve_branch_A(alpha0)
        else:
            with pytest.raises(hc.InadmissibleAlpha):
                hc.HelixParams(alpha0=alpha0)
            with pytest.raises(hc.InadmissibleAlpha):
                hc.solve_branch_A(alpha0)

    def test_quadratic_residual_on_grid(self):
        for alpha0 in admissible_alpha_grid(50):
            for branch in ("plus", "minus"):
                A = hc.solve_branch_A(float(alpha0), branch)
                c = math.cos(alpha0)
                assert abs(A * A - c * A + 1.0 - c * c) < 1e-12


class TestBiharmonicHelix:
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_constant_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} = {value!r}"):
            hc.HelixParams(alpha0=FIGURE1_ALPHA0, **{name: value})

    def test_figure_parameters_start_point(self):
        # a = b = c = 1, d = 0, sin(alpha0) = 1/sqrt(10)
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0, d=0.0)
        spec = hc.biharmonic_helix(hp)
        p0 = points_of(spec, 0.0)
        S = math.sin(FIGURE1_ALPHA0)
        assert p0[0] == pytest.approx(S / FIGURE1_A * math.sin(1.0) + 1.0, abs=1e-15)
        assert p0[1] == pytest.approx(-S / FIGURE1_A * math.cos(1.0) + 1.0, abs=1e-15)

    def test_z_component_termwise(self):
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=0.3, b=-1.0, c=2.0, d=0.7)
        spec = hc.biharmonic_helix(hp)
        S, C, A = math.sin(hp.alpha0), math.cos(hp.alpha0), FIGURE1_A
        for s in (0.0, 0.9, 4.2):
            beta = A * s + hp.a
            expected = (
                (C + S * S / (2 * A)) * s
                - hp.b / (2 * A) * S * math.cos(beta)
                - hp.c / (2 * A) * S * math.sin(beta)
                + hp.d
            )
            assert points_of(spec, s)[2] == pytest.approx(expected, abs=1e-15)

    def test_centered_curve_is_euclidean_helix(self):
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0)  # b = c = d = 0
        samples = hc.sample_curve(hc.biharmonic_helix(hp), 501)
        r2 = samples.points[:, 0] ** 2 + samples.points[:, 1] ** 2
        S = math.sin(hp.alpha0)
        assert np.abs(r2 - (S / FIGURE1_A) ** 2).max() < 1e-13
        slope = FIGURE1_COS + S * S / (2 * FIGURE1_A)
        assert np.abs(samples.points[:, 2] - slope * samples.s).max() < 1e-12

    def test_tangent_third_component_constant(self):
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0)
        samples = hc.sample_curve(hc.biharmonic_helix(hp), 501)
        assert np.abs(samples.velocity_frame[:, 2] - FIGURE1_COS).max() < 1e-12

    def test_both_branches_biharmonic(self):
        for branch in ("plus", "minus"):
            hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, branch=branch)
            samples = hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 6 * math.pi)), 1501)
            rep = hc.bitension_report(samples)
            assert rep.max_residual < 1e-5

    def test_branches_coincide_at_boundary(self):
        plus = hc.biharmonic_helix(hc.HelixParams(alpha0=BOUNDARY_ALPHA, branch="plus"))
        minus = hc.biharmonic_helix(hc.HelixParams(alpha0=BOUNDARY_ALPHA, branch="minus"))
        s = np.linspace(0.0, 5.0, 64)
        assert_allclose(points_of(minus, s), points_of(plus, s), atol=1e-12)

    def test_translation_identity(self):
        # the translated centered helix is exactly the offset-parameter helix
        hp0 = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=0.4)
        offset = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=0.4, b=1.5, c=-0.7, d=2.0)
        base = hc.biharmonic_helix(hp0)
        moved = hc.left_translate_curve([1.5, -0.7, 2.0], base)
        target = hc.biharmonic_helix(offset)
        s = np.linspace(0.0, 10.0 * math.pi, 257)
        assert np.abs(points_of(moved, s) - points_of(target, s)).max() < 1e-12


def paper_helix(alpha0, rate, a, b, c, d, s):
    """Points and frame velocities of the helix from the paper's own
    equations in (alpha0, A, a, b, c, d), evaluated directly."""
    S, C = math.sin(alpha0), math.cos(alpha0)
    beta = rate * s + a
    sin_beta, cos_beta = np.sin(beta), np.cos(beta)
    x = (S / rate) * sin_beta + b
    y = -(S / rate) * cos_beta + c
    z = (
        (C + S * S / (2.0 * rate)) * s
        - (b * S / (2.0 * rate)) * cos_beta
        - (c * S / (2.0 * rate)) * sin_beta
        + d
    )
    vel = np.stack([S * cos_beta, S * sin_beta, np.full_like(beta, C)], axis=-1)
    return np.stack([x, y, z], axis=-1), vel


class TestPaperEquations:
    """The factory samples a helix by the constant-angle formula from its
    point at s_range[0]; the paper's equations are the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alpha0=st.floats(0.02, hc.ADMISSIBLE_BOUNDARY),
        lower_cone=st.booleans(),
        branch=st.sampled_from(["plus", "minus"]),
        detune=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
        abcd=st.tuples(*[st.floats(-5.0, 5.0)] * 4),
        s0=st.sampled_from([0.0, -37.5, 12.25]),
    )
    @example(alpha0=FIGURE1_ALPHA0, lower_cone=False, branch="plus", detune=0.0,
             abcd=(1.0, 1.0, 1.0, 0.0), s0=0.0)
    def test_matches_paper_equations(self, alpha0, lower_cone, branch, detune, abcd, s0):
        # admissible alpha0 on either cone, the biharmonic rate or an
        # off-root one; at s0 = 0 the frame velocity is the paper's, bit for bit
        if lower_cone:
            alpha0 = math.pi - alpha0
        rate = hc.solve_branch_A(alpha0, branch) + detune
        assume(rate != 0.0)
        s = s0 + np.linspace(0.0, 10.0 * math.pi, 1001)
        spec = hc.helix_family_curve(alpha0, rate, *abcd, s_range=(s0, s0 + 10.0 * math.pi))
        points, vel = spec.sampler(s)
        ref_points, ref_vel = paper_helix(alpha0, rate, *abcd, s)
        bound = 1e-13 * (1.0 + np.linalg.norm(ref_points, axis=-1))
        assert (np.abs(points - ref_points).max(axis=-1) <= bound).all()
        if s0 == 0.0:
            assert np.array_equal(vel, ref_vel)
        else:
            assert_allclose(vel, ref_vel, rtol=0, atol=1e-13)


class TestHelixInvariants:
    def test_frozen_values(self):
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, branch="plus")
        k, tau, B3 = hc.helix_invariants(hp)
        assert k == pytest.approx(FIGURE1_K, abs=1e-12)
        assert tau == pytest.approx(FIGURE1_TAU, abs=1e-12)
        assert B3 == pytest.approx(FIGURE1_B3, abs=1e-12)
        assert k * k + tau * tau == pytest.approx(0.25 - B3 * B3, abs=1e-15)

    def test_boundary_value(self):
        # at the double root A = cos(alpha0)/2, k = sin cos / 2 = 1/5
        hp = hc.HelixParams(alpha0=BOUNDARY_ALPHA)
        k, _, _ = hc.helix_invariants(hp)
        assert k == pytest.approx(0.2, abs=1e-12)

    def test_identity_on_grid(self):
        for alpha0 in admissible_alpha_grid(50):
            for branch in ("plus", "minus"):
                k, tau, B3 = hc.helix_invariants(hc.HelixParams(alpha0=float(alpha0), branch=branch))
                assert k > 0.0
                assert abs(k * k + tau * tau + B3 * B3 - 0.25) < 1e-12

    def test_matches_measured_frenet(self, figure1_samples):
        k, tau, B3 = hc.helix_invariants(hc.HelixParams(alpha0=FIGURE1_ALPHA0))
        fr = hc.frenet_apparatus(figure1_samples)
        interior = fr.samples.interior(2)
        assert np.abs(fr.k[interior] - k).max() < 1e-6
        assert np.abs(fr.tau[interior] - tau).max() < 1e-6
        assert np.abs(fr.B3[interior] - B3).max() < 1e-6
        measured_identity = (
            fr.k[interior] ** 2 + fr.tau[interior] ** 2 + fr.B3[interior] ** 2
        )
        assert np.abs(measured_identity - 0.25).max() < 1e-6

    def test_second_component_measured(self):
        # cos(alpha0) < 0 flips the measured orientation; relations stay put
        alpha0 = math.pi - 0.3
        hp = hc.HelixParams(alpha0=alpha0, branch="plus")
        k, tau, B3 = hc.helix_invariants(hp)
        assert k > 0.0 and B3 == pytest.approx(math.sin(alpha0), abs=1e-12)
        samples = hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 6 * math.pi)), 1501)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(2)
        assert np.abs(fr.k[interior] - k).max() < 1e-6
        assert np.abs(fr.tau[interior] - tau).max() < 1e-6
        assert np.abs(fr.B3[interior] - B3).max() < 1e-6


class TestGeodesics:
    def test_vertical_direction(self):
        spec = hc.geodesic_ivp(H, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0], (0.0, 5.0))
        samples = hc.sample_curve(spec, 101)
        expected = np.array([1.0, 2.0, 3.0]) + np.outer(samples.s, [0.0, 0.0, 1.0])
        assert np.abs(samples.points - expected).max() < 1e-12

    def test_horizontal_subgroup_direction(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], (0.0, 5.0))
        samples = hc.sample_curve(spec, 101)
        assert np.abs(samples.points - np.outer(samples.s, [1.0, 0.0, 0.0])).max() < 1e-12

    def test_unit_speed_preserved_long_run(self):
        # H3 turns its tangent; (0.25, 1.0) is a Moebius orbit
        rng = np.random.default_rng(21)
        v0 = rng.standard_normal(3)
        v0 /= np.linalg.norm(v0)
        for params in (H, hc.ManifoldParams(0.25, 1.0)):
            spec = hc.geodesic_ivp(params, [0.2, -0.4, 1.0], v0, (0.0, 100.0))
            samples = hc.sample_curve(spec, 4001)
            drift = np.abs(np.linalg.norm(samples.velocity_frame, axis=1) - 1.0).max()
            assert drift < 1e-8

    def test_tension_residual(self):
        spec = hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 30.0))
        samples = hc.sample_curve(spec, 2001)
        t1 = hc.tension1(samples)
        assert np.linalg.norm(t1, axis=1)[samples.interior(1)].max() < 1e-6

    def test_general_member_geodesic(self):
        par = hc.ManifoldParams(0.25, 1.0)
        spec = hc.geodesic_ivp(par, [0.1, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0))
        samples = hc.sample_curve(spec, 1601)
        drift = np.abs(np.linalg.norm(samples.velocity_frame, axis=1) - 1.0).max()
        assert drift < 1e-9
        t1 = hc.tension1(samples)
        assert np.linalg.norm(t1, axis=1)[samples.interior(1)].max() < 1e-6

    def test_negative_m_stays_in_chart(self):
        par = hc.ManifoldParams(-0.5, 1.0)
        spec = hc.geodesic_ivp(par, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0], (0.0, 10.0))
        samples = hc.sample_curve(spec, 801)
        radius2 = samples.points[:, 0] ** 2 + samples.points[:, 1] ** 2
        assert (1.0 + par.m * radius2 > 0.0).all()

    def test_reproducible_path(self, no_ode):
        # m != 0 geodesics are closed form too: two samplings are bit-identical
        par = hc.ManifoldParams(0.25, 1.0)
        spec = hc.geodesic_ivp(par, [0.0, 0.0, 0.0], [0.6, 0.0, 0.8], (0.0, 10.0))
        a = hc.sample_curve(spec, 501)
        b = hc.sample_curve(spec, 501)
        assert np.array_equal(a.points, b.points)
        drift = np.abs(np.linalg.norm(a.velocity_frame, axis=1) - 1.0).max()
        assert drift < 1e-9

    def test_nonunit_direction_rejected(self):
        with pytest.raises(hc.NonUnitVector):
            hc.geodesic_ivp(H, [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], (0.0, 1.0))

    @pytest.mark.parametrize("params", [H, hc.ManifoldParams(0.25, 1.2)])
    def test_nan_direction_rejected(self, params):
        with pytest.raises(hc.NonUnitVector):
            hc.geodesic_ivp(params, [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], (0.0, 1.0))

    def test_cone_direction_also_tangent_to_helix(self):
        # same point, same initial velocity: the geodesic and the biharmonic
        # helix branch apart
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0)
        helix = hc.biharmonic_helix(hp, (0.0, 5.0))
        p0 = points_of(helix, 0.0)
        v0 = helix.sampler(np.array([0.0]))[1][0]
        geo = hc.geodesic_ivp(H, p0, v0, (0.0, 5.0))
        hs = hc.sample_curve(helix, 201)
        gs = hc.sample_curve(geo, 201)
        assert np.abs(hs.velocity_frame[0] - gs.velocity_frame[0]).max() < 1e-12
        separation = np.linalg.norm(hs.points - gs.points, axis=1)
        assert separation[-1] > 1e-2


def unit_direction(t3, phi):
    S = math.sqrt(1.0 - t3 * t3)
    return np.array([S * math.cos(phi), S * math.sin(phi), t3])


class TestClosedFormGeodesics:
    """``geodesic_ivp`` evaluates the geodesic in closed form on every
    member; a numerically integrated geodesic is the reference."""

    P0 = np.array([0.3, -0.7, 0.4])

    @pytest.mark.parametrize("l", [1.0, 1.7, -0.8])
    @pytest.mark.parametrize("t3", [0.8, -0.6, 0.0, 1e-9, 1.0])
    def test_matches_ode_route(self, l, t3, no_ode):
        # t3 = 1e-9 takes the small-w series of the z sweep, t3 = 0 is the
        # horizontal line; DOP853's global error grows with the length
        par = hc.ManifoldParams(0.0, l)
        v0 = unit_direction(t3, 1.1)
        for length in (100.0, 1000.0):
            spec = hc.geodesic_ivp(par, self.P0, v0, (0.0, length))
            closed = hc.sample_curve(spec, 1001)
            ref = ode_geodesic(par, self.P0, v0, (0.0, length), rtol=1e-12, atol=1e-12)
            ode = hc.sample_curve(ref, 1001)
            assert_allclose(closed.points, ode.points, rtol=0, atol=1e-13 * length**2)
            assert_allclose(
                closed.velocity_frame, ode.velocity_frame, rtol=0, atol=1e-14 * length**2
            )

    def test_matches_rk4_route(self):
        v0 = unit_direction(0.8, 0.4)
        closed = hc.sample_curve(hc.geodesic_ivp(H, self.P0, v0, (0.0, 10.0)), 501)
        rk4 = hc.sample_curve(rk4_geodesic(H, self.P0, v0, (0.0, 10.0), step=2e-3), 501)
        assert_allclose(closed.points, rk4.points, rtol=0, atol=1e-9)
        assert_allclose(closed.velocity_frame, rk4.velocity_frame, rtol=0, atol=1e-9)

    def test_series_meets_direct_sweep(self):
        # the two branches of (q - sin q) / q^3 agree where they switch
        below = np.nextafter(1.0, 0.0)
        sweep = factory._sweep(np.array([-1.0, -below, below, 1.0, 0.0]))
        assert_allclose(sweep[:4], 1.0 - math.sin(1.0), rtol=1e-14)
        assert sweep[4] == 1.0 / 6.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p0=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        g=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        t3=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_left_translation_invariance(self, p0, g, t3, phi):
        # on H3 left translations are isometries that fix frame components
        v0 = unit_direction(t3, phi)
        base = hc.sample_curve(hc.geodesic_ivp(H, p0, v0, (0.0, 20.0)), 201)
        moved_start = mf.left_translate(H, g, p0)
        moved = hc.sample_curve(hc.geodesic_ivp(H, moved_start, v0, (0.0, 20.0)), 201)
        assert_allclose(moved.points, mf.left_translate(H, g, base.points), rtol=0, atol=1e-10)
        assert_allclose(moved.velocity_frame, base.velocity_frame, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        l=st.sampled_from([1.0, 1.7, -0.8]),
        t3=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        shift=st.floats(-100.0, 100.0),
    )
    def test_s_shift_invariance(self, l, t3, phi, shift):
        # the geodesic starts at p0 wherever its s_range starts
        par = hc.ManifoldParams(0.0, l)
        v0 = unit_direction(t3, phi)
        base = hc.sample_curve(hc.geodesic_ivp(par, self.P0, v0, (0.0, 20.0)), 201)
        shifted = hc.geodesic_ivp(par, self.P0, v0, (shift, shift + 20.0))
        moved = hc.sample_curve(shifted, 201)
        assert_allclose(moved.points, base.points, rtol=0, atol=1e-10)
        assert_allclose(moved.velocity_frame, base.velocity_frame, rtol=0, atol=1e-12)

    # m != 0: (member, (t3, phi) of the start, lengths).  The elliptic,
    # hyperbolic and parabolic orbits have Om^2 = k^2 + m |v|^2 > 0, < 0
    # and = 0; the hyperbolic ones leave the chart, so they run until just
    # before their exit.  m = -0.14062499999999997 (-9/64 to rounding) with
    # l = 1 and T3 = 0.6 makes Om^2 = 0 exactly.
    ORBIT_P0 = np.array([0.3, -0.1, 0.5])
    ORBIT_CASES = [
        ((0.25, 1.2), (0.8, 1.1), (100.0, 1000.0)),
        ((0.25, 1.2), (-0.3, 2.5), (100.0, 1000.0)),
        ((0.25, 1.2), (0.0, 0.4), (100.0, 1000.0)),
        ((0.25, 1.2), (1.0, 0.0), (100.0, 1000.0)),
        ((-0.2, 0.7), (0.8, 1.1), (100.0, 1000.0)),
        ((-0.2, 0.7), (0.0, 0.4), (20.0,)),
        ((-0.2, 0.7), (-1.0, 0.0), (100.0, 1000.0)),
        ((1.0, 2.0), (0.8, 1.1), (100.0, 1000.0)),
        ((0.3, 0.0), (0.8, 1.1), (100.0, 1000.0)),
        ((0.3, 0.0), (0.0, 0.4), (100.0, 1000.0)),
        ((-0.5, 1.0), (0.9, 1.1), (100.0, 1000.0)),
        ((-0.5, 1.0), (0.8, 1.1), (70.0,)),
        ((-0.5, 1.0), (0.0, 0.4), (15.0,)),
        ((-0.14062499999999997, 1.0), (0.6, 0.0), (100.0, 1000.0)),
    ]

    @pytest.mark.parametrize("member,start,lengths", ORBIT_CASES, ids=lambda v: str(v))
    def test_orbit_matches_ode_route(self, member, start, lengths, no_ode):
        # one tight DOP853 solve per case; its own error, not the closed
        # form's, sets the bounds (it shrinks toward the closed form as
        # rtol is tightened), and grows like the square of the length
        par = hc.ManifoldParams(*member)
        v0 = unit_direction(*start)
        grids = [np.linspace(0.0, length, 1001) for length in lengths]
        s_all = np.unique(np.concatenate(grids))
        ref = ode_geodesic(par, self.ORBIT_P0, v0, (0.0, lengths[-1]))
        ref_points, ref_vel = ref.sampler(s_all)
        for length, grid in zip(lengths, grids):
            spec = hc.geodesic_ivp(par, self.ORBIT_P0, v0, (0.0, length))
            closed = hc.sample_curve(spec, 1001)
            at = np.searchsorted(s_all, grid)
            assert_allclose(closed.points, ref_points[at], rtol=0, atol=2e-13 * length**2)
            assert_allclose(closed.velocity_frame, ref_vel[at], rtol=0, atol=5e-14 * length**2)
            speed = np.linalg.norm(closed.velocity_frame, axis=1)
            assert np.abs(speed - 1.0).max() < 1e-15

    def test_orbit_cases_cover_every_branch(self):
        # Om^2 > 0, < 0 and exactly 0, and every route of the phase
        orbits = [factory._MoebiusOrbit(*member, self.ORBIT_P0, unit_direction(*start))
                  for member, start, _ in self.ORBIT_CASES]
        assert {np.sign(o.om2) for o in orbits} == {-1.0, 0.0, 1.0}
        assert {o.route for o in orbits} == {"factored", "unwound", "principal"}

    @pytest.mark.parametrize("m", [1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4])
    @pytest.mark.parametrize("start", [(0.8, 1.1), (-0.3, 2.5), (0.0, 0.4), (1e-9, 0.4)])
    def test_small_m_continuity(self, m, start):
        # the z formula divides by m: as m -> 0 the geodesic must approach
        # the m = 0 one at first order in m and keep matching the ODE route
        length = 100.0
        v0 = unit_direction(*start)
        par = hc.ManifoldParams(m, 1.2)
        closed = hc.sample_curve(hc.geodesic_ivp(par, self.ORBIT_P0, v0, (0.0, length)), 1001)
        flat = hc.sample_curve(
            hc.geodesic_ivp(hc.ManifoldParams(0.0, 1.2), self.ORBIT_P0, v0, (0.0, length)), 1001
        )
        ref = hc.sample_curve(ode_geodesic(par, self.ORBIT_P0, v0, (0.0, length)), 1001)
        assert_allclose(closed.points, ref.points, rtol=0, atol=1e-10)
        assert_allclose(closed.velocity_frame, ref.velocity_frame, rtol=0, atol=1e-12)
        drift = np.abs(closed.points - flat.points).max()
        assert drift <= abs(m) * length**3 + 1e-12
        turn = np.abs(closed.velocity_frame - flat.velocity_frame).max()
        assert turn <= abs(m) * length**2 + 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        member=st.sampled_from([(0.25, 1.2), (-0.2, 0.7), (1.0, 2.0), (0.3, 0.0), (-0.5, 1.0)]),
        radius=st.floats(0.0, 1.0),
        azimuth=st.floats(0.0, 2.0 * math.pi),
        t3=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        turn=st.floats(-math.pi, math.pi),
        shift=st.floats(-3.0, 3.0),
    )
    def test_rotation_and_z_shift_invariance(self, member, radius, azimuth, t3, phi, turn, shift):
        # rotations about the z axis and z shifts are isometries of every
        # member; a rotation turns (x, y) and (T1, T2) alike
        par = hc.ManifoldParams(*member)
        p0 = np.array([radius * math.cos(azimuth), radius * math.sin(azimuth), 0.4])
        v0 = unit_direction(t3, phi)
        rot = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                        [math.sin(turn), math.cos(turn), 0.0],
                        [0.0, 0.0, 1.0]])
        moved_p0 = rot @ p0 + [0.0, 0.0, shift]
        try:
            base = hc.sample_curve(hc.geodesic_ivp(par, p0, v0, (0.0, 20.0)), 201)
        except hc.DomainExit:
            with pytest.raises(hc.DomainExit):
                hc.geodesic_ivp(par, moved_p0, rot @ v0, (0.0, 20.0))
            return
        moved = hc.sample_curve(hc.geodesic_ivp(par, moved_p0, rot @ v0, (0.0, 20.0)), 201)
        scale = 1.0 + np.abs(base.points).max()
        expected = base.points @ rot.T + [0.0, 0.0, shift]
        assert_allclose(moved.points, expected, rtol=0, atol=1e-12 * scale**2)
        assert_allclose(moved.velocity_frame, base.velocity_frame @ rot.T, rtol=0,
                        atol=1e-13 * scale**2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        member=st.sampled_from([(0.25, 1.2), (-0.2, 0.7), (1.0, 2.0), (0.3, 0.0), (-0.5, 1.0)]),
        t3=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        shift=st.floats(-100.0, 100.0),
    )
    def test_orbit_s_shift_invariance(self, member, t3, phi, shift):
        # the m != 0 geodesic starts at p0 wherever its s_range starts
        par = hc.ManifoldParams(*member)
        v0 = unit_direction(t3, phi)
        try:
            base = hc.sample_curve(hc.geodesic_ivp(par, self.ORBIT_P0, v0, (0.0, 20.0)), 201)
        except hc.DomainExit:
            with pytest.raises(hc.DomainExit):
                hc.geodesic_ivp(par, self.ORBIT_P0, v0, (shift, shift + 20.0))
            return
        shifted = hc.geodesic_ivp(par, self.ORBIT_P0, v0, (shift, shift + 20.0))
        moved = hc.sample_curve(shifted, 201)
        scale = 1.0 + np.abs(base.points).max()
        assert_allclose(moved.points, base.points, rtol=0, atol=1e-12 * scale**2)
        assert_allclose(moved.velocity_frame, base.velocity_frame, rtol=0, atol=1e-13 * scale**2)

    def test_moebius_form_solves_geodesic_system(self):
        # exact identities of the elliptic form: with c = cos(Om u),
        # s = sin(Om u) and Om^2 = k^2 + m |v|^2, D = c - gamma s / Om gives
        # zeta' = F (T1 + i T2), theta' = l T3 + 2m (x T2 - y T1) and
        # z' = T3 + (l/2)(x T2 - y T1); conj(p) and conj(v) are free symbols
        sp = pytest.importorskip("sympy")
        m, l, t3, c, s, om, p, pc, v, vc = sp.symbols("m l t3 c s Omega p pc v vc")
        k = l * t3 / 2
        F0 = 1 + m * p * pc
        D = c - (sp.I * k + m * pc * v) * s / om
        Dc = c - (-sp.I * k + m * p * vc) * s / om
        zeta, zetac = p + F0 * v * s / (om * D), pc + F0 * vc * s / (om * Dc)
        T, Tc = v * Dc / D, vc * D / Dc

        def d(e):  # d/du, with c' = -Om s and s' = Om c
            return sp.diff(e, c) * (-om * s) + sp.diff(e, s) * (om * c)

        cross = (zetac * T - zeta * Tc) / (2 * sp.I)  # x T2 - y T1
        theta_p = sp.I * (d(D) / D - d(Dc) / Dc)  # -2 Im(D'/D)
        z_p = (1 - l**2 / (4 * m)) * t3 + l / (4 * m) * theta_p
        circle = [c**2 + s**2 - 1, om**2 - k**2 - m * v * vc]

        def vanishes(e):
            num, _ = sp.fraction(sp.together(e))
            _, rem = sp.reduced(sp.expand(num), circle, om, c, s, p, pc, v, vc, m, l, t3)
            return rem == 0

        assert vanishes(d(zeta) - (1 + m * zeta * zetac) * T)
        assert vanishes(theta_p - (l * t3 + 2 * m * cross))
        assert vanishes(z_p - t3 - l * cross / 2)
        at_start = {c: 1, s: 0}
        assert sp.simplify(zeta.subs(at_start) - p) == 0
        assert sp.simplify(T.subs(at_start) - v) == 0
        # a wrong sign of m in gamma breaks the first identity
        D_bad = c - (sp.I * k - m * pc * v) * s / om
        assert not vanishes(d(p + F0 * v * s / (om * D_bad)) - (1 + m * zeta * zetac) * T)


class TestChartExits:
    """``geodesic_ivp`` raises DomainExit when the orbit leaves the chart
    within s_range, and only then."""

    def test_pole_within_range(self):
        # m > 0: the great circle through (0.3, 0) along x passes the point
        # of the sphere that the stereographic chart misses
        par = hc.ManifoldParams(0.25, 1.2)
        with pytest.raises(hc.DomainExit, match="s = 2.84"):
            hc.geodesic_ivp(par, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0], (0.0, 10.0))
        samples = hc.sample_curve(
            hc.geodesic_ivp(par, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0], (0.0, 2.8)), 201
        )
        assert np.isfinite(samples.points).all()
        assert np.abs(samples.points[-1, :2]).max() > 10.0  # heading to infinity

    @pytest.mark.parametrize("turn", np.linspace(0.0, 2.0 * math.pi, 13)[:-1])
    def test_pole_grazed_within_rounding(self, turn):
        # the rotated copies of that start pass the missing point too; there
        # Im gamma is zero only up to rounding, which must count as zero
        c, s = math.cos(turn), math.sin(turn)
        with pytest.raises(hc.DomainExit, match="s = 2.84"):
            hc.geodesic_ivp(hc.ManifoldParams(0.25, 1.2), [0.3 * c, 0.3 * s, 0.0], [c, s, 0.0],
                            (0.0, 10.0))

    def test_pole_after_shifted_start(self):
        # s_range[0] anchors p0; the pole sits at the same distance from it
        par = hc.ManifoldParams(0.25, 1.2)
        with pytest.raises(hc.DomainExit, match="s = 7.84"):
            hc.geodesic_ivp(par, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0], (5.0, 15.0))
        hc.geodesic_ivp(par, [0.3, 0.0, 0.0], [1.0, 0.0, 0.0], (5.0, 7.8))

    def test_negative_m_leaves_chart(self):
        par = hc.ManifoldParams(-0.2, 0.7)
        p0, v0 = [0.3, -0.1, 0.5], [1.0, 0.0, 0.0]
        with pytest.raises(hc.DomainExit) as closed:
            hc.geodesic_ivp(par, p0, v0, (0.0, 100.0))
        with pytest.raises(hc.DomainExit) as ref:
            hc.sample_curve(ode_geodesic(par, p0, v0, (0.0, 100.0)), 2001)
        s_closed, s_ref = (float(str(e.value).rsplit("s = ", 1)[1]) for e in (closed, ref))
        # the ODE's F = 1 + m r^2 cancels near the edge; the closed form's
        # F0 / |D|^2 does not, so the reference only bounds the location
        assert abs(s_closed - s_ref) < 1e-3
        spec = hc.geodesic_ivp(par, p0, v0, (0.0, s_closed - 1e-6))
        edge = points_of(spec, np.array([s_closed]))[0]
        assert 1.0 + par.m * (edge[0] ** 2 + edge[1] ** 2) == pytest.approx(1e-9, rel=1e-6)

    def test_negative_m_elliptic_orbit_reaches_edge(self):
        # near Om^2 = 0 the circle of an m < 0 orbit comes close to the
        # edge; the exit lies before the first crest of |D|^2
        par = hc.ManifoldParams(-1.0, 1.0)
        v0 = unit_direction(0.894427195, 0.0)
        with pytest.raises(hc.DomainExit) as exc:
            hc.geodesic_ivp(par, [0.99, 0.0, 0.0], v0, (0.0, 1e5))
        s_exit = float(str(exc.value).rsplit("s = ", 1)[1])
        spec = hc.geodesic_ivp(par, [0.99, 0.0, 0.0], v0, (0.0, 0.999 * s_exit))
        pts = points_of(spec, np.linspace(0.0, 0.999 * s_exit, 20001))
        assert (1.0 + par.m * (pts[:, 0] ** 2 + pts[:, 1] ** 2)).min() > 1e-9
        edge = points_of(spec, np.array([s_exit]))[0]
        assert 1.0 + par.m * (edge[0] ** 2 + edge[1] ** 2) == pytest.approx(1e-9, rel=1e-6)


class TestSubgroups:
    def test_vertical_is_geodesic(self):
        samples = hc.sample_curve(hc.one_param_subgroup(np.array([0.0, 0.0, 1.0])), 1001)
        t1 = hc.tension1(samples)
        interior = samples.interior(1)
        assert np.abs(t1[interior]).max() < 1e-12
        assert_nan_outside(t1, interior)

    def test_horizontal_diagonal_is_geodesic(self):
        d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        samples = hc.sample_curve(hc.one_param_subgroup(d), 1001)
        t1 = hc.tension1(samples)
        assert np.linalg.norm(t1, axis=1)[samples.interior(1)].max() < 1e-12

    def test_tilted_subgroup_relation(self):
        d = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        samples = hc.sample_curve(hc.one_param_subgroup(d), 2001)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(3)
        assert np.abs(fr.k[interior] ** 2 + fr.tau[interior] ** 2 - 0.25).max() < 1e-6
        assert np.abs(fr.B3[interior]).min() > 1e-3
        # analytic values: k = |C| sqrt(Q), tau = C^2 - 1/2
        C = d[2]
        Q = d[0] ** 2 + d[1] ** 2
        assert np.abs(fr.k[interior] - abs(C) * math.sqrt(Q)).max() < 1e-9
        assert np.abs(fr.tau[interior] - (C * C - 0.5)).max() < 1e-9

    def test_requires_unit_direction(self):
        with pytest.raises(hc.NonUnitVector):
            hc.one_param_subgroup(np.array([1.0, 2.0, 3.0]))

    def test_nan_direction_rejected(self):
        with pytest.raises(hc.NonUnitVector):
            hc.one_param_subgroup(np.array([0.0, np.nan, 1.0]))

    def test_requires_heisenberg(self):
        with pytest.raises(hc.UnsupportedManifold):
            hc.one_param_subgroup(
                np.array([0.0, 0.0, 1.0]), params=hc.ManifoldParams(1.0, 2.0)
            )

    def test_matches_tangent_driven_route(self):
        d = np.array([0.6, 0.0, 0.8])
        sub = hc.sample_curve(hc.one_param_subgroup(d, (0.0, 5.0)), 201)
        driven = hc.tangent_driven_curve(H, lambda s: d, [0.0, 0.0, 0.0], (0.0, 5.0))
        ds = hc.sample_curve(driven, 201)
        assert np.abs(sub.points - ds.points).max() < 1e-9


class TestB3Zero:
    def test_linear_profile(self):
        spec = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        samples = hc.sample_curve(spec, 801)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(3)
        assert np.abs(fr.B3[interior]).max() < 1e-5
        assert np.abs(fr.tau[interior] + 0.5).max() < 1e-4
        assert np.abs(fr.k[interior] - 0.3).max() < 1e-8

    def test_curvature_tracks_alpha_rate(self):
        spec = hc.b3zero_curve(lambda s: 0.4 + 0.3 * s + 0.05 * s**2, (0.0, 2.0))
        samples = hc.sample_curve(spec, 801)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(2)
        expected = 0.3 + 0.1 * samples.s[interior]
        assert np.abs(fr.k[interior] - expected).max() < 1e-8

    def test_decreasing_alpha_rejected(self):
        spec = hc.b3zero_curve(lambda s: 1.0 - 0.1 * s, (0.0, 2.0))
        with pytest.raises(hc.NonMonotoneAlpha):
            hc.sample_curve(spec, 101)

    @pytest.mark.parametrize(
        "alpha", [lambda s: 0.5, lambda s: (0.5 + 0.3 * s)[::2]], ids=["scalar", "every_other"]
    )
    def test_profile_gives_one_angle_per_node(self, alpha):
        # the profile is evaluated once, on the whole quadrature grid of
        # (101 - 1) * 16 + 1 nodes
        spec = hc.b3zero_curve(alpha, (0.0, 2.0))
        with pytest.raises(ValueError, match=r"alpha returned shape \((801,)?\) for arclengths "
                                             r"of shape \(1601,\)"):
            hc.sample_curve(spec, 101)

    def test_classification(self):
        spec = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        result = hc.classify_curve(hc.frenet_apparatus(hc.sample_curve(spec, 801)))
        assert result.verdict == "not_biharmonic"


class TestSurfaces:
    def setup_method(self):
        self.hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0)
        self.helix = hc.biharmonic_helix(self.hp, (0.0, 10.0 * math.pi))

    def test_cylinder_radius_identity(self):
        patch = hc.cylinder_patch(self.hp)
        u = np.linspace(-5.0, 5.0, 41)
        v = np.linspace(-2.0, 2.0, 11)
        pts = hc.surface_eval(patch, u[:, None], v[None, :])
        r = np.hypot(pts[..., 0] - self.hp.b, pts[..., 1] - self.hp.c)
        assert np.abs(r - patch.radius).max() < 1e-14

    def test_cylinder_vertical_coordinate(self):
        patch = hc.cylinder_patch(self.hp)
        pts = hc.surface_eval(patch, np.linspace(0, 3, 7), 1.25)
        assert_allclose(pts[..., 2], 1.25, atol=0.0)

    def test_helicoid_slice_is_the_helix(self):
        patch = hc.helicoid_patch(self.hp)
        u = np.linspace(0.0, 10.0 * math.pi, 301)
        slice_pts = hc.surface_eval(patch, u, np.ones_like(u))
        assert np.abs(slice_pts - points_of(self.helix, u)).max() < 1e-12

    def test_membership_residuals(self):
        samples = hc.sample_curve(self.helix, 1001)
        assert hc.membership_residual(samples, hc.cylinder_patch(self.hp)) < 1e-10
        assert hc.membership_residual(samples, hc.helicoid_patch(self.hp)) < 1e-10

    def test_translated_curve_misses_cylinder(self):
        moved = hc.left_translate_curve([3.0, -1.0, 2.0], self.helix)
        assert hc.membership_residual(hc.sample_curve(moved, 301), hc.cylinder_patch(self.hp)) > 1.0


# One curve of each family that has a parameter record.  A family the loader
# table gains needs a builder here, or its round trip below fails.
RECORD_BUILDERS = {
    "biharmonic_helix": lambda: hc.biharmonic_helix(
        hc.HelixParams(FIGURE1_ALPHA0, 1.0, 1.0, 1.0, 0.5, branch="minus"), (0.0, 8.0)),
    "helix_family": lambda: hc.helix_family_curve(  # the off-root negative control
        FIGURE1_ALPHA0, FIGURE1_A + 0.05, 1.0, 1.0, 1.0, 0.0, (0.0, 8.0)),
    "one_param_subgroup": lambda: hc.one_param_subgroup(np.array([0.6, 0.0, 0.8]), (0.0, 4.0)),
    "geodesic": lambda: hc.geodesic_ivp(
        hc.ManifoldParams(0.25, 1.2), [0.1, 0.2, 0.3], [0.6, 0.0, 0.8], (0.0, 4.0)),
    "b3zero_linear": lambda: hc.load_curve_params(json.dumps(
        {"family": "b3zero_linear", "alpha_start": 0.5, "alpha_rate": 0.3, "s_range": [0.0, 2.0]}
    ))[0],
}


class TestParameterFiles:
    @pytest.mark.parametrize("family", sorted(factory._LOADERS))
    def test_every_loadable_family_round_trips(self, family):
        # dump -> load -> dump gives the same text, for every key of the loader table
        spec = RECORD_BUILDERS[family]()
        assert spec.family["family"] == family
        record = hc.dump_curve_params(spec, 257)
        back, n = hc.load_curve_params(record)
        assert n == 257
        assert hc.dump_curve_params(back, n) == record

    def test_off_root_helix_roundtrip(self):
        # the off-root control loads as the same curve, and stays off the root
        spec = RECORD_BUILDERS["helix_family"]()
        back, _ = hc.load_curve_params(hc.dump_curve_params(spec))
        assert back.family == spec.family
        a, b = hc.sample_curve(spec, 257), hc.sample_curve(back, 257)
        assert np.array_equal(b.points, a.points)
        assert np.array_equal(b.velocity_frame, a.velocity_frame)
        assert hc.classify_curve(hc.frenet_apparatus(b)).verdict == "helix_not_biharmonic"

    def test_helix_roundtrip(self):
        hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0, branch="minus")
        spec = hc.biharmonic_helix(hp, (0.0, 8.0))
        text = hc.dump_curve_params(spec, 501)
        back, n = hc.load_curve_params(text)
        assert n == 501
        s = np.linspace(0.0, 8.0, 33)
        assert_allclose(points_of(back, s), points_of(spec, s), atol=0.0)

    def test_subgroup_roundtrip(self):
        d = np.array([0.6, 0.0, 0.8])
        spec = hc.one_param_subgroup(d, (0.0, 4.0))
        back, _ = hc.load_curve_params(hc.dump_curve_params(spec))
        s = np.linspace(0.0, 4.0, 17)
        assert_allclose(points_of(back, s), points_of(spec, s), atol=0.0)

    def test_geodesic_roundtrip(self):
        spec = hc.geodesic_ivp(H, [0.1, 0.2, 0.3], [0.6, 0.0, 0.8], (0.0, 4.0))
        back, _ = hc.load_curve_params(hc.dump_curve_params(spec))
        a = hc.sample_curve(spec, 65)
        b = hc.sample_curve(back, 65)
        assert_allclose(b.points, a.points, atol=1e-12)

    def test_b3zero_linear_params(self):
        payload = {
            "family": "b3zero_linear",
            "alpha_start": 0.5,
            "alpha_rate": 0.3,
            "s_range": [0.0, 2.0],
            "samples": 801,
        }
        spec, n = hc.load_curve_params(json.dumps(payload))
        samples = hc.sample_curve(spec, n)
        fr = hc.frenet_apparatus(samples)
        assert np.abs(fr.tau[fr.samples.interior(3)] + 0.5).max() < 1e-4

    def test_b3zero_linear_roundtrip(self):
        # a loaded b3zero_linear curve keeps its record, so it dumps again
        payload = {"family": "b3zero_linear", "alpha_start": 0.5, "alpha_rate": 0.3,
                   "s_range": [0.0, 2.0]}
        first, _ = hc.load_curve_params(json.dumps(payload))
        record = hc.dump_curve_params(first, 801)
        again, n = hc.load_curve_params(record)
        assert n == 801
        assert hc.dump_curve_params(again, n) == record
        assert json.loads(record) == {**payload, "manifold": {"m": 0.0, "l": 1.0}, "samples": 801}
        a, b = hc.sample_curve(first, n), hc.sample_curve(again, n)
        assert np.array_equal(b.points, a.points)
        assert np.array_equal(b.velocity_frame, a.velocity_frame)

    @pytest.mark.parametrize("curve", ["helix", "subgroup"])
    def test_translated_roundtrip(self, curve):
        # the record keeps the translation, and loading applies it again
        if curve == "helix":
            hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0)
            spec = hc.biharmonic_helix(hp)
        else:
            spec = hc.one_param_subgroup(np.array([0.6, 0.0, 0.8]), (0.0, 4.0))
        moved = hc.left_translate_curve([3.0, -1.0, 2.0], spec)
        back, _ = hc.load_curve_params(hc.dump_curve_params(moved))
        assert back.family == moved.family
        a, b = hc.sample_curve(moved, 257), hc.sample_curve(back, 257)
        assert np.array_equal(b.points, a.points)
        assert np.array_equal(b.velocity_frame, a.velocity_frame)

    def test_translations_compose_in_the_record(self):
        spec = hc.one_param_subgroup(np.array([0.6, 0.0, 0.8]), (0.0, 4.0))
        g, h = [0.5, -2.0, 1.0], [3.0, -1.0, 2.0]
        twice = hc.left_translate_curve(g, hc.left_translate_curve(h, spec))
        back, _ = hc.load_curve_params(hc.dump_curve_params(twice))
        a, b = hc.sample_curve(twice, 65), hc.sample_curve(back, 65)
        assert_allclose(b.points, a.points, rtol=0, atol=1e-14)

    def test_unloadable_family_not_dumped(self):
        b3zero = hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0))
        driven = hc.tangent_driven_curve(H, lambda s: np.array([0.0, 0.0, 1.0]), [0, 0, 0], (0, 1))
        bare = hc.CurveSpec(H, (0.0, 1.0), b3zero.sampler)  # no family record
        for spec in (b3zero, driven, bare):
            with pytest.raises(ValueError, match="no parameter record"):
                hc.dump_curve_params(spec)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            hc.load_curve_params(json.dumps({"family": "nope", "s_range": [0, 1]}))
