"""Metric, frame, connection and curvature of the metric family.

The Heisenberg tables are checked exactly against the closed forms.  Two
oracles check the closed forms on the rest of the family: a sympy
derivation from the metric (Christoffel symbols, then the curvature of that
connection), and the numeric route (finite differences of the frame, the
Koszul formula on the brackets, differences of that table along the frame)
at 1e-8, which must not read the closed forms.  The tensor symmetries and
the first Bianchi identity are verified at random points and parameters.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heiscurves import manifold as mf
from heiscurves.errors import DegeneratePlane, DomainError, UnsupportedManifold

from conftest import random_domain_point

H = mf.HEISENBERG
ORIGIN = np.zeros(3)


def _random_params(rng):
    m, l = rng.uniform(-2.0, 2.0, 2)
    return mf.ManifoldParams(float(m), float(l))


class TestManifoldParams:
    def test_heisenberg_parameters(self):
        assert (H.m, H.l) == (0.0, 1.0)
        assert H.is_heisenberg

    @pytest.mark.parametrize(
        "m,l,degenerate",
        [(1.0, 2.0, True), (0.25, 1.0, True), (1.0, -2.0, True), (0.0, 1.0, False), (0.3, 1.0, False)],
    )
    def test_degenerate_flag_exact(self, m, l, degenerate):
        assert mf.ManifoldParams(m, l).is_degenerate is degenerate

    @pytest.mark.parametrize("m,l", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, -math.inf)])
    def test_nonfinite_rejected(self, m, l):
        with pytest.raises(ValueError, match="must be finite"):
            mf.ManifoldParams(m, l)


class TestMetric:
    def test_identity_at_origin(self):
        assert_allclose(mf.metric_at(H, ORIGIN), np.eye(3), atol=0.0)

    def test_heisenberg_entries_closed_form(self):
        # expansion of dx^2 + dy^2 + (dz + y/2 dx - x/2 dy)^2 by hand
        rng = np.random.default_rng(42)
        for _ in range(25):
            x, y, z = rng.uniform(-4, 4, 3)
            g = mf.metric_at(H, [x, y, z])
            expected = np.array(
                [
                    [1.0 + y * y / 4.0, -x * y / 4.0, y / 2.0],
                    [-x * y / 4.0, 1.0 + x * x / 4.0, -x / 2.0],
                    [y / 2.0, -x / 2.0, 1.0],
                ]
            )
            assert_allclose(g, expected, rtol=0.0, atol=1e-15)

    def test_conformal_member_at_origin(self):
        assert_allclose(mf.metric_at(mf.ManifoldParams(1.0, 0.0), ORIGIN), np.eye(3), atol=0.0)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            g = mf.metric_at(par, p)
            assert_allclose(g, g.T, atol=0.0)
            minors = [np.linalg.det(g[:k, :k]) for k in (1, 2, 3)]
            assert min(minors) > 0.0

    def test_domain_error_outside_chart(self):
        par = mf.ManifoldParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            mf.metric_at(par, [1.0, 0.5, 0.0])
        with pytest.raises(DomainError):
            mf.frame_at(par, [2.0, 0.0, 0.0])
        # the curvature table is the same at every point, yet still checks it
        with pytest.raises(DomainError):
            mf.curvature_table(par, [[0.1, 0.1, 0.0], [1.0, 0.5, 0.0]])
        with pytest.raises(DomainError):
            mf.riemann_component(par, [1.0, 0.5, 0.0], 1, 2, 1, 2)
        with pytest.raises(DomainError):
            mf.curvature_table_numeric(par, [1.0, 0.5, 0.0])


class TestFrame:
    def test_frame_at_origin(self):
        assert_allclose(mf.frame_at(H, ORIGIN), np.eye(3), atol=0.0)

    def test_frame_at_sample_point(self):
        E = mf.frame_at(H, [2.0, 4.0, 7.0])
        assert_allclose(E[0], [1.0, 0.0, -2.0], atol=0.0)
        assert_allclose(E[1], [0.0, 1.0, 1.0], atol=0.0)
        assert_allclose(E[2], [0.0, 0.0, 1.0], atol=0.0)

    def test_orthonormality_random_params(self):
        # 10^4 random (point, params) pairs in one vectorized sweep per draw
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            par = _random_params(rng)
            pts = np.stack([random_domain_point(rng, par.m) for _ in range(100)])
            E = mf.frame_at(par, pts)
            g = mf.metric_at(par, pts)
            gram = np.einsum("nai,nij,nbj->nab", E, g, E)
            worst = max(worst, float(np.abs(gram - np.eye(3)).max()))
        assert worst < 1e-10

    def test_frame_coframe_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            prod = np.einsum("ak,bk->ab", mf.coframe_at(par, p), mf.frame_at(par, p))
            assert_allclose(prod, np.eye(3), atol=1e-14)

    def test_vector_roundtrip_lossless(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            v = rng.standard_normal(3)
            back = mf.to_coord_components(par, p, mf.to_frame_components(par, p, v))
            assert_allclose(back, v, rtol=1e-14, atol=1e-14 * np.abs(v).max())

    def test_h3_frame_change_far_out(self):
        # F = 1 on m = 0 without squaring x and y: 1e200 squared overflows,
        # and 0 * inf = NaN would spoil a finite point
        far = [1e200, 0.0, 0.0]
        assert mf.to_frame_components(H, far, [1.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]
        assert mf.conformal_factor(H, np.full((4, 3), 1e200)).tolist() == [1.0] * 4
        # on m != 0 the squares overflow quietly: F = inf on m > 0, where the
        # components underflow to 0, and m < 0 leaves the chart
        par = mf.ManifoldParams(1.0, 1.0)
        assert mf.conformal_factor(par, far) == math.inf
        assert mf.to_frame_components(par, far, [1.0, 0.0, 0.0]).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(DomainError):
            mf.to_frame_components(mf.ManifoldParams(-1.0, 1.0), far, [1.0, 0.0, 0.0])

    def test_frame_norm_matches_metric_norm(self):
        rng = np.random.default_rng(12)
        par = mf.ManifoldParams(0.8, -1.4)
        p = random_domain_point(rng, par.m)
        v = rng.standard_normal(3)
        fv = mf.to_frame_components(par, p, v)
        g = mf.metric_at(par, p)
        assert_allclose(fv @ fv, v @ g @ v, rtol=1e-12)


class TestConnection:
    def test_heisenberg_table_exact(self):
        assert_allclose(mf.connection_table(H, ORIGIN), mf.h3_connection_reference(), atol=0.0)
        # constant in space
        assert_allclose(
            mf.connection_table(H, [0.3, -1.2, 5.0]), mf.h3_connection_reference(), atol=0.0
        )

    def test_operator_level_entries(self):
        # nabla_{e_a} e_b is the table's row [a - 1, b - 1]; the 1-based
        # component functions reject indices outside {1, 2, 3}
        G = mf.connection_table(H, ORIGIN)
        assert_allclose(G[0, 1, :], [0.0, 0.0, 0.5], atol=0.0)
        assert_allclose(G[0, 0, :], np.zeros(3), atol=0.0)
        with pytest.raises(IndexError):
            mf.ricci_component(H, ORIGIN, 0, 2)
        with pytest.raises(IndexError):
            mf.riemann_component(H, ORIGIN, 1, 4, 1, 2)

    def test_numeric_koszul_matches_closed_form(self):
        p = np.array([0.3, -1.2, 5.0])
        dev = np.abs(mf.connection_table_numeric(H, p) - mf.connection_table(H, p)).max()
        assert dev < 1e-8

    def test_numeric_koszul_general_params(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m, scale=1.5)
            dev = np.abs(
                mf.connection_table_numeric(par, p) - mf.connection_table(par, p)
            ).max()
            assert dev < 1e-8

    def test_metric_compatibility(self):
        # frame inner products are constant, so the coefficients must be
        # antisymmetric in the last two slots
        rng = np.random.default_rng(4)
        for _ in range(25):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            G = mf.connection_table(par, p)
            assert np.abs(G + G.swapaxes(-1, -2)).max() < 1e-12
            Gn = mf.connection_table_numeric(par, p)
            assert np.abs(Gn + Gn.swapaxes(-1, -2)).max() < 1e-8

    def test_torsion_free(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            G = mf.connection_table(par, p)
            C = mf.bracket_table(par, p)
            torsion = G - G.swapaxes(0, 1) - C
            assert np.abs(torsion).max() < 1e-12
            Gn = mf.connection_table_numeric(par, p)
            Cn = mf.bracket_table_numeric(par, p)
            assert np.abs(Gn - Gn.swapaxes(0, 1) - Cn).max() < 1e-8


# H3, two members off the Heisenberg point, a conformal (l = 0) and an l < 0 member
CONTRACTION_MEMBERS = [(0.0, 1.0), (0.25, 1.2), (-0.2, 0.7), (0.3, 0.0), (1.0, -2.0)]


class TestClosedFormContractions:
    """``connection_term`` and ``curvature_term`` replace per-sample tensor
    contractions; they must reproduce the tables they are written from."""

    @staticmethod
    def _draw(rng, par, n):
        points = np.stack([random_domain_point(rng, par.m) for _ in range(n)])
        X, Y, Z = (rng.standard_normal((n, 3)) for _ in range(3))
        return points, X, Y, Z

    @pytest.mark.parametrize("m,l", CONTRACTION_MEMBERS)
    def test_connection_term_matches_table(self, m, l):
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(31)
        points, X, V, _ = self._draw(rng, par, 200)
        expected = np.einsum("ni,nj,nija->na", X, V, mf.connection_table(par, points))
        got = mf.connection_term(par, points, X, V)
        assert got.shape == (200, 3)
        assert np.abs(got - expected).max() <= 1e-13 * (1.0 + np.abs(expected).max())
        # one point, unbatched
        assert_allclose(mf.connection_term(par, points[0], X[0], V[0]), expected[0], atol=1e-13)

    @pytest.mark.parametrize("m,l", CONTRACTION_MEMBERS)
    def test_connection_term_matches_numeric_table(self, m, l):
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(32)
        points, X, V, _ = self._draw(rng, par, 5)
        for p, x, v in zip(points, X, V):
            x, v = x / np.linalg.norm(x), v / np.linalg.norm(v)
            numeric = np.einsum("i,j,ija->a", x, v, mf.connection_table_numeric(par, p))
            assert np.abs(mf.connection_term(par, p, x, v) - numeric).max() < 1e-7

    @pytest.mark.parametrize("m,l", CONTRACTION_MEMBERS)
    def test_curvature_term_matches_table(self, m, l):
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(33)
        points, X, Y, Z = self._draw(rng, par, 200)
        table = mf.curvature_table(par, points[0])
        for a, b, c in ((X, Y, Z), (X, Y, X)):  # general, and R(T, t1) T as in tau2
            expected = np.einsum("na,nb,nc,abcd->nd", a, b, c, table)
            got = mf.curvature_term(par, a, b, c)
            assert got.shape == (200, 3)
            assert np.abs(got - expected).max() <= 1e-14 * (1.0 + np.abs(expected).max())


# The contraction members plus a constant-curvature one (l^2 = 4m, so mu = 0)
KERNEL_MEMBERS = CONTRACTION_MEMBERS + [(0.25, 1.0)]
# Leading shapes of (points, first vector, second vector): single points,
# one point or one vector against a series, and a 2-D batch.
BROADCAST_SHAPES = [((), (), ()), ((7,), (7,), (7,)), ((), (7,), (7,)), ((7,), (), (7,)),
                    ((7,), (7,), ()), ((4, 5), (4, 5), (5,))]


def _cross_form_connection(par, p, X, V):
    """``connection_term`` as written before the component form: np.cross."""
    q = np.asarray(p, dtype=float)
    m, l = par.m, par.l
    w = l * X[..., 2] + 2.0 * m * (q[..., 0] * X[..., 1] - q[..., 1] * X[..., 0])
    out = (0.5 * l) * np.cross(X, V)
    out[..., 0] += w * V[..., 1]
    out[..., 1] -= w * V[..., 0]
    return out


class TestClosedFormKernels:
    """The per-sample kernels against the tables (and, for the connection,
    the former cross-product form) they are written from, on every member
    and broadcast shape."""

    @staticmethod
    def _draw(par, seed, shapes):
        rng = np.random.default_rng(seed)
        p_shape, a_shape, b_shape = shapes
        count = int(np.prod(p_shape, dtype=int))
        points = np.stack([random_domain_point(rng, par.m) for _ in range(count)])
        return (points.reshape(p_shape + (3,)), rng.standard_normal(a_shape + (3,)),
                rng.standard_normal(b_shape + (3,)))

    @pytest.mark.parametrize("shapes", BROADCAST_SHAPES)
    @pytest.mark.parametrize("m,l", KERNEL_MEMBERS)
    def test_frame_change_matches_coframe(self, m, l, shapes):
        par = mf.ManifoldParams(m, l)
        points, v, _ = self._draw(par, 41, shapes)
        expected = np.einsum("...ak,...k->...a", mf.coframe_at(par, points), v)
        got = mf.to_frame_components(par, points, v)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
        back = mf.to_coord_components(par, points, got)
        assert np.abs(back - v).max() <= 1e-15 * np.abs(v).max()

    def test_frame_change_checks_chart(self):
        with pytest.raises(DomainError):
            mf.to_frame_components(mf.ManifoldParams(-1.0, 1.0), [1.0, 1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("shapes", BROADCAST_SHAPES)
    @pytest.mark.parametrize("m,l", KERNEL_MEMBERS)
    def test_connection_term_equals_cross_form(self, m, l, shapes):
        par = mf.ManifoldParams(m, l)
        points, X, V = self._draw(par, 42, shapes)
        got = mf.connection_term(par, points, X, V)
        expected = _cross_form_connection(par, points, X, V)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)  # bit for bit
        table = np.einsum("...i,...j,...ija->...a", X, V, mf.connection_table(par, points))
        assert np.abs(got - table).max() <= 1e-13 * (1.0 + np.abs(table).max())

    @pytest.mark.parametrize("shapes", BROADCAST_SHAPES)
    @pytest.mark.parametrize("m,l", KERNEL_MEMBERS)
    def test_curvature_term_broadcasts_like_table(self, m, l, shapes):
        par = mf.ManifoldParams(m, l)
        points, X, Y = self._draw(par, 43, shapes)
        Z = np.random.default_rng(44).standard_normal(shapes[0] + (3,))
        table = mf.curvature_table(par, points)
        for a, b, c in ((X, Y, Z), (X, Y, X)):
            expected = np.einsum("...a,...b,...c,...abcd->...d", a, b, c, table)
            got = mf.curvature_term(par, a, b, c)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-14 * (1.0 + np.abs(expected).max())


class TestBrackets:
    def test_heisenberg_relations(self):
        C = mf.bracket_table(H, ORIGIN)
        assert_allclose(C[0, 1, :], [0, 0, 1.0], atol=0.0)
        assert_allclose(C[2, 0, :], np.zeros(3), atol=0.0)
        assert_allclose(C[1, 2, :], np.zeros(3), atol=0.0)
        # away from the origin too (left invariance)
        assert_allclose(mf.bracket_table(H, [1.0, -2.0, 0.5])[0, 1, :], [0, 0, 1.0], atol=0.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            C = mf.bracket_table(par, p)
            assert np.abs(C + C.swapaxes(0, 1)).max() == 0.0
            for a in range(3):
                assert_allclose(C[a, a, :], np.zeros(3), atol=0.0)


class TestCurvature:
    def test_heisenberg_operator_components(self):
        R = mf.curvature_table(H, ORIGIN)
        assert_allclose(R[0, 1, 0], [0.0, -0.75, 0.0], atol=1e-15)   # R(e1,e2)e1
        assert_allclose(R[0, 2, 0], [0.0, 0.0, 0.25], atol=1e-15)    # R(e1,e3)e1
        assert_allclose(R[0, 1, 1], [0.75, 0.0, 0.0], atol=1e-15)    # R(e1,e2)e2
        assert_allclose(R[1, 2, 1], [0.0, 0.0, 0.25], atol=1e-15)    # R(e2,e3)e2
        assert_allclose(R[0, 2, 2], [-0.25, 0.0, 0.0], atol=1e-15)   # R(e1,e3)e3
        assert_allclose(R[1, 2, 2], [0.0, -0.25, 0.0], atol=1e-15)   # R(e2,e3)e3
        assert mf.curvature_table(H, np.zeros((4, 3))).shape == (4, 3, 3, 3, 3)

    def test_heisenberg_riemann_components(self):
        assert mf.riemann_component(H, ORIGIN, 1, 2, 1, 2) == pytest.approx(-0.75, abs=1e-12)
        assert mf.riemann_component(H, ORIGIN, 1, 3, 1, 3) == pytest.approx(0.25, abs=1e-12)
        assert mf.riemann_component(H, ORIGIN, 2, 3, 2, 3) == pytest.approx(0.25, abs=1e-12)
        # component absent from the nonvanishing list
        assert mf.riemann_component(H, ORIGIN, 1, 2, 1, 3) == pytest.approx(0.0, abs=1e-12)

    def test_numeric_curvature_heisenberg(self):
        p = np.array([0.37, 0.81, -2.0])
        dev = np.abs(mf.curvature_table_numeric(H, p) - mf.curvature_table(H, p)).max()
        assert dev < 1e-8

    def test_numeric_curvature_general(self):
        # looser than the Heisenberg check: at |m|, |l| near 2 the nested
        # stencils see larger connection tables.  The closed-form table is
        # written down; TestSymbolicOracle derives it from the metric, and
        # this finite-difference route checks it numerically on random
        # members, a conformal (l = 0) and an m < 0 member, and the
        # constant-curvature members.
        rng = np.random.default_rng(13)
        fixed = [
            mf.ManifoldParams(m, l)
            for m, l in ((0.3, 0.0), (-0.2, 0.7), (1.0, 2.0), (0.25, 1.0), (1.0, -2.0))
        ]
        # lazy, so each random member is drawn just before its point
        for par in itertools.chain((_random_params(rng) for _ in range(5)), fixed):
            p = random_domain_point(rng, par.m, scale=1.2)
            dev = np.abs(mf.curvature_table_numeric(par, p) - mf.curvature_table(par, p)).max()
            assert dev < 1e-7

    def test_symmetries(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            R = mf.curvature_table(par, p)
            Rc = np.einsum("abcd->cdab", R)
            assert np.abs(R + R.swapaxes(0, 1)).max() < 1e-12
            assert np.abs(R + R.swapaxes(2, 3)).max() < 1e-12
            assert np.abs(R - Rc).max() < 1e-12

    def test_first_bianchi(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            R = mf.curvature_table(par, p)
            cyc = R + np.einsum("bcad->abcd", R) + np.einsum("cabd->abcd", R)
            assert np.abs(cyc).max() < 1e-12

    def test_operator_multilinear_and_antisymmetric(self):
        rng = np.random.default_rng(16)
        p = np.array([0.2, 0.4, -1.0])
        X, Y, Z = rng.standard_normal((3, 3))
        R1 = mf.curvature_term(H, X, Y, Z)
        scaled = mf.curvature_term(H, 2.5 * X, Y, Z)
        assert_allclose(scaled, 2.5 * R1, rtol=1e-12)
        zero = mf.curvature_term(H, X, X, Z)
        assert_allclose(zero, np.zeros(3), atol=1e-14)

    def test_ricci_heisenberg(self):
        for (a, b), expected in mf.h3_ricci_reference().items():
            assert mf.ricci_component(H, ORIGIN, a, b) == pytest.approx(expected, abs=1e-12)
        assert mf.ricci_component(H, ORIGIN, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_ricci_general_closed_forms(self):
        # rho_11 = rho_22 = 4m - l^2/2 and rho_33 = l^2/2 for the whole family
        rng = np.random.default_rng(17)
        for _ in range(10):
            par = _random_params(rng)
            p = random_domain_point(rng, par.m)
            assert mf.ricci_component(par, p, 1, 1) == pytest.approx(
                4.0 * par.m - par.l**2 / 2.0, abs=1e-12
            )
            assert mf.ricci_component(par, p, 3, 3) == pytest.approx(par.l**2 / 2.0, abs=1e-12)

    def test_numeric_route_reads_no_closed_form(self, monkeypatch):
        # the numeric tables are the closed forms' cross-check, so they must
        # come out, within the same tolerances, with the closed forms gone
        rng = np.random.default_rng(18)
        members = [mf.ManifoldParams(m, l) for m, l in KERNEL_MEMBERS]
        points = [random_domain_point(rng, par.m, scale=1.5) for par in members]
        expected = [
            (mf.connection_table(par, p), mf.bracket_table(par, p), mf.curvature_table(par, p))
            for par, p in zip(members, points)
        ]

        def unavailable(*args, **kwargs):
            raise AssertionError("the numeric route read a closed-form table")

        for name in ("connection_table", "bracket_table", "curvature_table"):
            monkeypatch.setattr(mf, name, unavailable)
        for par, p, (G, C, R) in zip(members, points, expected):
            assert np.abs(mf.connection_table_numeric(par, p) - G).max() < 1e-8
            assert np.abs(mf.bracket_table_numeric(par, p) - C).max() < 1e-8
            assert np.abs(mf.curvature_table_numeric(par, p) - R).max() < 1e-8


# The members the symbolic derivation covers, as exact rationals
SYMBOLIC_MEMBERS = [("0", "1"), ("1/4", "6/5"), ("-1/5", "7/10"), ("3/10", "0"), ("1/4", "1")]


class TestSymbolicOracle:
    """The closed-form tables derived from the metric by computer algebra.
    Christoffel symbols of the first kind, contracted with the frame, give

        G_abc = <nabla_{e_a} e_b, e_c> = e_a(e_b^k) g_kr e_c^r
                                         + Gamma_ij,k e_a^i e_b^j e_c^k,

    and the curvature follows from that connection by

        R(e_a, e_b) e_c = -e_a(G_bc.) + e_b(G_ac.) - G_bce G_ae. + G_ace G_be.
                          + C_abf G_fc.,   C_abf = G_abf - G_baf.

    The right side is antisymmetric in (a, b), so a < b suffices."""

    @staticmethod
    def _derive(m, l):
        sp = pytest.importorskip("sympy")
        x, y, z = coords = sp.symbols("x y z", real=True)
        F = 1 + m * (x**2 + y**2)
        # ds2 = (dx^2 + dy^2) / F^2 + (dz + (l/2)(y dx - x dy) / F)^2
        w = sp.Matrix([l * y / (2 * F), -l * x / (2 * F), 1])
        g = sp.diag(1 / F**2, 1 / F**2, 0) + w * w.T
        E = sp.Matrix([[F, 0, -l * y / 2], [0, F, l * x / 2], [0, 0, 1]])  # rows e_a
        dg = [sp.diff(g, c) for c in coords]
        first_kind = [[[(dg[i][j, k] + dg[j][i, k] - dg[k][i, j]) / 2 for k in range(3)]
                       for j in range(3)] for i in range(3)]
        lowered = (E * g).applyfunc(sp.cancel)  # row c: g_kr e_c^r

        def along(a, f):  # e_a(f)
            return sum(E[a, i] * sp.diff(f, coords[i]) for i in range(3))

        triples = list(itertools.product(range(3), repeat=3))
        G = np.empty((3, 3, 3), dtype=object)
        for a, b, c in triples:
            G[a, b, c] = sp.cancel(
                sum(along(a, E[b, k]) * lowered[c, k] for k in range(3))
                + sum(E[a, i] * E[b, j] * E[c, k] * first_kind[i][j][k] for i, j, k in triples)
            )
        R = np.zeros((3, 3, 3, 3), dtype=object)
        for (a, b), (c, d) in itertools.product(itertools.combinations(range(3), 2),
                                                itertools.product(range(3), repeat=2)):
            R[a, b, c, d] = sp.cancel(
                -along(a, G[b, c, d]) + along(b, G[a, c, d])
                + sum(-G[b, c, e] * G[a, e, d] + G[a, c, e] * G[b, e, d]
                      + (G[a, b, e] - G[b, a, e]) * G[e, c, d] for e in range(3))
            )
            R[b, a, c, d] = -R[a, b, c, d]
        return sp.lambdify((x, y), G.tolist(), "numpy"), R

    @pytest.mark.parametrize("m,l", SYMBOLIC_MEMBERS)
    def test_tables_derived_from_the_metric(self, m, l):
        sp = pytest.importorskip("sympy")
        m, l = sp.Rational(m), sp.Rational(l)
        G, R = self._derive(m, l)
        par = mf.ManifoldParams(float(m), float(l))
        rng = np.random.default_rng(19)
        for p in [ORIGIN] + [random_domain_point(rng, par.m, scale=2.0) for _ in range(5)]:
            expected = np.array(G(p[0], p[1]), dtype=float)
            assert np.abs(mf.connection_table(par, p) - expected).max() <= 1e-14
        # the curvature comes out constant, as the closed form states
        assert all(sp.sympify(entry).is_number for entry in R.flat)
        assert np.abs(mf.curvature_table(par, ORIGIN) - R.astype(float)).max() <= 1e-14


class TestSectional:
    def test_frame_plane_values(self):
        e1, e2, e3 = np.eye(3)
        assert mf.sectional(H, ORIGIN, e1, e2) == pytest.approx(-0.75, abs=1e-12)
        assert mf.sectional(H, ORIGIN, e1, e3) == pytest.approx(0.25, abs=1e-12)
        assert mf.sectional(H, ORIGIN, e2, e3) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("m,l", [(1.0, 2.0), (0.25, 1.0), (1.0, -2.0)])
    def test_constant_curvature_members(self, m, l):
        par = mf.ManifoldParams(m, l)
        rng = np.random.default_rng(int(10 * m + l) + 100)
        for _ in range(100):
            p = random_domain_point(rng, m, scale=2.0)
            X, Y = rng.standard_normal((2, 3))
            assert mf.sectional(par, p, X, Y) == pytest.approx(l * l / 4.0, abs=1e-7)

    def test_degenerate_plane(self):
        with pytest.raises(DegeneratePlane):
            mf.sectional(H, ORIGIN, [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])

    def test_point_outside_the_chart(self):
        # the frame vectors carry no point: the chart is checked at p itself,
        # and so it is by the tables that depend on p
        par = mf.ManifoldParams(-1.0, 1.0)
        e1, e2, _ = np.eye(3)
        assert mf.sectional(par, ORIGIN, e1, e2) == pytest.approx(-4.75, abs=1e-12)
        outside = [2.0, 0.0, 0.0]  # F = -3
        for table in (mf.connection_table, mf.bracket_table):
            table(par, ORIGIN)
            with pytest.raises(DomainError):
                table(par, outside)
        with pytest.raises(DomainError):
            mf.sectional(par, outside, e1, e2)


class TestGroupOps:
    def test_identity_element(self):
        p = np.array([0.3, 0.7, -2.0])
        assert_allclose(mf.left_translate(H, ORIGIN, p), p, atol=0.0)

    def test_group_law_example(self):
        assert_allclose(mf.left_translate(H, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]), [1.0, 2.0, 1.0], atol=0.0)

    def test_translated_frame_stays_orthonormal(self):
        g = np.array([3.0, -1.0, 2.0])
        p = np.array([0.4, 0.9, -0.3])
        q = mf.left_translate(H, g, p)
        E = mf.frame_at(H, p)
        pushed = np.stack([mf.left_translate_velocity(H, g, E[a]) for a in range(3)])
        gq = mf.metric_at(H, q)
        gram = np.einsum("ai,ij,bj->ab", pushed, gq, pushed)
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_frame_components_invariant(self):
        g = np.array([3.0, -1.0, 2.0])
        p = np.array([0.4, 0.9, -0.3])
        v = np.array([0.3, -1.1, 0.8])
        comps = mf.to_frame_components(H, p, v)
        moved = mf.to_frame_components(
            H, mf.left_translate(H, g, p), mf.left_translate_velocity(H, g, v)
        )
        assert_allclose(moved, comps, atol=1e-14)

    def test_unsupported_manifold(self):
        with pytest.raises(UnsupportedManifold):
            mf.left_translate(mf.ManifoldParams(1.0, 2.0), ORIGIN, ORIGIN)


class TestAsPoint:
    def test_points_pass_unchanged(self):
        pts = np.array([[0.1, -2.0, 3.5], [1e300, 0.0, -1e-300]])
        assert np.array_equal(mf.as_point(pts), pts)
        assert mf.as_point([1, 2, 3]).dtype == float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mf.as_point([0.0, bad, 1.0])
        pts = np.zeros((4, 3))
        pts[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mf.as_point(pts)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (5, 2), (3, 4)])
    def test_not_3_vectors_rejected(self, shape):
        with pytest.raises(ValueError, match="3 components"):
            mf.as_point(np.zeros(shape))
