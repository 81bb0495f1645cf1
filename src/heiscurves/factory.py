"""Constructors for the concrete curve families and surfaces.

The centerpiece is the closed-form family of unit-speed helices on the
Heisenberg group whose tangent makes a constant angle alpha0 with the
vertical direction e3,

    x(s) =  (sin(alpha0) / A) sin(A s + a) + b,
    y(s) = -(sin(alpha0) / A) cos(A s + a) + c,
    z(s) =  (cos(alpha0) + sin(alpha0)^2 / (2A)) s
            - (b / 2A) sin(alpha0) cos(A s + a)
            - (c / 2A) sin(alpha0) sin(A s + a) + d.

For the rotation rate A solving

    A^2 - cos(alpha0) A + 1 - cos(alpha0)^2 = 0,

which has real roots exactly when 5 cos(alpha0)^2 - 4 >= 0, the curve has
vanishing bitension field: these are all the non-geodesic biharmonic curves
of the group.  The same parametric form with an arbitrary rate is exposed as
``helix_family_curve`` and serves as the negative control (off-root rates
give curves with constant invariants that fail the characterization system).

These equations give the helix's point at the start of its range; from
there it is sampled like the geodesics of the m = 0 members and the
one-parameter subgroups, which are the same kind of curve: T3 constant and
(T1, T2) turning at a constant rate, A for the helix, l T3 for a geodesic,
0 for a subgroup.  The tests check the samples against the equations above.

Also provided: geodesics on m != 0 (a Moebius orbit of the (x, y) chart),
the non-biharmonic family with vanishing third binormal component, and the
cylinder / helicoid pair whose intersection contains the biharmonic helix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import manifold as mf
from .curves import CurveSamples, CurveSpec, _finite_range, left_translate_curve
from .errors import (
    DomainExit,
    InadmissibleAlpha,
    IntegrationFailure,
    NonMonotoneAlpha,
    NonUnitVector,
    UnsupportedManifold,
)
from .manifold import HEISENBERG, ManifoldParams
from .numerics import cumulative_simpson

__all__ = [
    "HelixParams",
    "ADMISSIBLE_BOUNDARY",
    "admissible_cos",
    "solve_branch_A",
    "helix_family_curve",
    "biharmonic_helix",
    "helix_invariants",
    "geodesic_ivp",
    "one_param_subgroup",
    "b3zero_curve",
    "tangent_driven_curve",
    "SurfacePatch",
    "cylinder_patch",
    "helicoid_patch",
    "surface_eval",
    "membership_residual",
    "dump_curve_params",
    "load_curve_params",
]

# Half-angle of the admissible cone: directions with |cos(alpha0)| >= 2/sqrt(5).
ADMISSIBLE_BOUNDARY = math.acos(2.0 / math.sqrt(5.0))

_DISC_SLACK = 1e-12  # tolerance for the double root at the cone boundary


def admissible_cos(cos_alpha0: float) -> bool:
    """The paper's admissibility rule 5 cos(alpha0)^2 - 4 >= 0, which holds
    exactly when the rate quadratic has a real root; the boundary, a double
    root, is kept up to _DISC_SLACK.  Says nothing about sin(alpha0) != 0."""
    return 5.0 * cos_alpha0 * cos_alpha0 - 4.0 >= -_DISC_SLACK


@dataclass(frozen=True)
class HelixParams:
    """Parameters of the closed-form helix family.

    alpha0  axis angle in (0, pi) with 5 cos(alpha0)^2 - 4 >= 0
    a, b, c, d  phase and translation constants
    branch  which root of the rate quadratic ("plus" or "minus")
    """

    alpha0: float
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    branch: str = "plus"

    def __post_init__(self):
        constants = {"a": self.a, "b": self.b, "c": self.c, "d": self.d}
        bad = [f"{name} = {value!r}" for name, value in constants.items() if not math.isfinite(value)]
        if bad:
            raise ValueError(f"helix constants must be finite, got {', '.join(bad)}")
        if self.branch not in ("plus", "minus"):
            raise ValueError(f"branch must be 'plus' or 'minus', got {self.branch!r}")
        if not 0.0 < self.alpha0 < math.pi:
            raise InadmissibleAlpha(
                f"alpha0 = {self.alpha0} outside (0, pi): sin(alpha0) must not vanish"
            )
        c0 = math.cos(self.alpha0)
        if not admissible_cos(c0):
            raise InadmissibleAlpha(
                f"alpha0 = {self.alpha0} violates the admissibility condition "
                f"cos(alpha0)^2 >= 4/5 (got cos^2 = {c0 * c0:.6f})"
            )
        solve_branch_A(self.alpha0, self.branch)


def solve_branch_A(alpha0: float, branch: str = "plus") -> float:
    """Root of A^2 - cos(alpha0) A + 1 - cos(alpha0)^2 = 0 on the requested
    branch.  The residual of the returned root is below 1e-12 by
    construction; InadmissibleAlpha is raised for a negative discriminant and
    for a root that gives no helix."""
    c0 = math.cos(alpha0)
    s0 = math.sin(alpha0)
    if s0 == 0.0:
        raise InadmissibleAlpha("sin(alpha0) = 0 degenerates the family")
    disc = 5.0 * c0 * c0 - 4.0
    if not admissible_cos(c0):
        raise InadmissibleAlpha(
            f"negative discriminant 5 cos(alpha0)^2 - 4 = {disc:.6e}; need "
            "cos(alpha0)^2 >= 4/5"
        )
    root = math.sqrt(max(disc, 0.0))
    A = 0.5 * (c0 + root) if branch == "plus" else 0.5 * (c0 - root)
    residual = A * A - c0 * A + 1.0 - c0 * c0
    if abs(residual) > 1e-12:
        raise InadmissibleAlpha(f"root verification failed: residual {residual:.3e}")
    # cos(alpha0) rounds to +-1 within about 1.05e-8 of 0 and pi, and the roots
    # to cos(alpha0) and 0: the one would force k = 0, the other is no rate
    if A == c0:
        raise InadmissibleAlpha("rate equals cos(alpha0): the curve is a geodesic")
    if A == 0.0:
        raise InadmissibleAlpha("rate is zero: cos(alpha0) rounds to +-1")
    return A


# (q - sin q) / q^3 = sum_k (-1)^k q^(2k) / (2k + 3)!; eight terms reach double
# precision for |q| < 1, below which the direct quotient starts to cancel.
_SWEEP_SERIES = tuple((-1.0) ** k / math.factorial(2 * k + 3) for k in range(8))


def _sweep(q: np.ndarray) -> np.ndarray:
    """(q - sin q) / q^3, without cancellation near q = 0 (where it is 1/6)."""
    out = np.empty_like(q)
    small = np.abs(q) < 1.0
    q2 = q[small] ** 2
    series = np.zeros_like(q2)
    for coeff in reversed(_SWEEP_SERIES):
        series = series * q2 + coeff
    out[small] = series
    big = q[~small]
    out[~small] = (big - np.sin(big)) / big**3
    return out


def _constant_angle_sampler(
    l: float, p0, S: float, phi: float, t3: float, w: float, s0: float
) -> Callable:
    """Sampler of the m = 0 curve through p0 = gamma(s0) whose tangent keeps
    T3 = t3 and turns at the constant rate w: the paper's helices (w = A),
    the geodesics (w = l T3) and the one-parameter subgroups (w = 0).

    With u = s - s0 the tangent is T = (S cos(phi + w u), S sin(phi + w u),
    t3).  The horizontal chord is S u sinc(w u / 2) along the angle
    phi + w u / 2, and z gains t3 u plus l/2 times the area term
    x0 dy - y0 dx + S^2 (w u - sin w u) / w^2.  Written this way every term
    stays finite and accurate as w -> 0, where the curve becomes the
    horizontal line through p0.
    """
    x0, y0, z0 = (float(v) for v in p0)

    def sampler(s):
        u = np.asarray(s, dtype=float) - s0
        q = w * u
        chord = S * u * np.sinc(q / (2.0 * math.pi))
        dx = chord * np.cos(phi + 0.5 * q)
        dy = chord * np.sin(phi + 0.5 * q)
        # S^2 (w u - sin w u) / w^2 = S^2 w u^3 (q - sin q) / q^3
        area = x0 * dy - y0 * dx + S * S * w * u**3 * _sweep(q)
        z = z0 + t3 * u + 0.5 * l * area
        theta = phi + q
        vel = np.stack([S * np.cos(theta), S * np.sin(theta), np.full_like(theta, t3)], axis=-1)
        return np.stack([x0 + dx, y0 + dy, z], axis=-1), vel

    return sampler


def helix_family_curve(
    alpha0: float,
    rate: float,
    a: float = 0.0,
    b: float = 0.0,
    c: float = 0.0,
    d: float = 0.0,
    s_range: tuple[float, float] = (0.0, 10.0 * math.pi),
) -> CurveSpec:
    """The constant-axis-angle family with an arbitrary rotation rate.

    Unit speed for every rate; biharmonic only when the rate solves the
    branch quadratic.  Exact positions and frame velocities, from the
    paper's point at s_range[0] and the turning rate w = rate.
    """
    if rate == 0.0:
        raise ValueError("rate must be nonzero")
    S, C = math.sin(alpha0), math.cos(alpha0)
    s0 = _finite_range(s_range)[0]
    beta0 = rate * s0 + a
    x0 = (S / rate) * math.sin(beta0) + b
    y0 = -(S / rate) * math.cos(beta0) + c
    # the paper's z: the slope plus (b (y - c) - c (x - b)) / 2 = (b y - c x) / 2
    z0 = (C + S * S / (2.0 * rate)) * s0 + 0.5 * (b * y0 - c * x0) + d
    return CurveSpec(
        manifold=HEISENBERG,
        s_range=s_range,
        sampler=_constant_angle_sampler(1.0, (x0, y0, z0), S, beta0, C, rate, s0),
        family=dict(family="helix_family", alpha0=alpha0, rate=rate, a=a, b=b, c=c, d=d),
    )


def biharmonic_helix(
    hp: HelixParams, s_range: tuple[float, float] = (0.0, 10.0 * math.pi)
) -> CurveSpec:
    """The non-geodesic biharmonic helix with the given parameters."""
    A = solve_branch_A(hp.alpha0, hp.branch)
    spec = helix_family_curve(hp.alpha0, A, hp.a, hp.b, hp.c, hp.d, s_range)
    return replace(spec, family={**spec.family, "family": "biharmonic_helix", "branch": hp.branch})


def helix_invariants(hp: HelixParams) -> tuple[float, float, float]:
    """Closed-form (k, tau, B3) of the helix, in the measured orientation.

    With w = cos(alpha0) - A the raw curvature is sin(alpha0) w; the package
    normalizes k >= 0, which flips N (and hence B3) when w < 0.  tau is
    orientation-invariant.  The returned triple satisfies
    k^2 + tau^2 + B3^2 = 1/4 identically.
    """
    A = solve_branch_A(hp.alpha0, hp.branch)
    S, C = math.sin(hp.alpha0), math.cos(hp.alpha0)
    k_signed = S * (C - A)
    tau = -(C * A + 0.5 - C * C)
    sign = 1.0 if k_signed >= 0.0 else -1.0
    return abs(k_signed), tau, -sign * S


# ---------------------------------------------------------------------------
# Geodesics, subgroups and the vanishing-B3 family
# ---------------------------------------------------------------------------


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first use: only the ODE-backed
    curves need scipy (the optional ``ode`` extra), so importing the package
    does not load it."""
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


def _require_unit(v: np.ndarray, what: str, tol: float = 1e-9) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise NonUnitVector(f"{what} must have 3 components")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= tol:  # NaN fails too
        raise NonUnitVector(f"{what} must be unit, |v| = {nrm:.12f}")
    return v


def geodesic_ivp(
    params: ManifoldParams,
    p0,
    v0_frame,
    s_range: tuple[float, float],
) -> CurveSpec:
    """Geodesic through p0 = gamma(s_range[0]) with unit initial velocity
    (frame components), evaluated in closed form on every member.

    The tangent obeys T_a' = -Gamma_ij^a T_i T_j; T3 is a first integral.
    For m = 0 (any l), (T1, T2) turns at the constant rate l T3.  For
    m != 0 the metrics are naturally reductive, so the geodesic is the
    orbit of a one-parameter isometry group and its (x, y) projection is a
    Moebius orbit: a circle or a line of the chart.  No ODE is solved.
    DomainExit is raised when the curve leaves the chart within
    ``s_range``: for m < 0 once the conformal factor falls to 1e-9, for
    m > 0 when it passes through the point the chart misses.
    """
    p0 = mf.as_point(p0)
    v0 = _require_unit(v0_frame, "initial velocity")
    mf.conformal_factor(params, p0)
    t1, t2, t3 = (float(v) for v in v0)
    s0 = _finite_range(s_range)[0]
    if params.m == 0.0:
        S, phi = math.hypot(t1, t2), math.atan2(t2, t1)
        sampler = _constant_angle_sampler(params.l, p0, S, phi, t3, params.l * t3, s0)
    else:
        sampler = _orbit_sampler(params, p0, v0, s_range)
    return CurveSpec(
        manifold=params,
        s_range=s_range,
        sampler=sampler,
        family={
            "family": "geodesic",
            "point": [float(v) for v in p0],
            "direction": [t1, t2, t3],
            "manifold": {"m": params.m, "l": params.l},
        },
    )


_CHART_EDGE = 1e-9  # conformal factor at which an m < 0 geodesic leaves the chart
_EPS = float(np.finfo(float).eps)


def _orbit_sampler(
    params: ManifoldParams, p0: np.ndarray, v0: np.ndarray, s_range: tuple[float, float]
) -> Callable:
    """The m != 0 geodesic, anchored at p0 = gamma(s0), as a Moebius orbit.

    With zeta = x + i y, u = s - s0, v = (T1 + i T2)(s0), k = l T3 / 2 and
    F = 1 + m |zeta|^2, the projection is zeta(s) = g_u(zeta0) for the flow
    g_u = exp(u M) of M = [[i a, b], [-m conj(b), -i a]].  M^2 = -Om^2 I with
    Om^2 = k^2 + m |v|^2, so g_u = C(u) I + Sn(u) M with C = cos(Om u) and
    Sn = sin(Om u) / Om (cosh and sinh when Om^2 < 0; 1 and u when Om = 0).
    Matching zeta0, zeta'(s0) = F0 v and the turning rate of (T1, T2) fixes
    M, and everything reads off D = C - gamma Sn, gamma = i k + m conj(zeta0) v:

        zeta = zeta0 + F0 v Sn / D,    T1 + i T2 = v conj(D) / D,
        F = F0 / |D|^2,    z = z0 + T3 u - (l / 2m) (arg D + k u),

    the last from theta' = l T3 + 2m (x T2 - y T1) and z' = T3 + (l/2)
    (x T2 - y T1), where theta = theta0 - 2 arg D is the angle of (T1, T2).
    """
    orbit = _MoebiusOrbit(params.m, params.l, p0, v0)
    s0 = float(s_range[0])
    orbit.check_chart(s0, float(s_range[1]) - s0)
    zeta0, z0, v, t3 = orbit.zeta0, float(p0[2]), orbit.v, float(v0[2])
    w0, half_l = orbit.F0 * v, 0.5 * params.l

    def sampler(s):
        u = np.asarray(s, dtype=float) - s0
        D, sn = orbit.denominator(u)
        zeta = zeta0 + w0 * sn / D
        z = z0 + t3 * u - half_l * orbit.phase(u, D)
        T = v * (D.conjugate() / D)
        vel = np.stack([T.real, T.imag, np.full_like(u, t3)], axis=-1)
        return np.stack([zeta.real, zeta.imag, z], axis=-1), vel

    return sampler


class _MoebiusOrbit:
    """The denominator D(u), the phase (arg D + k u) / m and the chart exits
    of the orbit through zeta0 = x0 + i y0 with initial v = T1 + i T2.

    For Om^2 > 0, 2 Om D = U e^(i Om u) + W e^(-i Om u) with U = Om - k + i mq
    and W = Om + k - i mq, mq = m conj(zeta0) v, where Om -/+ k = m |v|^2 /
    (Om +/- k) avoids the cancellation; |U| < |W| exactly when Im gamma > 0.
    """

    def __init__(self, m: float, l: float, p0: np.ndarray, v0: np.ndarray):
        x0, y0 = float(p0[0]), float(p0[1])
        t1, t2, t3 = (float(c) for c in v0)
        self.m = m
        self.zeta0 = complex(x0, y0)
        self.F0 = 1.0 + m * (x0 * x0 + y0 * y0)
        self.v = complex(t1, t2)
        self.k = k = 0.5 * l * t3
        self.mq = mq = m * (self.zeta0.conjugate() * self.v)
        self.gamma = complex(mq.real, k + mq.imag)
        sq = t1 * t1 + t2 * t2
        self.om2 = om2 = k * k + m * sq
        self.om = om = math.sqrt(abs(om2))
        self.route = "principal"
        if om2 > 0.0:
            om_minus_k = m * sq / (om + k) if k > 0.0 else om - k
            om_plus_k = m * sq / (om - k) if k < 0.0 else om + k
            self.U = complex(om_minus_k - mq.imag, mq.real)
            self.W = complex(om_plus_k + mq.imag, -mq.real)
            if self.gamma.imag > 0.0:
                big, small, self.rate, self.turn = self.W, self.U, -om_minus_k, 2.0 * om
            else:
                big, small, self.rate, self.turn = self.U, self.W, om_plus_k, -2.0 * om
            self.ratio = small / big
            self.offset = math.atan2(big.imag, big.real)
            if abs(self.ratio) <= 0.5:
                self.route = "factored"
            elif self.gamma.imag != 0.0:
                self.route = "unwound"

    def denominator(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """D(u) and Sn(u)."""
        om, om2 = self.om, self.om2
        if om2 > 0.0:
            c, sn = np.cos(om * u), np.sin(om * u) / om
        elif om2 < 0.0:
            c, sn = np.cosh(om * u), np.sinh(om * u) / om
        else:
            c, sn = np.ones_like(u), u
        return c - self.gamma * sn, sn

    def phase(self, u: np.ndarray, D: np.ndarray) -> np.ndarray:
        """(arg D + k u) / m, continuous in u, with arg D(0) = 0.

        factored: when one of U, W dominates by a factor two, say W,

            arg D + k u = -(Om - k) u + arg W + arg(1 + (U / W) e^(2i Om u)):

        every atan2 stays on its principal branch, and as m -> 0 each term
        is O(m) and computed from O(m) factors.
        unwound: D(u + pi / Om) = -D(u), each half-period turning arg D by
        -pi sign(Im gamma), so arg D is unwound half-period by half-period.
        principal: for Om^2 <= 0 D never crosses the negative real axis, and
        for Im gamma = 0 D stays real and positive up to the pole, so the
        principal value is continuous.
        """
        if self.route == "factored":
            e = self.ratio * np.exp(1j * self.turn * u)
            return (self.rate * u + self.offset + np.arctan2(e.imag, 1.0 + e.real)) / self.m
        if self.route == "unwound":
            om = self.om
            half_turns = np.rint(om * u / math.pi)
            r = om * u - half_turns * math.pi
            reduced = np.cos(r) - self.gamma * (np.sin(r) / om)
            arg = np.angle(reduced) - math.copysign(math.pi, self.gamma.imag) * half_turns
            return (arg + self.k * u) / self.m
        return (np.angle(D) + self.k * u) / self.m

    def check_chart(self, s0: float, length: float) -> None:
        """Raise DomainExit if the orbit leaves the chart for u in [0, length].

        m > 0: the projection passes through the point the chart misses where
        D = 0, which needs Im gamma = 0 (|U| = |W|); an Im gamma at the
        rounding level of k + Im(mq) puts that zero on the path too.
        m < 0: the conformal factor F0 / |D|^2 falls to _CHART_EDGE.  |D|^2
        falls and then rises up to the end of the range (Om^2 <= 0) or up to
        its first crest (Om^2 > 0), so bisection on that stretch finds the
        first crossing.
        """
        om, gamma = self.om, self.gamma
        if self.m > 0.0:
            if self.om2 > 0.0 and abs(gamma.imag) <= 4.0 * _EPS * (abs(self.k) + abs(self.mq)):
                u_pole = math.atan2(om, gamma.real) / om
                if u_pole <= length:
                    raise DomainExit(
                        "geodesic passes through the point the chart misses at "
                        f"s = {s0 + u_pole:.6f}"
                    )
            return
        limit = self.F0 / _CHART_EDGE

        def excess(u: float) -> float:
            D, _ = self.denominator(np.array(u))
            return float(abs(D)) ** 2 - limit

        hi = length
        if self.om2 > 0.0:
            # 4 Om^2 |D|^2 = |U|^2 + |W|^2 + 2 Re(U conj(W) e^(2i Om u))
            cross = self.U * self.W.conjugate()
            hi = min(hi, (-math.atan2(cross.imag, cross.real)) % (2.0 * math.pi) / (2.0 * om))
        if excess(hi) < 0.0:
            return
        lo = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if excess(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        raise DomainExit(f"geodesic left the chart at s = {s0 + hi:.6f}")


def one_param_subgroup(
    direction,
    s_range: tuple[float, float] = (0.0, 20.0),
    params: ManifoldParams = HEISENBERG,
) -> CurveSpec:
    """The one-parameter subgroup u -> exp(u X) of the Heisenberg group.

    For the Heisenberg multiplication these are the straight lines
    u -> (A u, B u, C u), whose frame velocity is the constant (A, B, C):
    the constant-angle curve with turning rate 0.
    """
    if not params.is_heisenberg:
        raise UnsupportedManifold(
            "one-parameter subgroups are implemented only for (m, l) = (0, 1)"
        )
    v = _require_unit(direction, "subgroup direction")
    t1, t2, t3 = (float(c) for c in v)
    s0 = _finite_range(s_range)[0]
    S, phi = math.hypot(t1, t2), math.atan2(t2, t1)
    return CurveSpec(
        manifold=HEISENBERG,
        s_range=s_range,
        sampler=_constant_angle_sampler(1.0, s0 * v, S, phi, t3, 0.0, s0),
        family={"family": "one_param_subgroup", "direction": [t1, t2, t3]},
    )


_QUAD_REFINE = 16  # quadrature nodes per sample interval in b3zero_curve


def b3zero_curve(
    alpha: Callable,
    s_range: tuple[float, float],
    start=(0.0, 0.0, 0.0),
) -> CurveSpec:
    """Unit-speed curve with tangent

        T = sin(alpha) cos(beta) e1 + sin(alpha) sin(beta) e2 + cos(alpha) e3,
        beta(s) = integral of cos(alpha),

    for a strictly increasing profile angle alpha(s), which maps an array of
    arclengths to an array of the same shape.  The resulting curve
    has vanishing third binormal component, torsion -1/2, geodesic curvature
    alpha', and is never biharmonic.

    beta and the positions are accumulated with 4th-order quadrature on a
    grid refined ``_QUAD_REFINE`` times relative to the sample grid; no
    extra ODE state is introduced.
    """
    start = mf.as_point(start)

    def sampler(s_grid):
        s_grid = np.asarray(s_grid, dtype=float)
        n = len(s_grid)
        fine = np.linspace(s_grid[0], s_grid[-1], (n - 1) * _QUAD_REFINE + 1)
        a_vals = np.asarray(alpha(fine), dtype=float)
        if a_vals.shape != fine.shape:
            raise ValueError(
                f"alpha returned shape {a_vals.shape} for arclengths of shape {fine.shape}"
            )
        if np.any(np.diff(a_vals) <= 0.0):
            raise NonMonotoneAlpha("alpha(s) must be strictly increasing")
        delta = fine[1] - fine[0]
        beta = cumulative_simpson(np.cos(a_vals), dx=delta)
        sin_a = np.sin(a_vals)
        T1 = sin_a * np.cos(beta)
        T2 = sin_a * np.sin(beta)
        T3 = np.cos(a_vals)
        x = start[0] + cumulative_simpson(T1, dx=delta)
        y = start[1] + cumulative_simpson(T2, dx=delta)
        dz = T3 - 0.5 * y * T1 + 0.5 * x * T2
        z = start[2] + cumulative_simpson(dz, dx=delta)
        sel = slice(None, None, _QUAD_REFINE)
        pts = np.stack([x[sel], y[sel], z[sel]], axis=-1)
        vel = np.stack([T1[sel], T2[sel], T3[sel]], axis=-1)
        return pts, vel

    return CurveSpec(
        manifold=HEISENBERG,
        s_range=s_range,
        sampler=sampler,
        family={"family": "b3zero"},
    )


_ODE_SETTINGS = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-12}  # tangent_driven_curve


def tangent_driven_curve(
    params: ManifoldParams,
    frame_tangent_fn: Callable,
    p0,
    s_range: tuple[float, float],
) -> CurveSpec:
    """Integrate a curve from prescribed unit frame components of its tangent.

    Works on any member of the metric family; used to produce non-geodesic
    test curves away from the Heisenberg parameters.  Sampling needs scipy.
    """
    p0 = mf.as_point(p0)

    def rhs(s, p):
        T = np.asarray(frame_tangent_fn(s), dtype=float)
        E = mf.frame_at(params, p)
        return T @ E

    def sampler(s_grid):
        s_grid = np.asarray(s_grid, dtype=float)
        sol = solve_ivp(
            rhs, (float(s_grid[0]), float(s_grid[-1])), p0, t_eval=s_grid, **_ODE_SETTINGS
        )
        if not sol.success:
            raise IntegrationFailure(f"ODE solver failed: {sol.message}")
        vel = np.stack([np.asarray(frame_tangent_fn(t), dtype=float) for t in s_grid])
        return sol.y.T, vel

    return CurveSpec(
        manifold=params,
        s_range=s_range,
        sampler=sampler,
        family={"family": "tangent_driven", "manifold": {"m": params.m, "l": params.l}},
    )


# ---------------------------------------------------------------------------
# The cylinder S and helicoid S' containing the helix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfacePatch:
    """Evaluation-only parametrization of the cylinder or helicoid."""

    kind: str  # "cylinder" | "helicoid"
    alpha0: float
    rate: float
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cylinder", "helicoid"):
            raise ValueError(f"unknown surface kind {self.kind!r}")

    @property
    def radius(self) -> float:
        return abs(math.sin(self.alpha0) / self.rate)


def cylinder_patch(hp: HelixParams) -> SurfacePatch:
    A = solve_branch_A(hp.alpha0, hp.branch)
    return SurfacePatch("cylinder", hp.alpha0, A, hp.a, hp.b, hp.c, hp.d)


def helicoid_patch(hp: HelixParams) -> SurfacePatch:
    A = solve_branch_A(hp.alpha0, hp.branch)
    return SurfacePatch("helicoid", hp.alpha0, A, hp.a, hp.b, hp.c, hp.d)


def surface_eval(patch: SurfacePatch, u, v) -> np.ndarray:
    """Evaluate the patch at (u, v); broadcasts over both arguments."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    S, C = math.sin(patch.alpha0), math.cos(patch.alpha0)
    A = patch.rate
    beta = A * u + patch.a
    if patch.kind == "cylinder":
        x = (S / A) * np.sin(beta) + patch.b
        y = -(S / A) * np.cos(beta) + patch.c
        z = v.astype(float)
    else:
        x = (v * S / A) * np.sin(beta) + patch.b
        y = -(v * S / A) * np.cos(beta) + patch.c
        z = (
            (C + S * S / (2.0 * A)) * u
            + 0.5 * patch.b * y
            - 0.5 * patch.c * x
            + patch.d
        )
    return np.stack([x, y, z], axis=-1)


def membership_residual(samples: CurveSamples, patch: SurfacePatch) -> float:
    """Worst distance of the sampled curve from the patch.

    Cylinder: radial defect |hypot(x - b, y - c) - radius|.  Helicoid:
    componentwise defect against the slice v = 1 evaluated at u = s.
    """
    pts = samples.points
    if patch.kind == "cylinder":
        r = np.hypot(pts[:, 0] - patch.b, pts[:, 1] - patch.c)
        return float(np.abs(r - patch.radius).max())
    ref = surface_eval(patch, samples.s, np.ones_like(samples.s))
    return float(np.abs(pts - ref).max())


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------


def _offsets(data: dict) -> list[float]:
    """A helix record's phase and translation constants a, b, c, d (0 where absent)."""
    return [float(data.get(key, 0.0)) for key in "abcd"]


def _load_b3zero_linear(data: dict, params: ManifoldParams, s_range) -> CurveSpec:
    a0, rate = float(data["alpha_start"]), float(data["alpha_rate"])
    return replace(b3zero_curve(lambda s: a0 + rate * np.asarray(s, dtype=float), s_range),
                   family={"family": "b3zero_linear", "alpha_start": a0, "alpha_rate": rate})


# Each loadable curve family and its loader, (record, manifold, s_range) ->
# CurveSpec: the keys are the families that have a parameter record.
_LOADERS = {
    "biharmonic_helix": lambda data, params, s_range: biharmonic_helix(
        HelixParams(float(data["alpha0"]), *_offsets(data), data.get("branch", "plus")), s_range),
    "helix_family": lambda data, params, s_range: helix_family_curve(
        float(data["alpha0"]), float(data["rate"]), *_offsets(data), s_range),
    "one_param_subgroup": lambda data, params, s_range: one_param_subgroup(
        np.asarray(data["direction"], dtype=float), s_range),
    "geodesic": lambda data, params, s_range: geodesic_ivp(
        params, np.asarray(data["point"], dtype=float), np.asarray(data["direction"], dtype=float),
        s_range),
    "b3zero_linear": _load_b3zero_linear,
}


def _loader(family) -> Callable | None:
    """The loader of a family name; None for any other value."""
    return _LOADERS.get(family) if isinstance(family, str) else None


def dump_curve_params(spec: CurveSpec, n_samples: int | None = None) -> str:
    """JSON form of a factory-built curve (family parameters only).

    Raises ValueError for a curve that ``load_curve_params`` cannot rebuild
    from its record: one with no family, or ``b3zero`` and
    ``tangent_driven`` curves, whose parameters are callables.
    """
    family = spec.family.get("family")
    if _loader(family) is None:
        raise ValueError(f"no parameter record for curve family {family!r}")
    payload = dict(spec.family)
    payload.setdefault("manifold", {"m": spec.manifold.m, "l": spec.manifold.l})
    payload["s_range"] = [float(spec.s_range[0]), float(spec.s_range[1])]
    if n_samples is not None:
        payload["samples"] = int(n_samples)
    return json.dumps(payload, indent=2, sort_keys=True)


def load_curve_params(text: str) -> tuple[CurveSpec, int | None]:
    """Rebuild a CurveSpec from its JSON parameter record, left-translated
    by ``translated_by`` when the record has it."""
    data = json.loads(text)
    man = data.get("manifold", {"m": 0.0, "l": 1.0})
    params = ManifoldParams(float(man["m"]), float(man["l"]))
    s_range = tuple(float(v) for v in data.get("s_range", (0.0, 10.0 * math.pi)))
    family = data.get("family")
    loader = _loader(family)
    if loader is None:
        raise ValueError(f"unknown curve family {family!r}")
    spec = loader(data, params, s_range)
    if "translated_by" in data:
        spec = left_translate_curve(np.asarray(data["translated_by"], dtype=float), spec)
    return spec, data.get("samples")
