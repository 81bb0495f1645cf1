"""Left-invariant Riemannian structure of the Heisenberg group and of its
two-parameter deformation family.

The metrics on R^3 handled here are

    ds2 = (dx^2 + dy^2) / F^2 + (dz + (l/2) (y dx - x dy) / F)^2,

with conformal factor F = 1 + m (x^2 + y^2).  The pair (m, l) = (0, 1)
gives the standard left-invariant metric of the Heisenberg group H3.  All
frame-indexed quantities refer to the adapted orthonormal frame

    e1 = F d/dx - (l y / 2) d/dz,
    e2 = F d/dy + (l x / 2) d/dz,
    e3 = d/dz,

dual to the coframe (dx / F, dy / F, dz + (l/2)(y dx - x dy) / F).

Two routes are provided for the connection and the curvature:

* closed forms (exact).  The connection follows from the Koszul formula
  applied to the bracket relations [e1,e2] = -2my e1 + 2mx e2 + l e3,
  [e2,e3] = [e3,e1] = 0.  Every metric of the family is homogeneous, so in
  the adapted frame the curvature has the same components at every point,
  the Cartan-Vranceanu constants R_1212 = 4m - 3l^2/4 and
  R_1313 = R_2323 = l^2/4 (all others follow by symmetry or vanish).  The
  kernels the curve analysis runs per sample (``to_frame_components``,
  ``connection_term``, ``curvature_term``) act on (n, 3) component arrays
  directly; the tables they are written from (``coframe_at``,
  ``connection_table``, ``curvature_table``) serve the ``tensors`` command
  and are the kernels' oracles in the tests.
* a numeric route that follows the same Koszul formula from numbers only:
  5-point central differences of the frame coefficients give the brackets,
  the Koszul formula the connection, and differences of that table along
  the frame the curvature.  ``cross_check`` compares the tables with it for
  the ``tensors`` command (connection to ~1e-11, curvature to ~1e-9).

Sign convention.  The curvature operator is

    R(X, Y)Z = -nabla_X nabla_Y Z + nabla_Y nabla_X Z + nabla_[X,Y] Z,

and R(X, Y, Z, W) = <R(X, Y)Z, W>, rho(X, Y) = trace(Z -> R(X, Z)Y).  With
this choice the sectional curvature of a plane is K(X, Y) = R(X, Y, X, Y)
for orthonormal X, Y; on H3, K(e1, e2) = -3/4 and K(e1, e3) = 1/4.

Frame indices in the public API are 1-based (a, b, ... in {1, 2, 3}) to
match the usual tensor-component notation R_1212, rho_33, ...

Tangent vectors are plain float arrays with a trailing axis of size 3:
coordinate components (d/dx, d/dy, d/dz) or frame components (e1, e2, e3),
converted at given points by ``to_frame_components`` and
``to_coord_components``.  No vector carries a base point: frame components
do not change under left translation, and the curvature table is the same at
every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, DomainError, UnsupportedManifold

__all__ = [
    "ManifoldParams",
    "HEISENBERG",
    "as_point",
    "conformal_factor",
    "metric_at",
    "frame_at",
    "coframe_at",
    "to_frame_components",
    "to_coord_components",
    "connection_table",
    "connection_term",
    "connection_table_numeric",
    "bracket_table",
    "curvature_table",
    "curvature_term",
    "curvature_table_numeric",
    "cross_check",
    "riemann_component",
    "ricci_component",
    "sectional",
    "left_translate",
    "left_translate_velocity",
    "h3_connection_reference",
    "h3_riemann_reference",
    "h3_ricci_reference",
]


@dataclass(frozen=True)
class ManifoldParams:
    """Parameters (m, l) selecting one metric of the family.

    m : curvature parameter (dimensionless)
    l : twist parameter (dimensionless)
    """

    m: float = 0.0
    l: float = 1.0

    def __post_init__(self):
        for name in ("m", "l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"manifold {name} must be finite, got {value!r}")

    @property
    def flatness(self) -> float:
        """The combination l^2 - 4m; zero exactly on the constant-curvature
        members of the family (curvature l^2 / 4)."""
        return self.l * self.l - 4.0 * self.m

    @property
    def is_degenerate(self) -> bool:
        return self.flatness == 0.0

    @property
    def is_heisenberg(self) -> bool:
        return self.m == 0.0 and self.l == 1.0


HEISENBERG = ManifoldParams(0.0, 1.0)


def as_point(p) -> np.ndarray:
    """Coerce to a float array of points with trailing axis of size 3."""
    q = np.asarray(p, dtype=float)
    if q.shape == () or q.shape[-1] != 3:
        raise ValueError(f"expected point(s) with 3 components, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("point components must be finite")
    return q


def conformal_factor(params: ManifoldParams, p) -> np.ndarray:
    """F = 1 + m (x^2 + y^2); raises DomainError where F <= 0.

    On m = 0 the chart is all of R^3 and F = 1 exactly, without squaring x
    and y, which could overflow to 0 * inf = NaN at finite points."""
    q = as_point(p)
    if params.m == 0.0:
        return np.ones(q.shape[:-1])
    fac = 1.0 + params.m * (q[..., 0] ** 2 + q[..., 1] ** 2)
    if np.any(fac <= 0.0):
        raise DomainError(
            f"point outside the chart: 1 + m (x^2+y^2) <= 0 for (m, l) = "
            f"({params.m}, {params.l})"
        )
    return fac


def _twist_coefficients(params: ManifoldParams, p):
    """Coefficients (u, v) of the twist one-form theta3 = u dx + v dy + dz."""
    q = as_point(p)
    fac = conformal_factor(params, q)
    u = 0.5 * params.l * q[..., 1] / fac
    v = -0.5 * params.l * q[..., 0] / fac
    return fac, u, v


def metric_at(params: ManifoldParams, p) -> np.ndarray:
    """Gram matrix of the metric in the coordinate basis, shape (..., 3, 3).

    Exact expansion of the quadratic form; no finite differences.
    """
    q = as_point(p)
    fac, u, v = _twist_coefficients(params, q)
    w = np.stack([u, v, np.ones_like(u)], axis=-1)
    g = np.einsum("...i,...j->...ij", w, w)
    inv2 = fac ** -2
    g[..., 0, 0] += inv2
    g[..., 1, 1] += inv2
    return g


def frame_at(params: ManifoldParams, p) -> np.ndarray:
    """Coordinate components of the orthonormal frame, shape (..., 3, 3).

    Row a holds the components of e_{a+1}.
    """
    q = as_point(p)
    fac, _, _ = _twist_coefficients(params, q)
    x, y = q[..., 0], q[..., 1]
    zero = np.zeros_like(fac)
    one = np.ones_like(fac)
    frame = np.stack(
        [
            np.stack([fac, zero, -0.5 * params.l * y], axis=-1),
            np.stack([zero, fac, 0.5 * params.l * x], axis=-1),
            np.stack([zero, zero, one], axis=-1),
        ],
        axis=-2,
    )
    return frame


def coframe_at(params: ManifoldParams, p) -> np.ndarray:
    """Coefficients of the dual coframe, shape (..., 3, 3); row a is theta^a."""
    q = as_point(p)
    fac, u, v = _twist_coefficients(params, q)
    zero = np.zeros_like(fac)
    one = np.ones_like(fac)
    return np.stack(
        [
            np.stack([1.0 / fac, zero, zero], axis=-1),
            np.stack([zero, 1.0 / fac, zero], axis=-1),
            np.stack([u, v, one], axis=-1),
        ],
        axis=-2,
    )


def to_frame_components(params: ManifoldParams, p, v_coord, out=None) -> np.ndarray:
    """Convert coordinate components of tangent vectors to frame components:
    the coframe contraction (v1 / F, v2 / F, v3 + (l/2)(y v1 - x v2) / F).

    The points and the vectors broadcast over their leading shape.  ``out``
    may be ``v_coord`` itself, converted in place with the same bits.
    """
    q = as_point(p)
    v = np.asarray(v_coord, dtype=float)
    fac = conformal_factor(params, q)
    if out is None:
        out = np.empty(np.broadcast_shapes(q.shape, v.shape))
    np.divide(v[..., 0], fac, out=out[..., 0])
    np.divide(v[..., 1], fac, out=out[..., 1])
    out[..., 2] = v[..., 2] + (0.5 * params.l) * (q[..., 1] * out[..., 0] - q[..., 0] * out[..., 1])
    return out


def to_coord_components(params: ManifoldParams, p, v_frame) -> np.ndarray:
    """Convert frame components of tangent vectors to coordinate components."""
    e = frame_at(params, p)
    return np.einsum("...a,...ak->...k", np.asarray(v_frame, dtype=float), e)


# ---------------------------------------------------------------------------
# Frame connection, brackets and curvature: closed-form tables
# ---------------------------------------------------------------------------


def connection_table(params: ManifoldParams, p) -> np.ndarray:
    """Frame connection coefficients G[..., a, b, c] = <nabla_{e_a} e_b, e_c>.

    Closed form, valid for every (m, l).  For the Heisenberg parameters the
    table is constant:

        nabla_{e1} e2 =  (1/2) e3,   nabla_{e1} e3 = -(1/2) e2,
        nabla_{e2} e1 = -(1/2) e3,   nabla_{e2} e3 =  (1/2) e1,
        nabla_{e3} e1 = -(1/2) e2,   nabla_{e3} e2 =  (1/2) e1,

    all other entries zero.  For general (m, l) the horizontal rows acquire
    the conformal terms 2mx, 2my and l/2 replaces 1/2.
    """
    q = as_point(p)
    m, l = params.m, params.l
    x, y = q[..., 0], q[..., 1]
    G = np.zeros(q.shape[:-1] + (3, 3, 3))
    hl = 0.5 * l
    G[..., 0, 0, 1] = 2.0 * m * y
    G[..., 0, 1, 0] = -2.0 * m * y
    G[..., 0, 1, 2] = hl
    G[..., 0, 2, 1] = -hl
    G[..., 1, 0, 1] = -2.0 * m * x
    G[..., 1, 0, 2] = -hl
    G[..., 1, 1, 0] = 2.0 * m * x
    G[..., 1, 2, 0] = hl
    G[..., 2, 0, 1] = -hl
    G[..., 2, 1, 0] = hl
    return G


def connection_term(params: ManifoldParams, p, X, V) -> np.ndarray:
    """Frame components of Gamma(X, V) = G[..., a, b, c] X^a V^b, written out
    from ``connection_table`` (frame indices 1-based):

        Gamma(X, V) = (l/2) X x V + (l X3 + 2m (x X2 - y X1)) (V2, -V1, 0).

    X, V and the points broadcast over their leading shape.  The cross
    product is written by components in ``np.cross``'s operation order, so
    the result is the same to the last bit.
    """
    q = as_point(p)
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    out = np.empty(np.broadcast_shapes(q.shape, X.shape, V.shape))
    for a, component in enumerate(_connection_components(params, q, X, V)):
        out[..., a] = component
    return out


def _connection_components(params: ManifoldParams, q: np.ndarray, X: np.ndarray, V: np.ndarray):
    """Yield the frame components a = 1, 2, 3 of ``connection_term`` (float
    arrays, points already checked), each in the same buffer, which the next
    one overwrites.  The operations are done in place but in the formula's
    order, so a caller may add each component into its own array with the
    bits of adding ``connection_term``, holding three (n,) temporaries."""
    m, l = params.m, params.l
    w = q[..., 0] * X[..., 1]
    w -= q[..., 1] * X[..., 0]
    w *= 2.0 * m
    w += l * X[..., 2]  # w = l X3 + 2m (x X2 - y X1)
    component = np.empty(np.broadcast_shapes(q.shape, X.shape, V.shape)[:-1])
    for i, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # (X x V)_i = X_a V_b - X_b V_a
        np.multiply(X[..., a], V[..., b], out=component)
        component -= X[..., b] * V[..., a]
        component *= 0.5 * l
        if i == 0:
            component += w * V[..., 1]
        elif i == 1:
            component -= w * V[..., 0]
        yield component


def bracket_table(params: ManifoldParams, p) -> np.ndarray:
    """Structure functions C[..., a, b, c] with [e_a, e_b] = C^c_ab e_c."""
    q = as_point(p)
    m, l = params.m, params.l
    x, y = q[..., 0], q[..., 1]
    C = np.zeros(q.shape[:-1] + (3, 3, 3))
    C[..., 0, 1, 0] = -2.0 * m * y
    C[..., 0, 1, 1] = 2.0 * m * x
    C[..., 0, 1, 2] = l
    C[..., 1, 0, :] = -C[..., 0, 1, :]
    return C


def curvature_table(params: ManifoldParams, p) -> np.ndarray:
    """R[..., a, b, c, d]: d-th frame component of R(e_a, e_b) e_c (exact).

    The metrics are homogeneous and the frame is adapted, so the table is
    the same at every point: the sectional curvatures of the frame planes
    are K(e1, e2) = R_1212 = 4m - 3l^2/4 and K(e1, e3) = K(e2, e3) = l^2/4,
    R_abba = -R_abab, and every component not fixed by these vanishes.  The
    constant table is broadcast over the leading shape of ``p``; the points
    are still checked against the chart (DomainError outside it).
    """
    fac = conformal_factor(params, p)
    quarter_l2 = 0.25 * params.l * params.l
    R = np.zeros((3, 3, 3, 3))
    planes = ((0, 1, 4.0 * params.m - 3.0 * quarter_l2), (0, 2, quarter_l2), (1, 2, quarter_l2))
    for a, b, K in planes:
        R[a, b, a, b] = R[b, a, b, a] = K
        R[a, b, b, a] = R[b, a, a, b] = -K
    return np.broadcast_to(R, fac.shape + R.shape)


def curvature_term(params: ManifoldParams, X, Y, Z) -> np.ndarray:
    """Frame components of R(X, Y) Z, written out from ``curvature_table``:

        R(X, Y) Z = lam (<X, Z> Y - <Y, Z> X)
                    - mu (<X_h, Z_h> Y_h - <Y_h, Z_h> X_h),

    with lam = l^2/4, mu = l^2 - 4m and X_h the (e1, e2) part of X: the
    constant-curvature form of K(e1, e3) = K(e2, e3) = lam, corrected on the
    (e1, e2) plane to K(e1, e2) = lam - mu.  X, Y and Z broadcast over their
    leading shape; the curvature does not depend on the point.
    """
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    lam = 0.25 * params.l * params.l
    mu = params.flatness
    xz_h = X[..., 0] * Z[..., 0] + X[..., 1] * Z[..., 1]
    yz_h = Y[..., 0] * Z[..., 0] + Y[..., 1] * Z[..., 1]
    xz = xz_h + X[..., 2] * Z[..., 2]
    yz = yz_h + Y[..., 2] * Z[..., 2]
    out = np.empty(np.broadcast_shapes(X.shape, Y.shape, Z.shape))
    out[..., 2] = lam * (xz * Y[..., 2] - yz * X[..., 2])
    xz = lam * xz - mu * xz_h  # the coefficients of Y_h and X_h
    yz = lam * yz - mu * yz_h
    out[..., 0] = xz * Y[..., 0] - yz * X[..., 0]
    out[..., 1] = xz * Y[..., 1] - yz * X[..., 1]
    return out


# ---------------------------------------------------------------------------
# Numeric cross-check route (finite differences through the frame brackets)
# ---------------------------------------------------------------------------

# 5-point central first-derivative stencil (offsets +-1, +-2), 4th order.
_FD5_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD5_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FRAME_STEP = 1e-4  # inner step, per unit of the largest frame coefficient
_TABLE_STEP = 1e-2  # outer step along the frame vectors

# Closed-form vs finite-difference agreement in ``cross_check``, for entries of
# size at most 1.  The numeric route's roundoff grows with what it differences:
# the connection's entries (l/2, 2m x, 2m y) and, for the curvature, terms of
# size max|G|^2 (the products G G, and 2m F, the derivative of 2m x along e1)
# that cancel to its constant entries.  So the tolerance scales by max(1,
# max|G|) for the connection and by its square for the curvature.
_NUMERIC_TOL = 1e-8
# Far from the origin the curvature's roundoff outgrows that: the frame
# stencil's relative roundoff eps / _FRAME_STEP on terms of size max(1, max|G|),
# differenced again at _TABLE_STEP along frame vectors of length up to max|E|.
# Measured on 7 000 random points (m in [-0.5, 2], |l| <= 4, |E| up to 2e9),
# the deviation stays below 1.4 eps max|E| max(1, max|G|) / (_FRAME_STEP
# _TABLE_STEP); eps |E|^2 alone would need a factor from 60 to 5e3 as |E|
# falls from 1e6 to 1e2.  The curvature tolerance is the larger of the two,
# this one with a margin of about 3.
_ROUNDOFF = 4.0 * float(np.finfo(float).eps) / (_FRAME_STEP * _TABLE_STEP)


def _fd5(f, q, directions, step) -> np.ndarray:
    """Derivatives of the table ``f`` at the points q along the rows of
    ``directions``, one step per point: out[..., i, *] = d/dt f(q + t d_i)."""
    step = np.asarray(step, dtype=float)
    scaled = step[..., None, None] * directions
    pts = np.stack([q[..., None, :] + o * scaled for o in _FD5_OFFSETS])
    out = np.einsum("s,s...->...", _FD5_WEIGHTS, f(pts))
    return out / step.reshape(step.shape + (1,) * (out.ndim - step.ndim))


def bracket_table_numeric(params: ManifoldParams, p) -> np.ndarray:
    """Structure functions C[..., a, b, c] from finite differences of the
    frame coefficients: [e_a, e_b]^k = e_a^i d_i e_b^k - e_b^i d_i e_a^k.

    The coefficients are polynomials of degree <= 2 in x and y, so the
    stencil has no truncation error on them and only roundoff, of size
    eps |E| / h, remains; the step h is 1e-4 times the largest frame
    coefficient at the point.
    """
    q = as_point(p)
    E = frame_at(params, q)
    h = _FRAME_STEP * np.abs(E).max(axis=(-2, -1))
    dE = _fd5(lambda pts: frame_at(params, pts), q, np.eye(3), h)  # dE[..., i, a, k]
    brk = np.einsum("...ai,...ibk->...abk", E, dE)
    return np.einsum("...abk,...ck->...abc", brk - brk.swapaxes(-3, -2), coframe_at(params, q))


def _koszul(C: np.ndarray) -> np.ndarray:
    """G_abc = (C_abc - C_bca + C_cab) / 2, the Koszul formula for an
    orthonormal frame with structure functions C."""
    return 0.5 * (C - np.einsum("...bca->...abc", C) + np.einsum("...cab->...abc", C))


def connection_table_numeric(params: ManifoldParams, p) -> np.ndarray:
    """Frame connection coefficients by the Koszul formula on the numeric
    brackets; independent of the closed-form tables."""
    return _koszul(bracket_table_numeric(params, p))


def curvature_table_numeric(params: ManifoldParams, p) -> np.ndarray:
    """Frame curvature components from the numeric connection table,
    differenced along the frame (package sign convention):

        R(e_a, e_b) e_c = -e_a(G_bc.) + e_b(G_ac.) - G_bce G_ae. + G_ace G_be.
                          + C_abf G_fc.

    The table is linear in x and y, so this stencil too sees only roundoff.
    A step t along e_a moves (x, y) by t F, a small fraction of the distance
    to the chart's edge (about F / (2 sqrt(-m)) for m < 0).
    """
    q = as_point(p)
    if q.ndim != 1:
        raise ValueError("numeric curvature path expects a single point")
    C = bracket_table_numeric(params, q)
    G = _koszul(C)
    E = frame_at(params, q)
    dG = _fd5(lambda pts: connection_table_numeric(params, pts), q, E, _TABLE_STEP)
    return (
        dG.swapaxes(0, 1)
        - dG
        - np.einsum("bce,aed->abcd", G, G)
        + np.einsum("ace,bed->abcd", G, G)
        + np.einsum("abf,fcd->abcd", C, G)
    )


def cross_check(params: ManifoldParams, p) -> tuple[float, float, float, float]:
    """The closed-form tables against the numeric route at one point: the
    largest deviation of the connection table and its tolerance, then the
    largest deviation of the curvature table and its tolerance."""
    q = as_point(p)
    G = connection_table(params, q)
    conn_dev = float(np.abs(G - connection_table_numeric(params, q)).max())
    curv_dev = float(np.abs(curvature_table(params, q) - curvature_table_numeric(params, q)).max())
    scale = max(1.0, float(np.abs(G).max()))
    reach = float(np.abs(frame_at(params, q)).max())
    curv_tol = max(_NUMERIC_TOL * scale * scale, _ROUNDOFF * reach * scale)
    return conn_dev, _NUMERIC_TOL * scale, curv_dev, curv_tol


# ---------------------------------------------------------------------------
# Tensor components and sectional curvature
# ---------------------------------------------------------------------------


def _check_index(*indices: int) -> None:
    for a in indices:
        if a not in (1, 2, 3):
            raise IndexError(f"frame index must be in {{1, 2, 3}}, got {a}")


def riemann_component(params: ManifoldParams, p, a: int, b: int, c: int, d: int) -> float:
    """R_abcd = <R(e_a, e_b) e_c, e_d> (1-based indices)."""
    _check_index(a, b, c, d)
    table = curvature_table(params, p)
    return float(table[..., a - 1, b - 1, c - 1, d - 1])


def ricci_component(params: ManifoldParams, p, a: int, b: int) -> float:
    """rho_ab = trace(Z -> R(e_a, Z) e_b) (1-based indices)."""
    _check_index(a, b)
    table = curvature_table(params, p)
    # rho(e_a, e_b) = sum_c <R(e_a, e_c) e_b, e_c>
    return float(np.trace(table[..., a - 1, :, b - 1, :]))


def sectional(params: ManifoldParams, p, X, Y) -> float:
    """Sectional curvature at p of the plane spanned by the frame vectors X
    and Y (components in e1, e2, e3).

    K = R(X, Y, X, Y) / (|X|^2 |Y|^2 - <X, Y>^2); raises DegeneratePlane when
    the denominator falls below 1e-12, and DomainError when p lies outside
    the chart.
    """
    x, y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    denom = float(x @ x) * float(y @ y) - float(x @ y) ** 2
    if denom < 1e-12:
        raise DegeneratePlane(f"plane spanned by X, Y is degenerate (denominator {denom:.3e})")
    table = curvature_table(params, p)
    num = float(np.einsum("a,b,c,d,abcd->", x, y, x, y, table))
    return num / denom


# ---------------------------------------------------------------------------
# Group operations (Heisenberg only)
# ---------------------------------------------------------------------------


def _require_heisenberg(params: ManifoldParams) -> None:
    if not params.is_heisenberg:
        raise UnsupportedManifold(
            f"group operations are defined only for (m, l) = (0, 1), got "
            f"({params.m}, {params.l})"
        )


def left_translate(params: ManifoldParams, g, p) -> np.ndarray:
    """Group product L_g(p) = g * p of the Heisenberg multiplication

        (gx, gy, gz) (x, y, z) = (gx + x, gy + y, gz + z + (gx y - gy x) / 2).
    """
    _require_heisenberg(params)
    gq = as_point(g)
    q = as_point(p)
    out = np.empty(np.broadcast_shapes(gq.shape, q.shape))
    out[..., 0] = gq[..., 0] + q[..., 0]
    out[..., 1] = gq[..., 1] + q[..., 1]
    out[..., 2] = (
        gq[..., 2]
        + q[..., 2]
        + 0.5 * (gq[..., 0] * q[..., 1] - gq[..., 1] * q[..., 0])
    )
    return out


def left_translate_velocity(params: ManifoldParams, g, v_coord) -> np.ndarray:
    """Push a coordinate-basis velocity forward along L_g.

    The differential of L_g is constant in these coordinates:
    (vx, vy, vz) -> (vx, vy, vz + (gx vy - gy vx) / 2).  Frame components are
    unchanged (the frame is left-invariant).
    """
    _require_heisenberg(params)
    gq = as_point(g)
    v = np.asarray(v_coord, dtype=float)
    out = np.array(v, copy=True)
    out[..., 2] = v[..., 2] + 0.5 * (gq[..., 0] * v[..., 1] - gq[..., 1] * v[..., 0])
    return out


# ---------------------------------------------------------------------------
# Reference tables for the Heisenberg parameters (used by tests and the CLI)
# ---------------------------------------------------------------------------


def h3_connection_reference() -> np.ndarray:
    """The constant H3 connection table G[a, b, c] = <nabla_{e_a} e_b, e_c>."""
    G = np.zeros((3, 3, 3))
    G[0, 1, 2] = 0.5
    G[0, 2, 1] = -0.5
    G[1, 0, 2] = -0.5
    G[1, 2, 0] = 0.5
    G[2, 0, 1] = -0.5
    G[2, 1, 0] = 0.5
    return G


def h3_riemann_reference() -> dict[tuple[int, int, int, int], float]:
    """Nonvanishing H3 components R_abcd with a < b, c < d (1-based keys)."""
    return {(1, 2, 1, 2): -0.75, (1, 3, 1, 3): 0.25, (2, 3, 2, 3): 0.25}


def h3_ricci_reference() -> dict[tuple[int, int], float]:
    return {(1, 1): -0.5, (2, 2): -0.5, (3, 3): 0.5}
