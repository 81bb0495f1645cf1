"""Curves, arclength sampling, covariant differentiation and Frenet data.

Curves are always parametrized by arclength.  A curve is a sampler, which
gives the points and the frame velocities on a grid of arclengths together,
from closed formulas or from an integrator; ``sample_curve`` evaluates it on
n uniform samples.  Imported (s, x, y, z) rows, with optional velocities,
are samples already: ``import_samples`` checks them and differences the
positions where the rows carry no velocities.  Both routes give
``CurveSamples``.

Velocities are carried in components of the left-invariant orthonormal
frame; these are unchanged under left translations, which makes Frenet data
manifestly translation-invariant.

Torsion sign convention: the Frenet system used throughout is

    nabla_T T =  k N,
    nabla_T N = -k T - tau B,
    nabla_T B =  tau N,

with k >= 0 and B = T x N in the oriented frame.  Note the sign of tau is
opposite to the convention common in the Euclidean literature.  tau is
invariant under flipping the sign of N (B flips along with it), so the
measured torsion does not depend on the orientation choice for N.
"""

from __future__ import annotations

import functools
import json
import math
import re
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, NoReturn, Optional

import numpy as np

from . import __version__
from . import manifold as mf
from .errors import (
    BasePointMismatch,
    MalformedSampleFile,
    NonFiniteVelocity,
    NonMonotone,
    NonUnitSpeed,
    TooFewSamples,
)
from .manifold import FrameVector, ManifoldParams
from .numerics import (
    DEFAULT_CONFIG,
    STENCIL_ORDER,
    NumericsConfig,
    derivative_on_grid,
    interior_slice,
    tiles,
)

__all__ = [
    "CurveSpec",
    "CurveSamples",
    "FrenetSeries",
    "sample_curve",
    "covariant_derivative_along",
    "frenet_apparatus",
    "frame_cross",
    "left_translate_curve",
    "left_translate_samples",
    "import_samples",
    "write_samples_csv",
    "read_samples_csv",
    "frenet_to_json",
    "write_frenet_json",
]


@dataclass(frozen=True)
class CurveSpec:
    """A parametrized curve on one manifold of the family, given by its
    sampler: sampler(s_grid) -> (points, frame_velocities), (n, 3) arrays
    each.

    A curve known in coordinates converts its coordinate velocity with
    ``manifold.to_frame_components`` inside its sampler.  ``family`` carries
    the serializable constructor parameters, when the curve came from one of
    the factory families.  Imported rows are samples, not curves: see
    ``import_samples``.
    """

    manifold: ManifoldParams
    s_range: tuple[float, float]
    sampler: Callable
    family: dict = field(default_factory=dict)


@dataclass
class CurveSamples:
    """Uniform arclength samples of a curve (struct-of-arrays layout).

    Every consumer takes its ``derivative``, ``interior``, ``tiles`` and
    worst interior sample (``interior_max``) from the samples; past them,
    only ``numerics`` knows the stencil's reach.
    ``velocity_depth`` counts derivative passes already spent producing the
    velocities: 0 for analytic / ODE-state velocities, 1 when they were
    differenced from imported positions.  Interior masks widen accordingly,
    so boundary-stencil contamination never enters pass/fail statistics.
    ``ds`` is the curve's one step, s[1] - s[0] unless given: a tile of the
    curve keeps it, as its own first step may differ in the last bits.
    """

    manifold: ManifoldParams
    s: np.ndarray               # (n,)
    points: np.ndarray          # (n, 3) coordinates
    velocity_frame: np.ndarray  # (n, 3) frame components, unit rows
    velocity_depth: int = 0
    ds: float | None = None

    def __post_init__(self):
        if self.ds is None:
            self.ds = float(self.s[1] - self.s[0])

    @property
    def n(self) -> int:
        return len(self.s)

    def velocity_coord(self) -> np.ndarray:
        return mf.to_coord_components(self.manifold, self.points, self.velocity_frame)

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """d/ds of per-sample ``values`` (or of a window of them) along axis 0."""
        return derivative_on_grid(values, self.ds)

    def interior(self, depth: int = 1) -> slice:
        """Samples clear of one-sided stencils after ``depth`` more passes."""
        return interior_slice(self.n, depth + self.velocity_depth)

    def tiles(self, depth: int):
        """``numerics.tiles`` for a chain of ``depth`` nested passes: yields
        ``(tile, window, rows, inner)``, where ``rows`` are the tile's rows
        and ``inner`` its rows in ``interior(depth)``, both in the window.
        Raises ``TooFewSamples`` when there is no interior."""
        interior = self.interior(depth)
        for tile, window, rows in tiles(self.n, depth):
            inner = slice(max(interior.start, tile.start) - window.start,
                          min(interior.stop, tile.stop) - window.start)
            yield tile, window, rows, inner

    def interior_max(self, residual, depth: int) -> tuple[float, int]:
        """The largest per-sample ``residual(window)`` on ``interior(depth)``
        and its sample, one window of ``tiles(depth)`` at a time: the first
        NaN if there is one, else the first largest value.  No temporary
        spans the curve, and the value has the bits of the whole maximum."""
        worst = at = None
        for _, window, _, inner in self.tiles(depth):
            r = residual(window)[inner]
            i = int(np.argmax(r))  # the first NaN, if there is one
            if at is None or not r[i] <= worst:
                worst, at = float(r[i]), window.start + inner.start + i
            if math.isnan(worst):
                break
        return worst, at


def _finite_range(s_range: tuple[float, float]) -> tuple[float, float]:
    """``s_range`` as two floats; ValueError unless both are finite.  The
    curve builders check it before they evaluate anything at s_range[0]."""
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"s_range must be finite, got ({s0!r}, {s1!r})")
    return s0, s1


def _uniform_grid(s_range: tuple[float, float], n: int) -> np.ndarray:
    s0, s1 = _finite_range(s_range)
    if not s1 > s0:
        raise ValueError("s_range must be increasing")
    return np.linspace(s0, s1, n)


def _speed_deviation(samples: CurveSamples) -> tuple[float, int]:
    """The largest | |v| - 1 | on ``samples.interior(0)`` and its sample."""
    vel = samples.velocity_frame  # |v| a tile at a time, without an (n, 3) temporary
    return samples.interior_max(lambda w: np.abs(np.linalg.norm(vel[w], axis=1) - 1.0), 0)


def _validate_unit_speed(samples: CurveSamples, config: NumericsConfig) -> None:
    """Unit speed on ``samples.interior(0)``: every row of given velocities,
    and the rows clear of one-sided stencils where they were differenced."""
    dev, worst = _speed_deviation(samples)
    if not dev <= config.unit_speed_tol:
        raise NonUnitSpeed(
            f"|velocity| deviates from 1 by {dev:.3e} at sample "
            f"{worst} (tolerance {config.unit_speed_tol:.1e})"
        )


def _check_uniform_s(s: np.ndarray) -> float:
    finite = np.isfinite(s)
    if not finite.all():  # NaN would pass both comparisons below
        raise NonMonotone(f"arclength not finite at row {int(np.argmin(finite))}")
    steps = np.diff(s)
    if np.any(steps <= 0.0):
        bad = int(np.argmax(steps <= 0.0))
        raise NonMonotone(f"arclength not strictly increasing at row {bad + 1}")
    mean = float(steps.mean())
    jitter = np.abs(steps - mean)
    if jitter.max() > 1e-9 * max(1.0, abs(mean)):
        bad = int(np.argmax(jitter))
        raise NonMonotone(
            f"non-uniform arclength spacing at row {bad + 1}: step {steps[bad]:.12g}"
            f" vs mean {mean:.12g}"
        )
    return mean


def sample_curve(
    spec: CurveSpec, n: int, config: NumericsConfig = DEFAULT_CONFIG
) -> CurveSamples:
    """Evaluate ``n`` uniform arclength samples of a curve with its sampler.

    Unit speed is enforced at every sample.
    """
    if n < 9:
        raise TooFewSamples(f"need n >= 9 samples, got {n}")
    s = _uniform_grid(spec.s_range, n)
    points, vel = spec.sampler(s)
    points = np.asarray(points, dtype=float)
    vel = np.asarray(vel, dtype=float)

    samples = CurveSamples(spec.manifold, s, points, vel)
    _validate_unit_speed(samples, config)
    return samples


def import_samples(
    manifold: ManifoldParams,
    s: np.ndarray,
    points: np.ndarray,
    velocity_frame: np.ndarray | None = None,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> CurveSamples:
    """Imported rows as samples: arclengths ``s`` (n,), coordinates
    ``points`` (n, 3) and, optionally, frame velocities (n, 3).

    Without velocities, they are central differences of the positions,
    converted to frame components in place.
    Unit speed is enforced on the interior samples; boundary samples of
    differentiated positions use one-sided stencils and are excluded from
    the check.  Raises ValueError for other shapes or n < 2, NonMonotone for
    arclengths that are not finite, strictly increasing and uniform, and
    TooFewSamples for fewer than 9 positions to differentiate.
    """
    s = np.asarray(s, dtype=float)
    points = np.asarray(points, dtype=float)
    vel = None if velocity_frame is None else np.asarray(velocity_frame, dtype=float)
    n = len(s) if s.ndim == 1 else 0
    if n < 2 or points.shape != (n, 3) or (vel is not None and vel.shape != (n, 3)):
        shapes = f"s {s.shape}, points {points.shape}"
        if vel is not None:
            shapes += f", velocities {vel.shape}"
        raise ValueError(f"imported samples need s (n,), n >= 2, and (n, 3) arrays; got {shapes}")
    _check_uniform_s(s)
    if vel is None:
        if n < 9:
            raise TooFewSamples("need at least 9 samples to differentiate positions")
        vel = derivative_on_grid(points, float(s[1] - s[0]))
        mf.to_frame_components(manifold, points, vel, out=vel)
    samples = CurveSamples(manifold, s, points, vel, velocity_depth=int(velocity_frame is None))
    _validate_unit_speed(samples, config)
    return samples


def covariant_derivative_along(samples: CurveSamples, field: np.ndarray) -> np.ndarray:
    """nabla_T V along the curve for a field V given in frame components.

    Componentwise arclength derivative (``samples.derivative``) plus
    the connection correction contracted with the velocity:

        (nabla_T V)^a = dV^a/ds + Gamma_ij^a T^i V^j.

    For the metric (m, l) at the point (x, y, z) the correction is, in
    1-based frame components (``manifold.connection_term``),

        Gamma(T, V) = (l/2) T x V + (l T3 + 2m (x T2 - y T1)) (V2, -V1, 0).

    On the Heisenberg group this reduces to the familiar component formula
    (V1' + (T2 V3 + T3 V2)/2, V2' - (T1 V3 + T3 V1)/2, V3' + (T1 V2 - T2 V1)/2).
    Boundary samples use one-sided stencils.  The correction is added into
    the derivative one component at a time, with the bits of adding
    ``connection_term``.
    """
    V = np.asarray(field, dtype=float)
    if V.shape != samples.points.shape:
        raise ValueError("field must provide frame components at every sample")
    dV = samples.derivative(V)
    q = mf.as_point(samples.points)
    T = np.asarray(samples.velocity_frame, dtype=float)
    for a, component in enumerate(mf._connection_components(samples.manifold, q, T, V)):
        dV[:, a] += component
    return dV


def frame_cross(X: FrameVector, Y: FrameVector) -> FrameVector:
    """Cross product in the oriented orthonormal frame (e1 x e2 = e3)."""
    if not np.allclose(X.base, Y.base, rtol=0.0, atol=1e-12):
        raise BasePointMismatch("cross product needs a common base point")
    return FrameVector(X.base, np.cross(X.components, Y.components))


@dataclass
class FrenetSeries:
    """Frenet apparatus along a sampled curve.

    ``samples`` is the curve the series was computed from: its grid, points
    and T = ``samples.velocity_frame`` are read there, not copied.  Where
    the geodesic curvature k falls to the floor the normal direction is
    numerically meaningless; there, and where the stencil of nabla_T N
    reaches such a sample, N, B and tau are NaN and ``defined`` is False
    rather than reporting zeros.  ``t1`` = nabla_T T (= k N, defined
    on geodesics too) is kept by ``frenet_apparatus`` for the tension
    passes; a series assembled from tiles (``analysis.bitension_report``)
    does not keep it.
    """

    samples: CurveSamples
    k: np.ndarray          # (n,) |nabla_T T|
    N: np.ndarray          # (n, 3), NaN where undefined
    B: np.ndarray          # (n, 3), NaN where undefined
    tau: np.ndarray        # (n,), NaN where undefined
    defined: np.ndarray    # (n,) bool
    t1: np.ndarray | None = None  # (n, 3)

    @property
    def T3(self) -> np.ndarray:
        return self.samples.velocity_frame[:, 2]

    @property
    def N3(self) -> np.ndarray:
        return self.N[:, 2]

    @property
    def B3(self) -> np.ndarray:
        return self.B[:, 2]


def frenet_apparatus(
    samples: CurveSamples, config: NumericsConfig = DEFAULT_CONFIG
) -> FrenetSeries:
    """T, N, B, k, tau and the third frame components along the curve.

    T is the sampled velocity; k = |nabla_T T|; N = nabla_T T / k wherever
    k exceeds the configured floor; B = T x N; tau = -<nabla_T N, B>.  The
    frame is ``defined`` where tau exists: k clears the floor there and on
    every sample the stencil of nabla_T N reaches.
    ``analysis.bitension_report`` and ``analysis.verdict_series`` run it once
    per tile of the curve.
    """
    T = samples.velocity_frame
    t1 = covariant_derivative_along(samples, T)
    k = np.linalg.norm(t1, axis=1)
    defined = k > config.k_floor

    N = np.full_like(T, np.nan)
    np.divide(t1, k[:, None], out=N, where=defined[:, None])
    # B = T x N by components in np.cross's operation order (the same bits),
    # without the copies np.cross makes of T and N
    B = np.empty_like(T)
    for i, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # B_i = T_a N_b - T_b N_a
        np.multiply(T[:, a], N[:, b], out=B[:, i])
        B[:, i] -= T[:, b] * N[:, a]
    dN = covariant_derivative_along(samples, N) if defined.any() else np.full_like(T, np.nan)
    tau = -np.einsum("ni,ni->n", dN, B)
    defined = ~np.isnan(tau)  # also false where nabla_T N reaches an undefined N
    N[~defined] = np.nan
    B[~defined] = np.nan

    return FrenetSeries(samples, k=k, N=N, B=B, tau=tau, defined=defined, t1=t1)


# ---------------------------------------------------------------------------
# Left translation of whole curves
# ---------------------------------------------------------------------------


def left_translate_samples(g, samples: CurveSamples) -> CurveSamples:
    """Translate sampled data; frame velocities are untouched by design."""
    pts = mf.left_translate(samples.manifold, g, samples.points)
    return CurveSamples(
        samples.manifold, np.array(samples.s, copy=True), pts,
        np.array(samples.velocity_frame, copy=True),
        velocity_depth=samples.velocity_depth, ds=samples.ds,
    )


def left_translate_curve(g, spec: CurveSpec) -> CurveSpec:
    """The curve s -> L_g(gamma(s)) on the Heisenberg group.

    The frame velocities are unchanged.  ``family`` records the whole
    translation from the untranslated curve in ``translated_by``, so that
    ``factory.load_curve_params`` can rebuild the moved curve.
    """
    params = spec.manifold
    g_arr = mf.as_point(g)
    # Raise UnsupportedManifold early for (m, l) != (0, 1).
    mf.left_translate(params, g_arr, np.zeros(3))
    total = g_arr
    if "translated_by" in spec.family:  # L_g L_h = L_{g h}
        total = mf.left_translate(params, g_arr, spec.family["translated_by"])
    family = {**spec.family, "translated_by": list(map(float, total))}
    base_sampler = spec.sampler

    def sampler(s_grid):
        pts, vel = base_sampler(s_grid)
        return mf.left_translate(params, g_arr, pts), vel

    return replace(spec, sampler=sampler, family=family)


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------


_ROWS_PER_WRITE = 8192  # rows of a per-sample file laid out and written at once

# ``%.17g`` in numpy.  Each entry of magnitude 1e-280 to 1e280 becomes D * 10**(X - 16),
# D a 17-digit integer rounded from a double-double product; ±0, subnormals, larger
# and smaller magnitudes, nan, inf and rounding near-ties go through ``%`` itself.
# An entry's text is laid out in a row of 48 bytes:
#
#   0 sign | 1-5 "0.000" | 6-22 the 17 digits | 23 "." | 24-40 the 17 digits again |
#   41 "e" | 42 exponent sign | 43-45 three exponent digits | 46 "," | 47 unused
#
# The integer part comes from the first copy of the digits and the fraction from the
# second, so no digit moves to make room for the point.  A keep mask per (layout,
# sign, significant digits) zeroes the bytes the text does not use, and deleting the
# zero bytes leaves the text.
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_X_MAX = 282  # |X| on the fast route: 280, one step of correction and a carry
_POW_MIN, _POW_MAX = 16 - _X_MAX, 16 + _X_MAX  # the 10**k that scale to 17 digits
_NEAR_TIE = 1e-9  # far above the product's error (about 1e-14 at the 1e17 scale)
_ROW_BYTES = 48
_ROW = np.dtype({
    "names": ["int_lead", "int_rest", "frac_lead", "frac_rest", "exponent"],
    "formats": ["u1", "V16", "u1", "V16", "u4"],
    "offsets": [6, 7, 24, 25, 42],
    "itemsize": _ROW_BYTES,
})
_ROW_TEMPLATE = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,\0"
# Layouts: fixed notation for X = -4 .. 16, then scientific with two and three
# exponent digits.
_FIXED_LAYOUTS = 21
_LAYOUTS = _FIXED_LAYOUTS + 2


class _TextTables(NamedTuple):
    pow_hi: np.ndarray       # 10**k rounded, k = _POW_MIN .. _POW_MAX
    pow_hi_halves: np.ndarray  # (2, k): its Dekker halves
    pow_lo: np.ndarray       # 10**k - pow_hi, rounded
    digits4: np.ndarray      # uint32: the four ASCII digits of 0 .. 9999
    zeros4: np.ndarray       # trailing zeros of those four digits
    exponent: np.ndarray     # uint32: exponent sign and three digits, for X + _X_MAX
    keep: np.ndarray         # (keys, 6) uint64 byte masks of a row


@functools.cache
def _text_tables() -> _TextTables:
    """The kernel's tables, built on first use from exact integer arithmetic."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        rounded = num / den  # int / int rounds correctly
        a, b = rounded.as_integer_ratio()
        hi.append(rounded)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)

    d = np.arange(10000)
    digits = (48 + d[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    zeros = np.where(d == 0, 4, (d % 10 == 0) * 1 + (d % 100 == 0) + (d % 1000 == 0))
    x = np.arange(-_X_MAX, _X_MAX + 1)
    e = np.abs(x)
    exponent = np.column_stack(
        [np.where(x < 0, ord("-"), ord("+")), 48 + e // 100, 48 + e // 10 % 10, 48 + e % 10]
    ).astype(np.uint8)

    # key = (layout * 2 + negative) * 18 + significant digits (1 .. 17)
    layout, negative, nd = (v[..., None] for v in np.indices((_LAYOUTS, 2, 18)))
    byte = np.arange(_ROW_BYTES)
    fixed = layout < _FIXED_LAYOUTS
    X = layout - 4
    lead = np.where(fixed, np.maximum(X + 1, 0), 1)  # digits before the point
    prefix = np.where(fixed & (X < 0), 1 - X, 0)  # "0." and the zeros after it
    keep = (
        ((byte == 0) & (negative == 1))
        | ((1 <= byte) & (byte < 1 + prefix))
        | ((6 <= byte) & (byte < 6 + lead))
        | ((byte == 23) & (0 < lead) & (lead < nd))
        | ((24 + lead <= byte) & (byte < 24 + nd))
        | (~fixed & (41 <= byte) & (byte < 46) & ((byte != 43) | (layout == _LAYOUTS - 1)))
        | (byte == 46)
    )
    return _TextTables(
        pow_hi=hi,
        pow_hi_halves=np.stack([hi_hi, hi - hi_hi]),
        pow_lo=np.array(lo),
        digits4=digits.view(np.uint32).ravel(),
        zeros4=zeros,
        exponent=exponent.view(np.uint32).ravel(),
        keep=(keep * np.uint8(255)).reshape(-1, _ROW_BYTES).view(np.uint64),
    )


def _scaled(tables: _TextTables, x: np.ndarray, k: np.ndarray):
    """x * 10**k as p + r, p the rounded product and r the rest, with an error
    below 1e-14 for a product near 1e17.  TwoProduct with Dekker's split
    makes x * pow_hi exact; x * pow_lo adds the rest of 10**k."""
    i = k - _POW_MIN
    p = x * np.take(tables.pow_hi, i)
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    h_hi, h_lo = np.take(tables.pow_hi_halves[0], i), np.take(tables.pow_hi_halves[1], i)
    r = ((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo
    r += x * np.take(tables.pow_lo, i)
    return p, r


def _percent_17g_rows(a: np.ndarray, out: np.ndarray) -> None:
    """Lay out the ``%.17g`` text of each entry of ``a``, followed by a comma,
    in one row of the (len(a), 48) uint8 array ``out``, whose rows may be
    strided; the bytes the text does not use are zero."""
    tables = _text_tables()
    n = len(a)
    ax = np.abs(a)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax[~fast] = 1.0
    # X = floor(log10 |a|), corrected where log10 rounds across a power of ten.  A
    # product within its error of 1e16 or 1e17 may land on either side; both sides
    # round to the same text.
    X = np.floor(np.log10(ax)).astype(np.int64)
    p, r = _scaled(tables, ax, 16 - X)
    low = (p < 1e16) | ((p == 1e16) & (r < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0.0))
    fix = np.flatnonzero(low | high)
    if len(fix):
        X[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], r[fix] = _scaled(tables, ax[fix], 16 - X[fix])
    # D = round(p + r); p is an integer here, as every double >= 2**53 is
    whole = np.floor(r)
    r -= whole
    D = p.astype(np.int64)
    D += whole.astype(np.int64)
    D += r > 0.5
    fast &= (np.abs(r - 0.5) > _NEAR_TIE) & (D >= 10**16) & (D <= 10**17)
    carry = D == 10**17
    D[carry] = 10**16
    X += carry

    lead, rest = np.divmod(D, 10**16)
    high8, low8 = np.divmod(rest, 10**8)
    groups = np.empty((n, 4), dtype=np.int64)
    np.divmod(high8, 10000, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low8, 10000, out=(groups[:, 2], groups[:, 3]))
    nd = 17 - np.take(tables.zeros4, groups[:, 3])
    for i in 2, 1, 0:  # after a group of four zeros, count on in the group before it
        more = np.flatnonzero(nd == 17 - 4 * (3 - i))
        if not len(more):
            break
        nd[more] -= np.take(tables.zeros4, groups[more, i])

    layout = np.where(
        (X < -4) | (X >= 17), _FIXED_LAYOUTS + (np.abs(X) >= 100), X + 4
    )
    key = (layout * 2 + np.signbit(a)) * 18 + nd
    out[...] = _row_of(_ROW_TEMPLATE)
    row = out.view(_ROW)[:, 0]
    digits = np.take(tables.digits4, groups).view("V16").ravel()
    row["int_lead"] = row["frac_lead"] = lead + 48
    row["int_rest"] = row["frac_rest"] = digits
    row["exponent"] = np.take(tables.exponent, X + _X_MAX)
    words = out.view(np.uint64)
    words &= np.take(tables.keep, key, axis=0)

    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array(["%.17g," % v for v in a[slow].tolist()], dtype=f"S{_ROW_BYTES}")
        words[slow] = text.view(np.uint64).reshape(len(slow), -1)


def _row_of(text: bytes) -> np.ndarray:
    """``text`` as one 48-byte row, padded with zero bytes."""
    return np.frombuffer(text.ljust(_ROW_BYTES, b"\0"), dtype=np.uint8)


def _pack(rows: np.ndarray) -> bytes:
    """The text laid out in ``rows``: their bytes without the zero bytes."""
    return rows.tobytes().translate(None, b"\0")


_SHARED_TEXT: ContextVar[list | None] = ContextVar("heiscurves_shared_text", default=None)


@contextmanager
def _shared_text():
    """Inside the block ``write_samples_csv`` keeps the packed text of each
    column, one bytes object per block of rows, under its ``CurveSamples``
    and the column's header name, and ``_frenet_json_parts`` writes the text
    kept for ``frenet.samples`` (found by identity) again instead of
    formatting s, the points and T.  The samples must not change inside the
    block."""
    token = _SHARED_TEXT.set([])
    try:
        yield
    finally:
        _SHARED_TEXT.reset(token)


def _text(a) -> str:
    """The ``%.17g`` text of each entry of the 1-D array ``a`` (a lossless
    round trip), comma-separated: the str form of the kernel that formats
    every number of the per-sample files."""
    a = np.asarray(a, dtype=float)
    rows = np.empty((len(a), _ROW_BYTES), dtype=np.uint8)
    _percent_17g_rows(a, rows)
    return _pack(rows)[:-1].decode("ascii")


def _write_table(path, header, columns, keep: dict | None = None) -> None:
    """Write ``header`` and one row per sample of the 1-D ``columns``, each
    field the kernel's ``%.17g`` text, each line ended by ``\\r\\n``; a
    ``None`` column leaves its field empty.  The columns' rows are laid out
    side by side and written ``_ROWS_PER_WRITE`` lines at a time.  With
    ``keep``, the packed text of each column goes to the list under its
    header name there, one bytes object per block."""
    columns = [None if c is None else np.asarray(c, dtype=float) for c in columns]
    kept = None if keep is None else [keep.setdefault(name, []) for name in header]
    n = len(next(c for c in columns if c is not None))
    layout = np.empty((min(n, _ROWS_PER_WRITE), len(columns), _ROW_BYTES), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for start in range(0, n, _ROWS_PER_WRITE):
            rows = layout[: n - start]
            for j, column in enumerate(columns):
                if column is None:
                    rows[:, j] = _row_of(b",")
                    continue
                _percent_17g_rows(column[start : start + len(rows)], rows[:, j])
                if kept is not None:
                    kept[j].append(_pack(rows[:, j]))
            last = rows[:, -1]
            last[last == ord(",")] = ord("\r")  # a field from ``%`` ends before byte 46
            last[:, -1] = ord("\n")
            fh.write(_pack(rows))


def write_samples_csv(path, samples: CurveSamples, include_velocity: bool = False) -> None:
    """Write rows ``s,x,y,z`` (plus frame components ``vx,vy,vz`` on request);
    inside ``_shared_text`` each column's text is kept for ``write_frenet_json``."""
    width = 7 if include_velocity else 4
    columns = [samples.s, *samples.points.T, *samples.velocity_frame.T]
    shared, keep = _SHARED_TEXT.get(), None
    if shared is not None:
        shared.append((samples, keep := {}))
    _write_table(path, ["s", "x", "y", "z", "vx", "vy", "vz"][:width], columns[:width], keep)


def _loadtxt_float(text: str) -> float:
    """``float(text)`` restricted to what ``np.loadtxt`` parses: Python's
    ``float`` also takes digit underscores (``1_0``) and non-ASCII digits."""
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(core)


def _raise_bad_line(path, cols: list[str], cause: str) -> NoReturn:
    """Name the first data line with an unparseable number, other than
    ``len(cols)`` fields, or a ``nan`` or ``inf`` (with its sample and
    column; ``NonFiniteVelocity`` in a velocity column).  Empty lines are
    skipped, as the reader skips them."""
    with open(path) as fh:
        sample = -1
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if lineno == 1 or fields == [""]:
                continue
            sample += 1
            try:
                values = [_loadtxt_float(text) for text in fields]
            except ValueError as exc:
                raise MalformedSampleFile(f"unparseable number at line {lineno}: {exc}") from None
            if len(fields) != len(cols):
                raise MalformedSampleFile(
                    f"line {lineno} has {len(fields)} fields, header {len(cols)}"
                )
            for name, value in zip(cols, values):
                if not math.isfinite(value):
                    error = NonFiniteVelocity if name in ("vx", "vy", "vz") else MalformedSampleFile
                    raise error(
                        f"non-finite value {value!r} at line {lineno} (sample {sample}), "
                        f"column {name}"
                    )
    raise MalformedSampleFile(f"unreadable data rows: {cause}")


def _header_columns(header: str) -> list[str]:
    """The columns of a sample file's header line, which must name them."""
    cols = [c.strip().lower() for c in header.split(",")]
    if cols not in (["s", "x", "y", "z"], ["s", "x", "y", "z", "vx", "vy", "vz"]):
        raise MalformedSampleFile(f"unexpected header {header.strip()!r}; need s,x,y,z[,vx,vy,vz]")
    return cols


_NUMBER_BYTES = b"0123456789+-.eE \t"  # deleted by the row check, with JSON's blanks
_BLOCK_BYTES = 1 << 15  # bytes per block of rows parsed at once, plus the rest of a line
_INT_NEG_ZERO = re.compile(rb"-0(?=[,\s])(?<![eE]-0)")  # the integer -0: orjson reads 0


def _json_list(block: bytes) -> bytes:
    """Lines of comma-separated numbers as one JSON list."""
    return b"[" + block[:-1].replace(b"\n", b",") + b"]"


def _read_json_rows(fh, width: int) -> np.ndarray | None:
    """The rows after the header of the binary file ``fh`` as an (n, width)
    array, parsed by orjson; None, for ``np.loadtxt`` to read the file, when
    orjson cannot be imported or a block of lines is not plain rows of
    ``width`` JSON numbers.  JSON numbers (no ``.5``, ``1.``, ``+1``, ``01``
    or ``1e400``) are a subset of what ``np.loadtxt`` reads, and orjson
    rounds each correctly, as ``float`` does.

    The lines are counted first, so the array is the one allocation that
    spans the file; each block of whole lines is checked and parsed alone.
    """
    try:
        import orjson
    except ImportError:
        return None
    start, lines, tail = fh.tell(), 0, b"\n"
    while part := fh.read(_BLOCK_BYTES):
        lines, tail = lines + part.count(b"\n"), part[-1:]
    data = np.empty((lines + (tail != b"\n"), width))  # the last line may lack its newline
    flat, at = data.reshape(-1), 0
    fh.seek(start)
    while block := fh.read(_BLOCK_BYTES):
        block += fh.readline()  # whole lines
        if not block.endswith(b"\n"):  # the last line, ended as the others are
            block += b"\r\n" if b"\r" in block else b"\n"
        # one pass proves every line's width and keeps quotes, letters,
        # blank lines and non-ASCII bytes out; a lone "\r" ends a line in
        # text mode, so the rows end all in "\n" or all in "\r\n"
        commas = block.translate(None, _NUMBER_BYTES)
        row = b"," * (width - 1) + (b"\r\n" if commas.endswith(b"\r\n") else b"\n")
        rows = len(commas) // len(row)
        if commas != row * rows:
            return None
        count = rows * width
        try:
            values = np.fromiter(orjson.loads(_json_list(block)), float, count)
            if not values.all() and _INT_NEG_ZERO.search(block):
                block = _INT_NEG_ZERO.sub(b"-0.0", block)
                values = np.fromiter(orjson.loads(_json_list(block)), float, count)
        except orjson.JSONDecodeError:
            return None
        flat[at:at + count] = values
        at += count
    return data


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Parse a ``s,x,y,z[,vx,vy,vz]`` file into ``(s, points, velocities)``,
    the velocities None without their columns: the arguments of
    ``import_samples`` after the manifold.

    Skips empty lines.  Raises MalformedSampleFile for a bad header, fewer
    than two data rows, or a row that is unparseable, not as wide as the
    header or holds a ``nan`` or ``inf`` (naming its line).

    Plain rows of JSON numbers are parsed by orjson when it can be imported
    (``_read_json_rows``); every other file, and every file without orjson,
    is read by ``np.loadtxt``.  Both give the same bits, since both round
    each number's text correctly.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        data = None
        if header.isascii() and b"\r" not in header.removesuffix(b"\r\n"):  # as text mode reads it
            cols = _header_columns(header.decode("ascii"))
            data = _read_json_rows(fh, len(cols))
    if data is None:
        with open(path) as fh:
            cols = _header_columns(fh.readline())
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # an empty body is reported below
                    data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                _raise_bad_line(path, cols, str(exc))
    if data.shape[0] < 2:
        raise MalformedSampleFile("need at least two data rows")
    if data.shape[1] != len(cols):
        _raise_bad_line(path, cols, f"rows have {data.shape[1]} fields")
    if not np.isfinite(data).all():
        _raise_bad_line(path, cols, "non-finite values")
    vel = data[:, 4:] if len(cols) == 7 else None
    return data[:, 0], data[:, 1:4], vel


def _json_items(a: np.ndarray, rows: np.ndarray, kept: list[bytes] | None):
    """The items of the JSON list of the 1-D series ``a``, each followed by a
    comma, as one bytes object per block of ``_ROWS_PER_WRITE``: ``true`` or
    ``false``, or the kernel's ``%.17g`` text of a number, with null where it
    is not finite and ``-0.0`` for negative zero (its text ``-0`` would read
    back as the integer 0).  A block that needs neither is its text in
    ``kept``, where given: the packed blocks of ``a`` that a CSV wrote."""
    for block, start in enumerate(range(0, len(a), _ROWS_PER_WRITE)):
        v = a[start : start + _ROWS_PER_WRITE]
        if a.dtype == bool:
            yield _pack(np.where(v, b"true,", b"false,"))
            continue
        nulls = ~np.isfinite(v)
        negative_zeros = (v == 0.0) & np.signbit(v)
        if kept is not None and not (nulls.any() or negative_zeros.any()):
            yield kept[block]
            continue
        out = rows[: len(v)]
        _percent_17g_rows(v, out)
        out[nulls] = _row_of(b"null,")
        out[negative_zeros] = _row_of(b"-0.0,")
        yield _pack(out)


def _json_list_parts(a: np.ndarray, rows: np.ndarray, kept):
    """The JSON text of a per-sample series, in parts: a list of booleans or
    numbers, or for an (n, 3) series its three component lists; ``kept`` is
    the kept text of the list (``_json_items``), or of each component."""
    if a.ndim == 2:
        for opening, component, text in zip((b"[", b",", b","), a.T, kept or (None,) * 3):
            yield opening
            yield from _json_list_parts(component, rows, text)
        yield b"]"
        return
    yield b"["
    last = (len(a) - 1) // _ROWS_PER_WRITE
    for block, items in enumerate(_json_items(a, rows, kept)):
        yield items if block < last else memoryview(items)[:-1]
    yield b"]"


_FRENET_DEPTH = 2  # derivative passes behind tau: nabla_T T, then nabla_T N


def _frenet_json_parts(frenet: FrenetSeries):
    """The ASCII bytes of ``frenet_to_json``'s text, in order."""
    samples = frenet.samples
    columns = {  # in sorted order, as the rest of the payload
        "B": frenet.B,
        "N": frenet.N,
        "T": samples.velocity_frame,
        "defined": frenet.defined,
        "k": frenet.k,
        "point": samples.points,
        "s": samples.s,
        "tau": frenet.tau,
    }
    try:
        interior = samples.interior(_FRENET_DEPTH)
        interior = [interior.start, interior.stop]
    except TooFewSamples:
        interior = None
    manifold = {"m": samples.manifold.m, "l": samples.manifold.l}
    rest = {
        "manifold": manifold,
        "n": samples.n,
        "provenance": {
            "version": __version__,
            "manifold": manifold,
            "n": samples.n,
            "ds": samples.ds,
            "velocity_depth": samples.velocity_depth,
            "stencil_order": STENCIL_ORDER,
            "interior": interior,
        },
        "stencil_order": STENCIL_ORDER,
    }
    text = next((text for written, text in _SHARED_TEXT.get() or () if written is samples), {})
    kept = {"s": text.get("s"), "point": [text.get(c) for c in ("x", "y", "z")],
            "T": [text.get(c) for c in ("vx", "vy", "vz")]}
    rows = np.empty((min(samples.n, _ROWS_PER_WRITE), _ROW_BYTES), dtype=np.uint8)
    # "columns" sorts before every other key, so it leads the object
    opening = b'{"columns":{'
    for name, series in columns.items():
        yield opening + f'"{name}":'.encode("ascii")
        yield from _json_list_parts(series, rows, kept.get(name))
        opening = b","
    yield b"}," + json.dumps(rest, sort_keys=True, separators=(",", ":"))[1:].encode("ascii")


def frenet_to_json(frenet: FrenetSeries) -> str:
    """Serialize a Frenet series to one line of columnar JSON.

    ``columns`` holds one list per scalar series and three component lists
    per vector series (``point``, ``T``, ``N``, ``B``), written as the same
    ``%.17g`` text as the CSVs, with null where N, B and tau are undefined.
    ``provenance`` records what produced the series.  ``write_frenet_json``
    writes the same text to a file without holding all of it.
    """
    return b"".join(_frenet_json_parts(frenet)).decode("ascii")


def write_frenet_json(path, frenet: FrenetSeries) -> None:
    """Write ``frenet_to_json(frenet)`` to ``path`` part by part, so that
    the number text of one block of ``_ROWS_PER_WRITE`` samples of one
    series is held at a time.  Inside ``_shared_text``, after
    ``write_samples_csv`` of the same samples, the CSV's text of s, the
    points and (with its velocity columns) T is written again."""
    with open(path, "wb") as fh:
        fh.writelines(_frenet_json_parts(frenet))
