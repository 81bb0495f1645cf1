"""Finite-difference stencils, quadrature helpers and the numerics config."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import TooFewSamples

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "STENCIL_ORDER",
    "derivative_on_grid",
    "TILE",
    "tiles",
    "interior_slice",
    "cumulative_simpson",
]


@dataclass(frozen=True)
class NumericsConfig:
    """The tolerances a verdict depends on; each must be finite and > 0.

    unit_speed_tol     allowed deviation of |velocity| from 1
    residual_tol       threshold for "vanishes" (geodesic residuals)
    k_floor            geodesic curvature below which the frame is undefined
    constancy_tol      relative max-minus-min threshold for constancy checks
    relation_tol       absolute threshold for the algebraic system residuals
    b3_zero_tol        |B3| below which a helix falls under the B3 = 0 case

    The derivative stencil belongs to ``derivative_on_grid``; the ODE and
    quadrature settings and the steps of the tensor cross-check are
    constants at their one reader.
    """

    unit_speed_tol: float = 1e-8
    residual_tol: float = 1e-6
    k_floor: float = 1e-7
    constancy_tol: float = 1e-5
    relation_tol: float = 1e-5
    b3_zero_tol: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")


DEFAULT_CONFIG = NumericsConfig()


STENCIL_ORDER = 4
_HALF_WIDTH = 2  # samples the order-4 central stencil reaches on each side
_WIDTH = 2 * _HALF_WIDTH + 1


def derivative_on_grid(values: np.ndarray, ds: float) -> np.ndarray:
    """First derivative of uniformly sampled data along axis 0.

    The 4th-order central stencil wherever it reaches, and NaN on the first
    and last two samples, where it does not: no number past the stencil's
    reach.  This is the package's one arclength stencil; NaN spreads two
    samples further per nested pass, and ``interior_slice`` gives the
    samples it leaves.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    if n < _WIDTH:
        raise TooFewSamples(f"need at least {_WIDTH} samples for order-4 stencils, got {n}")
    out = np.empty_like(y)
    out[:_HALF_WIDTH] = out[n - _HALF_WIDTH:] = np.nan
    # (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * ds), the same
    # operations in the same order, in place in ``out`` with one temporary
    # of at most TILE rows
    mid = out[2:-2]
    np.multiply(y[1:-3], 8.0, out=mid)
    np.subtract(y[:-4], mid, out=mid)
    for start in range(0, n - 4, TILE):
        rows = slice(start, start + TILE)
        mid[rows] += np.multiply(y[3:-1][rows], 8.0)
    mid -= y[4:]
    mid /= 12.0 * ds
    return out


TILE = 8192  # samples per tile of the per-sample stencil chains


def tiles(n: int, depth: int):
    """Cover ``range(n)`` with consecutive tiles for a chain of ``depth``
    nested ``derivative_on_grid`` passes.

    Yields ``(tile, window, rows)``: the tile's samples, the samples the
    chain runs on (the tile widened by ``depth * 2`` on each side, clipped
    at the curve's ends) and the tile's rows within the window.  The chain
    writes NaN on the ``depth * 2`` samples at each end of its window, and
    the halo keeps them off the tile's rows except at the curve's own ends,
    so every row of a tile gets the bits of a whole-curve chain.  The
    ceil(n / TILE) tiles differ in size by at most one sample, so on a curve
    longer than ``TILE`` each holds more than ``TILE / 2``.
    """
    halo = depth * _HALF_WIDTH
    count = -(-n // TILE)
    for i in range(count):
        start, stop = i * n // count, (i + 1) * n // count
        lo, hi = max(0, start - halo), min(n, stop + halo)
        yield slice(start, stop), slice(lo, hi), slice(start - lo, stop - lo)


def interior_slice(n: int, depth: int = 1) -> slice:
    """The samples ``depth`` nested derivative passes leave finite: outside
    it, every derived series is NaN, since the central stencil does not
    reach there."""
    margin = depth * _HALF_WIDTH
    if n <= 2 * margin:
        raise TooFewSamples(
            f"{n} samples leave no interior after {depth} derivative passes"
        )
    return slice(margin, n - margin)


def cumulative_simpson(y: np.ndarray, dx: float, start: float = 0.0) -> np.ndarray:
    """Cumulative integral of uniformly sampled data along axis 0, starting
    at ``start``, 4th-order accurate; at least 3 samples.

    The integral over one interval is dx/3 (5 f0/4 + 2 f1 - f2/4), where f0
    and f1 are its end samples and f2 the next sample past f1: read forward
    on the even intervals, backward on the odd ones and on the last.  The
    same rule and operations as ``scipy.integrate.cumulative_simpson(y,
    dx=dx, initial=0.0, axis=0)``, and the same bits, at ``start`` = 0.
    The running sum adds each interval to ``start`` in turn: a sum carried
    into a piece of a series that starts an even number of samples in has
    the bits of the whole series' sum on every sample but the piece's last,
    whose interval reads backward.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 3:
        raise TooFewSamples(f"need at least 3 samples to integrate, got {y.shape[0]}")
    d = dx / 3
    parts = np.zeros_like(y)  # parts[i]: the integral over [i - 1, i]
    parts[0] = start  # the running sum's first value
    parts[1:-1:2] = d * (5 * y[:-2:2] / 4 + 2 * y[1:-1:2] - y[2::2] / 4)
    parts[2::2] = d * (5 * y[2::2] / 4 + 2 * y[1:-1:2] - y[:-2:2] / 4)
    parts[-1] = d * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    return np.cumsum(parts, axis=0)
