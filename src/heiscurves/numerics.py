"""Finite-difference stencils, quadrature helpers and the numerics config."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import TooFewSamples

__all__ = [
    "NumericsConfig",
    "DEFAULT_CONFIG",
    "stencil_weights",
    "derivative_on_grid",
    "stencil_half_width",
    "interior_slice",
    "cumulative_simpson",
]


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for differentiation, integration and verification tolerances.

    fd_step            step for first derivatives of the metric / frame
    fd_step_nested     outer step for the nested curvature differences
    stencil_order      order of the arclength stencils (2 or 4)
    unit_speed_tol     allowed deviation of |velocity| from 1
    residual_tol       threshold for "vanishes" (geodesic residuals)
    k_floor            geodesic curvature below which the frame is undefined
    constancy_tol      relative max-minus-min threshold for constancy checks
    relation_tol       absolute threshold for the algebraic system residuals
    b3_zero_tol        |B3| below which a helix falls under the B3 = 0 case
    ode_method         ``solve_ivp`` method
    ode_rtol/ode_atol  adaptive step control for curve integration
    The ode_* settings apply to ODE-defined curves only (tangent-driven
    curves): geodesics are closed form on every member and do not read them.
    """

    fd_step: float = 1e-4
    fd_step_nested: float = 1e-3
    stencil_order: int = 4
    unit_speed_tol: float = 1e-8
    residual_tol: float = 1e-6
    k_floor: float = 1e-7
    constancy_tol: float = 1e-5
    relation_tol: float = 1e-5
    b3_zero_tol: float = 1e-3
    ode_method: str = "DOP853"
    ode_rtol: float = 1e-12
    ode_atol: float = 1e-12
    quad_refine: int = 16

    def __post_init__(self):
        if self.fd_step <= 0 or self.fd_step_nested <= 0:
            raise ValueError("finite-difference steps must be positive")
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
        for name in ("unit_speed_tol", "residual_tol", "constancy_tol", "relation_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def with_overrides(self, **kwargs) -> "NumericsConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = NumericsConfig()


def stencil_weights(offsets, der: int = 1) -> np.ndarray:
    """Finite-difference weights for integer node offsets.

    Solves the Vandermonde moment conditions, so arbitrary (one-sided)
    stencils come out with their maximal order.  The returned weights apply
    to samples at ``x0 + offsets * h`` and must be divided by ``h**der``.
    """
    o = np.asarray(offsets, dtype=float)
    n = len(o)
    if der >= n:
        raise ValueError("stencil too short for requested derivative")
    V = np.vander(o, n, increasing=True).T  # V[r, j] = o_j**r
    rhs = np.zeros(n)
    rhs[der] = float(math.factorial(der))
    return np.linalg.solve(V, rhs)


def stencil_half_width(order: int) -> int:
    return 2 if order == 4 else 1


def derivative_on_grid(values: np.ndarray, ds: float, order: int = 4) -> np.ndarray:
    """First derivative of uniformly sampled data along axis 0.

    Central stencils of the requested order in the interior; one-sided
    stencils of the same order at the edges.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    hw = stencil_half_width(order)
    width = 2 * hw + 1
    if n < width:
        raise TooFewSamples(f"need at least {width} samples for order-{order} stencils, got {n}")
    out = np.empty_like(y)
    if order == 4:
        out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * ds)
    else:
        out[1:-1] = (y[2:] - y[:-2]) / (2.0 * ds)
    # One-sided ends, same formal order.
    for i in range(hw):
        w_lo = stencil_weights(np.arange(width) - i)
        w_hi = stencil_weights(np.arange(-width + 1, 1) + i)
        out[i] = np.tensordot(w_lo, y[:width], axes=(0, 0)) / ds
        out[n - 1 - i] = np.tensordot(w_hi, y[n - width:], axes=(0, 0)) / ds
    return out


def interior_slice(n: int, order: int, depth: int = 1) -> slice:
    """Samples whose value is untouched by one-sided boundary stencils after
    ``depth`` nested derivative passes."""
    margin = depth * stencil_half_width(order)
    if n <= 2 * margin:
        raise TooFewSamples(
            f"{n} samples leave no interior after {depth} derivative passes"
        )
    return slice(margin, n - margin)


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled data, 4th-order accurate.

    Thin wrapper so the rest of the package does not depend on the scipy
    version directly.
    """
    from scipy.integrate import cumulative_simpson as _cs

    return _cs(np.asarray(y, dtype=float), dx=dx, initial=0.0, axis=0)
