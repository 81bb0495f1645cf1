"""Reference geodesics by numerical integration, for the closed-form tests.

The state (position, frame components of the tangent) obeys

    x' = F T1,  y' = F T2,  z' = T3 + (l/2)(x T2 - y T1),
    T1' = 2m T2 (y T1 - x T2) - l T2 T3,
    T2' = 2m T1 (x T2 - y T1) + l T1 T3,  T3' = 0,

with F = 1 + m (x^2 + y^2).  ``ode_geodesic`` integrates it with scipy's
``solve_ivp`` and stops an m < 0 geodesic where F falls to 1e-9, raising
DomainExit as ``geodesic_ivp`` does; ``rk4_geodesic`` uses fixed classical
Runge-Kutta steps.  Both return curves whose sampler integrates, anchored
at p0 = gamma(s_range[0]).
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

import heiscurves as hc

CHART_EDGE = 1e-9


def geodesic_rhs(params):
    m, l = params.m, params.l

    def rhs(_s, y):
        x, yy, _z, t1, t2, t3 = y.tolist()
        fac = 1.0 + m * (x * x + yy * yy)
        if fac <= 0.0:
            raise hc.DomainExit("geodesic left the chart")
        return np.array(
            [
                fac * t1,
                fac * t2,
                0.5 * l * (x * t2 - yy * t1) + t3,
                2.0 * m * t2 * (yy * t1 - x * t2) - l * t2 * t3,
                2.0 * m * t1 * (x * t2 - yy * t1) + l * t1 * t3,
                0.0,
            ]
        )

    return rhs


def ode_geodesic(params, p0, v0, s_range, method="DOP853", rtol=1e-13, atol=1e-15):
    rhs = geodesic_rhs(params)
    y0 = np.concatenate([np.asarray(p0, dtype=float), np.asarray(v0, dtype=float)])
    events = None
    if params.m < 0.0:
        def chart_edge(_s, y):
            return 1.0 + params.m * (y[0] ** 2 + y[1] ** 2) - CHART_EDGE

        chart_edge.terminal = True
        events = [chart_edge]

    def sampler(s_grid):
        sol = solve_ivp(rhs, (float(s_grid[0]), float(s_grid[-1])), y0, t_eval=s_grid,
                        method=method, rtol=rtol, atol=atol, events=events)
        if events and len(sol.t_events[0]) > 0:
            raise hc.DomainExit(f"geodesic left the chart at s = {sol.t_events[0][0]:.6f}")
        if not sol.success:
            raise hc.IntegrationFailure(f"ODE solver failed: {sol.message}")
        return sol.y[:3].T, sol.y[3:].T

    return hc.CurveSpec(manifold=params, s_range=s_range, sampler=sampler)


def rk4_geodesic(params, p0, v0, s_range, step):
    rhs = geodesic_rhs(params)
    y0 = np.concatenate([np.asarray(p0, dtype=float), np.asarray(v0, dtype=float)])

    def sampler(s_grid):
        n_sub = max(1, int(math.ceil((s_grid[1] - s_grid[0]) / step)))
        h = float(s_grid[1] - s_grid[0]) / n_sub
        out = np.empty((len(s_grid), 6))
        out[0] = y = y0
        s = float(s_grid[0])
        for i in range(1, len(s_grid)):
            for _ in range(n_sub):
                k1 = rhs(s, y)
                k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
                k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
                k4 = rhs(s + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                s += h
            out[i] = y
        return out[:, :3], out[:, 3:]

    return hc.CurveSpec(manifold=params, s_range=s_range, sampler=sampler)
