"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every tolerance is fixed here, not configured elsewhere.
"""

import math
import time

import numpy as np
import pytest

import heiscurves as hc
from heiscurves import manifold as mf

from conftest import FIGURE1_A, FIGURE1_ALPHA0

H = hc.HEISENBERG


def report(num: int, ok: bool, text: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def alpha_grid(per_component: int, margin: float = 0.08):
    lo = hc.ADMISSIBLE_BOUNDARY
    first = np.linspace(margin, lo, per_component)
    second = np.linspace(math.pi - lo, math.pi - margin, per_component)
    return np.concatenate([first, second])


def helix_matrix():
    """20 admissible (alpha0, branch) pairs across both interval components,
    with all four translation constants drawn from {0, 1, -2}."""
    consts = (0.0, 1.0, -2.0)
    cases = []
    for i, alpha0 in enumerate(alpha_grid(10)):
        branch = "plus" if i % 2 == 0 else "minus"
        v = consts[i % 3]
        cases.append(hc.HelixParams(alpha0=float(alpha0), a=v, b=v, c=v, d=v, branch=branch))
    return cases


def test_criterion_01_tensor_tables():
    """Connection, curvature and Ricci of the Heisenberg parameters."""
    t0 = time.perf_counter()
    p = np.array([0.3, -1.2, 5.0])

    expected_conn = mf.h3_connection_reference()
    G = mf.connection_table(H, p)
    closed_dev = float(np.abs(G - expected_conn).max())
    R = mf.curvature_table(H, p)
    closed_dev = max(closed_dev, abs(R[0, 1, 0, 1] + 0.75))
    closed_dev = max(closed_dev, abs(R[0, 2, 0, 2] - 0.25))
    closed_dev = max(closed_dev, abs(R[1, 2, 1, 2] - 0.25))
    for (a, b), val in mf.h3_ricci_reference().items():
        closed_dev = max(closed_dev, abs(mf.ricci_component(H, p, a, b) - val))
    assert abs(mf.connection_table(H, p)[0, 1, 2] - 0.5) <= 1e-12

    numeric_dev = float(np.abs(mf.connection_table_numeric(H, p) - expected_conn).max())
    numeric_dev = max(
        numeric_dev, float(np.abs(mf.curvature_table_numeric(H, p) - R).max())
    )
    elapsed = time.perf_counter() - t0

    ok = closed_dev <= 1e-12 and numeric_dev <= 1e-8 and elapsed < 1.0
    report(
        1,
        ok,
        f"tensor tables: closed-form dev {closed_dev:.2e} (tol 1e-12), "
        f"finite-difference dev {numeric_dev:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_02_biharmonic_helix_residuals():
    """20 helices, both components and branches: |tau2| and system residuals."""
    t0 = time.perf_counter()
    worst_tau2 = 0.0
    worst_sys = 0.0
    for hp in helix_matrix():
        samples = hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 10.0 * math.pi)), 2001)
        rep = hc.bitension_report(samples)
        worst_tau2 = max(worst_tau2, rep.max_residual)
        sys33 = hc.check_system_33(hc.frenet_apparatus(samples))
        for name in ("k_constant", "algebraic_relation", "torsion_derivative"):
            worst_sys = max(worst_sys, sys33[name].residual)
    elapsed = time.perf_counter() - t0
    ok = worst_tau2 <= 1e-5 and worst_sys <= 1e-5 and elapsed < 30.0
    report(
        2,
        ok,
        f"20 helices: max |tau2| {worst_tau2:.2e} (tol 1e-5), max system residual "
        f"{worst_sys:.2e} (tol 1e-5), {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_03_closed_form_identity():
    """k^2 + tau^2 + B3^2 = 1/4 from the closed-form invariants."""
    worst = 0.0
    for alpha0 in alpha_grid(25):
        for branch in ("plus", "minus"):
            k, tau, B3 = hc.helix_invariants(hc.HelixParams(alpha0=float(alpha0), branch=branch))
            worst = max(worst, abs(k * k + tau * tau + B3 * B3 - 0.25))
    ok = worst <= 1e-12
    report(3, ok, f"closed-form identity on 50-angle grid: max defect {worst:.2e} (tol 1e-12)")


def test_criterion_04_negative_controls():
    """Off-root helix, the vanishing-B3 family and the Legendre direction."""
    # (a) rate off the root by 0.05
    A_off = hc.solve_branch_A(FIGURE1_ALPHA0, "minus") + 0.05
    spec = hc.helix_family_curve(FIGURE1_ALPHA0, A_off, s_range=(0.0, 10.0 * math.pi))
    rep = hc.bitension_report(hc.sample_curve(spec, 2001))
    ok_a = rep.max_residual >= 1e-3

    # (b) vanishing third binormal component
    bz = hc.sample_curve(hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0)), 1001)
    result = hc.classify_curve(hc.frenet_apparatus(bz))
    tau_mean = result.values["tau_mean"]
    ok_b = abs(tau_mean + 0.5) <= 1e-4 and result.verdict == "not_biharmonic"

    # (c) Legendre direction
    ok_c = hc.cone_membership(H, np.array([1.0, 0.0, 0.0])) == "geodesic_only"

    ok = ok_a and ok_b and ok_c
    report(
        4,
        ok,
        f"negative controls: off-root |tau2| {rep.max_residual:.2e} (>= 1e-3), "
        f"B3=0 family tau {tau_mean:.6f} -> {result.verdict}, Legendre -> geodesic_only",
    )


def test_criterion_05_one_parameter_subgroups():
    """Tilted subgroups satisfy k^2 + tau^2 = 1/4 with B3 != 0; horizontal
    and vertical ones are geodesics."""
    rng = np.random.default_rng(100)
    worst_circle = 0.0
    min_b3 = np.inf
    count = 0
    while count < 10:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if abs(v[2]) < 0.15 or math.hypot(v[0], v[1]) < 0.15:
            continue  # stay clearly non-geodesic
        count += 1
        samples = hc.sample_curve(hc.one_param_subgroup(v, (0.0, 20.0)), 2001)
        fr = hc.frenet_apparatus(samples)
        interior = fr.samples.interior(3)
        worst_circle = max(
            worst_circle,
            float(np.abs(fr.k[interior] ** 2 + fr.tau[interior] ** 2 - 0.25).max()),
        )
        min_b3 = min(min_b3, float(np.abs(fr.B3[interior]).min()))

    worst_geo = 0.0
    for d in (
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
    ):
        samples = hc.sample_curve(hc.one_param_subgroup(d, (0.0, 20.0)), 2001)
        t1 = hc.tension1(samples)
        worst_geo = max(
            worst_geo, float(np.linalg.norm(t1, axis=1)[samples.interior(1)].max())
        )
    ok = worst_circle <= 1e-6 and min_b3 > 1e-3 and worst_geo <= 1e-6
    report(
        5,
        ok,
        f"subgroups: max |k^2+tau^2-1/4| {worst_circle:.2e} (tol 1e-6), min |B3| "
        f"{min_b3:.3f} (> 0), geodesic residual {worst_geo:.2e} (tol 1e-6)",
    )


def test_criterion_06_geodesics():
    """Unit speed preserved to 1e-8 over arclength 100; both tension fields
    vanish to 1e-6; under 5 s per curve.

    Both cases are closed form: the m = 0.25 geodesic is a Moebius orbit of
    the (x, y) chart, so its samples carry no solver jitter for the three
    nested stencils of tau2 to amplify.
    """
    rng = np.random.default_rng(7)
    worst_drift = worst_t1 = worst_t2 = worst_time = 0.0
    cases = [
        (H, np.array([0.2, -0.4, 1.0])),
        (hc.ManifoldParams(0.25, 1.0), np.array([0.1, 0.0, 0.0])),
    ]
    for params, p0 in cases:
        v0 = rng.standard_normal(3)
        v0 /= np.linalg.norm(v0)
        t0 = time.perf_counter()
        spec = hc.geodesic_ivp(params, p0, v0, (0.0, 100.0))
        samples = hc.sample_curve(spec, 16001)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        worst_drift = max(
            worst_drift,
            float(np.abs(np.linalg.norm(samples.velocity_frame, axis=1) - 1.0).max()),
        )
        t1 = hc.tension1(samples)
        t2 = hc.tension2_direct(samples)
        worst_t1 = max(
            worst_t1, float(np.linalg.norm(t1, axis=1)[samples.interior(1)].max())
        )
        worst_t2 = max(
            worst_t2, float(np.linalg.norm(t2, axis=1)[samples.interior(3)].max())
        )
    ok = (
        worst_drift <= 1e-8
        and worst_t1 <= 1e-6
        and worst_t2 <= 1e-6
        and worst_time < 5.0
    )
    report(
        6,
        ok,
        f"geodesics over length 100: speed drift {worst_drift:.2e} (tol 1e-8), "
        f"tau1 {worst_t1:.2e}, tau2 {worst_t2:.2e} (tol 1e-6), {worst_time:.1f}s/curve (< 5 s)",
    )


def test_criterion_07_metric_family():
    """Constant curvature l^2/4 on the degenerate members; the parametrized
    system coincides with the Heisenberg system at (0, 1)."""
    worst_k = 0.0
    for (m, l) in ((1.0, 2.0), (0.25, 1.0), (1.0, -2.0)):
        par = hc.ManifoldParams(m, l)
        rng = np.random.default_rng(int(m * 10) + int(l) + 50)
        for _ in range(100):
            p = rng.uniform(-2.0, 2.0, 3)
            X, Y = rng.standard_normal((2, 3))
            worst_k = max(worst_k, abs(mf.sectional(par, p, X, Y) - l * l / 4.0))

    samples = hc.sample_curve(
        hc.biharmonic_helix(hc.HelixParams(alpha0=FIGURE1_ALPHA0), (0.0, 10.0 * math.pi)),
        2001,
    )
    fr = hc.frenet_apparatus(samples)
    sys_general = hc.check_system_33(fr)
    interior = fr.samples.interior(3)
    k, tau, B3, N3 = fr.k[interior], fr.tau[interior], fr.B3[interior], fr.N3[interior]
    relation_h3 = float(np.abs(k**2 + tau**2 - (0.25 - B3**2)).max())
    taup = fr.samples.derivative(fr.tau)[interior]
    torsion_h3 = float(np.abs(taup - N3 * B3).max())
    coincide = max(
        abs(sys_general["algebraic_relation"].residual - relation_h3),
        abs(sys_general["torsion_derivative"].residual - torsion_h3),
    )
    ok = worst_k <= 1e-7 and coincide <= 1e-10
    report(
        7,
        ok,
        f"metric family: sectional dev {worst_k:.2e} (tol 1e-7) on 3 degenerate members, "
        f"parametrized system matches Heisenberg system to {coincide:.2e} (tol 1e-10)",
    )


def test_criterion_08_surface_intersection():
    """The figure-parameter helix lies on its cylinder and helicoid."""
    hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0)
    helix = hc.biharmonic_helix(hp, (0.0, 10.0 * math.pi))
    samples = hc.sample_curve(helix, 1001)
    res_cyl = hc.membership_residual(samples, hc.cylinder_patch(hp))
    res_hel = hc.membership_residual(samples, hc.helicoid_patch(hp))
    ok = res_cyl <= 1e-10 and res_hel <= 1e-10
    report(
        8,
        ok,
        f"surface membership at 1001 samples: cylinder {res_cyl:.2e}, "
        f"helicoid {res_hel:.2e} (tol 1e-10)",
    )


def test_criterion_09_bitension_route_equivalence():
    """Direct nested covariant derivatives vs the frame expansion, on every
    non-geodesic curve of the test matrix."""
    curves = []
    for hp in helix_matrix()[::4]:
        curves.append(hc.sample_curve(hc.biharmonic_helix(hp, (0.0, 10.0 * math.pi)), 2001))
    curves.append(
        hc.sample_curve(
            hc.helix_family_curve(
                FIGURE1_ALPHA0, FIGURE1_A + 0.05, s_range=(0.0, 10.0 * math.pi)
            ),
            2001,
        )
    )
    curves.append(hc.sample_curve(hc.b3zero_curve(lambda s: 0.5 + 0.3 * s, (0.0, 2.0)), 1001))
    curves.append(
        hc.sample_curve(
            hc.one_param_subgroup(np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0), (0.0, 20.0)),
            2001,
        )
    )
    for (m, l, S0, rate, length) in (
        (1.0, 2.0, 0.5, 3.0, 4.0),
        (1.0, -2.0, 0.5, 3.0, 4.0),
        (0.25, 1.0, 0.6, 1.5, 6.0),
    ):
        par = hc.ManifoldParams(m, l)
        C0 = math.sqrt(1.0 - S0 * S0)

        def tangent(s, S0=S0, rate=rate, C0=C0):
            return np.array([S0 * math.cos(rate * s), S0 * math.sin(rate * s), C0])

        spec = hc.tangent_driven_curve(par, tangent, [0.05, -0.1, 0.0], (0.0, length))
        curves.append(hc.sample_curve(spec, 1201))

    worst = 0.0
    for samples in curves:
        rep = hc.bitension_report(samples)
        assert rep.expansion_agreement is not None
        worst = max(worst, rep.expansion_agreement)
    ok = worst <= 1e-4
    report(
        9,
        ok,
        f"bitension route equivalence on {len(curves)} curves: max disagreement "
        f"{worst:.2e} (tol 1e-4)",
    )


def test_criterion_10_left_invariance():
    """Frenet data and bitension residuals are unchanged by a left
    translation of the whole curve."""
    shift = np.array([3.0, -1.0, 2.0])
    worst = 0.0

    # exact transport of the closed-form helix
    hp = hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0)
    spec = hc.biharmonic_helix(hp, (0.0, 10.0 * math.pi))
    base = hc.sample_curve(spec, 2001)
    moved = hc.sample_curve(hc.left_translate_curve(shift, spec), 2001)
    fa, fb = hc.frenet_apparatus(base), hc.frenet_apparatus(moved)
    interior = fa.samples.interior(3)
    worst = max(worst, float(np.abs(fa.k - fb.k)[interior].max()))
    worst = max(worst, float(np.abs(fa.tau - fb.tau)[interior].max()))
    worst = max(worst, float(np.abs(fa.B3 - fb.B3)[interior].max()))
    ra, rb = hc.bitension_report(base), hc.bitension_report(moved)
    worst = max(worst, float(np.abs(ra.residual - rb.residual)[interior].max()))

    # differentiated-import route: velocities recomputed from translated points
    imported = hc.import_samples(H, base.s, base.points)
    imported_moved = hc.import_samples(H, base.s, mf.left_translate(H, shift, base.points))
    fa, fb = hc.frenet_apparatus(imported), hc.frenet_apparatus(imported_moved)
    interior = fa.samples.interior(3)
    worst = max(worst, float(np.abs(fa.k - fb.k)[interior].max()))
    worst = max(worst, float(np.abs(fa.tau - fb.tau)[interior].max()))
    worst = max(worst, float(np.abs(fa.B3 - fb.B3)[interior].max()))
    ra, rb = hc.bitension_report(imported), hc.bitension_report(imported_moved)
    worst = max(worst, float(np.abs(ra.residual - rb.residual)[interior].max()))

    ok = worst <= 1e-6
    report(
        10,
        ok,
        f"left translation by (3, -1, 2): worst change in k, tau, B3, |tau2| "
        f"series {worst:.2e} (tol 1e-6)",
    )
