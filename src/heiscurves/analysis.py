"""Tension and bitension fields along curves, characterization systems and
curve classification.

For a unit-speed curve with tangent T the tension field is tau1 = nabla_T T
(zero exactly on geodesics) and the bitension field is

    tau2 = nabla_T^3 T + R(T, nabla_T T) T,

whose vanishing characterizes biharmonic curves.  Two independent routes
are computed:

* ``tension2_direct`` nests three covariant derivatives and adds the
  curvature correction, contracted with the manifold's constant curvature
  table; it needs no Frenet frame and is defined on geodesics.
* ``tension2_frame`` evaluates the frame expansion

    tau2 = (-3 k' k) T
         + (k'' - k^3 - k tau^2 + k l^2/4 - k (l^2 - 4m) B3^2) N
         + (-2 k' tau - k tau' + k (l^2 - 4m) N3 B3) B,

  which on the Heisenberg parameters (m, l) = (0, 1) reduces to the
  familiar 1/4 and unit coefficients.

Their agreement on every non-geodesic curve is itself a verified invariant.
A non-geodesic unit-speed curve is biharmonic if and only if

    k = const != 0,
    k^2 + tau^2 = l^2/4 - (l^2 - 4m) B3^2,
    tau' = (l^2 - 4m) N3 B3.

``classify_curve`` tests the last in integral form, tau(s) - tau(s_a) =
(l^2 - 4m) int_{s_a}^{s} N3 B3 ds from the interior's first sample s_a: it
differentiates tau no further, so every verdict check reads series two
passes deep, whose roundoff does not outgrow the tolerances as n grows.

Each derived series is computed once per curve: ``frenet_apparatus`` keeps
nabla_T T on its series, and the tension passes extend it to tau2, so a
verdict costs four covariant-derivative passes.

One chain (Frenet frame -> nabla_T N and tau -> tau2) runs over the tiles
``CurveSamples.tiles`` gives for its ``_BITENSION_DEPTH`` nested passes,
each differenced with the curve's one ``ds``; so every sample gets the bits
of the whole-curve chain, and the (n, 3) temporaries are tile-sized.  Every
derivative, interior and tile here comes from the samples, which checked
their points when they were built: no pass checks them again, nor a
tile, which is a window of the checked samples.  Two collectors keep what
their command reads, per sample:

* ``bitension_report`` (``generate``) also evaluates the frame expansion
  and its agreement gap per tile, and keeps what ``generate``'s files
  write: |tau2|, cT, cN and cB (32 bytes; 8 when the frame fails somewhere
  on the interior and the coefficients are None) and a ``FrenetSeries`` of
  k, tau, N, B and ``defined`` (65 bytes).
* ``verdict_series`` (``verify``) keeps k, tau, N3, B3 and ``defined`` (33
  bytes) and a running interior max of |tau2|: what ``classify_curve``
  reads and ``verify`` prints.  It does not evaluate the frame expansion,
  which ``verify`` never printed.

Both hold the samples themselves, whose s, T and points (56 bytes) they
read there, and keep neither nabla_T T nor tau2.  ``classify_curve`` takes
either's series and builds every check of the verdict once, after one test
that the frame is defined on the interior.  Each check but the two nonzero
ones comes from one of two builders: ``_spread_check`` (max - min of an
interior series against ``constancy_tol`` (1 + |mean|)) and
``_worst_check`` (the largest interior residual against ``relation_tol``,
and its sample, which ``CurveSamples.interior_max`` finds tile by tile, so
a verdict adds no per-sample temporary that spans the curve; the torsion
check's running integral is carried from one tile to the next).

Directions are plain frame-component arrays: ``cone_membership`` takes
three components, with no base point, since the cone is the same at every
point of the group.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from .curves import CurveSamples, FrenetSeries, covariant_derivative_along, frenet_apparatus
from .curves import _write_table
from .errors import GeodesicFrameUndefined, UnsupportedManifold
from .factory import _require_unit, admissible_cos
from .manifold import ManifoldParams
from .numerics import DEFAULT_CONFIG, NumericsConfig, cumulative_simpson

__all__ = [
    "tension1",
    "tension2_direct",
    "tension2_frame",
    "BitensionReport",
    "bitension_report",
    "VerdictSeries",
    "verdict_series",
    "SystemCheck",
    "ClassificationResult",
    "classify_curve",
    "cone_membership",
    "legendre_pairing",
    "residuals_to_csv",
]

_BITENSION_DEPTH = 3  # nested derivative passes inside tension2_direct


def tension1(samples: CurveSamples) -> np.ndarray:
    """tau1 = nabla_T T in frame components, per sample."""
    return covariant_derivative_along(samples, samples.velocity_frame)


def tension2_direct(samples: CurveSamples) -> np.ndarray:
    """tau2 = nabla_T^3 T + R(T, nabla_T T) T, per sample.

    Uses nabla_T T directly in the curvature slot (equal to k N wherever the
    Frenet frame exists), so the result is defined on geodesics as well.
    The samples checked their points when they were built.
    """
    return _tension2(samples, tension1(samples))


def _tension2(samples: CurveSamples, t1: np.ndarray) -> np.ndarray:
    """tau2 from t1 = nabla_T T: two more covariant passes (nabla_T^2 T is
    dropped as soon as nabla_T^3 T exists) and the closed-form curvature
    term, which does not depend on the point."""
    T = samples.velocity_frame
    t3 = covariant_derivative_along(samples, covariant_derivative_along(samples, t1))
    t3 += mf.curvature_term(samples.manifold, T, t1, T)
    return t3


def tension2_frame(frenet: FrenetSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame-expansion coefficients (cT, cN, cB) of the bitension field.

    k', k'' and tau' come from finite differences of the measured Frenet
    series, never from closed forms, so user-supplied curves are handled on
    the same footing as generated ones.
    """
    if not frenet.defined.any():
        raise GeodesicFrameUndefined("Frenet frame undefined along the whole curve")
    params, derivative = frenet.samples.manifold, frenet.samples.derivative
    lam = 0.25 * params.l * params.l
    mu = params.flatness
    k, tau = frenet.k, frenet.tau
    kp = derivative(k)
    kpp = derivative(kp)
    taup = derivative(tau)
    B3, N3 = frenet.B3, frenet.N3
    cT = -3.0 * kp * k
    cN = kpp - k**3 - k * tau**2 + k * lam - k * mu * B3**2
    cB = -2.0 * kp * tau - k * taup + k * mu * N3 * B3
    return cT, cN, cB


@dataclass
class BitensionReport:
    """Both routes to the bitension field as per-sample summaries, and the
    Frenet series they were computed from, whose ``samples`` are the curve.

    ``residual`` is |tau2| by the direct route and (cT, cN, cB) the frame
    expansion's coefficients; the (n, 3) fields themselves are not kept.
    Every series is NaN outside the interior its passes leave, and the
    residual statistics cover the interior.  ``expansion_agreement`` is the
    worst interior distance between the direct route and the reassembled
    frame expansion; it is None, and so are the coefficients, unless the
    frame exists on the whole interior.
    """

    residual: np.ndarray       # |tau2| per sample
    cT: np.ndarray | None
    cN: np.ndarray | None
    cB: np.ndarray | None
    max_residual: float
    mean_residual: float
    expansion_agreement: float | None
    interior: slice
    frenet: FrenetSeries

    def to_json(self) -> str:
        """The summary; the residual series goes to ``residuals_to_csv``."""
        samples = self.frenet.samples
        payload = {
            "manifold": {"m": samples.manifold.m, "l": samples.manifold.l},
            "n": samples.n,
            "max_interior_residual": self.max_residual,
            "mean_interior_residual": self.mean_residual,
            "expansion_agreement": self.expansion_agreement,
            "interior": [self.interior.start, self.interior.stop],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _tile_chain(samples: CurveSamples, config: NumericsConfig):
    """Run the chain Frenet frame -> tau2 over ``samples.tiles(_BITENSION_DEPTH)``
    (``TooFewSamples`` when there is no interior).

    Yields ``(tile, rows, inner, frenet, t2)``: the tile, its rows and
    interior rows in its window, and the window's Frenet series and tau2.
    Every row of ``rows`` has the bits of the whole-curve chain.
    """
    for tile, window, rows, inner in samples.tiles(_BITENSION_DEPTH):
        part = copy(samples)  # a window of checked points, with the curve's ds: not checked again
        part.s, part.points, part.velocity_frame = (
            samples.s[window], samples.points[window], samples.velocity_frame[window])
        frenet = frenet_apparatus(part, config)
        yield tile, rows, inner, frenet, _tension2(part, frenet.t1)


def bitension_report(
    samples: CurveSamples, config: NumericsConfig = DEFAULT_CONFIG
) -> BitensionReport:
    """Evaluate tau2 by both routes where defined, and the residuals.

    ``generate``'s collector of the tile chain: it keeps per sample what
    ``generate``'s files write (|tau2|, the frame expansion's coefficients
    and the Frenet series).  Every sample gets the bits of the whole-curve
    chain.
    """
    n = samples.n
    k, tau, residual, cT, cN, cB = (np.empty(n) for _ in range(6))
    N, B = np.empty((n, 3)), np.empty((n, 3))
    defined = np.empty(n, dtype=bool)
    framed = True  # the frame is defined on the interior of every tile so far
    agreement = -np.inf

    for tile, rows, inner, frenet, t2 in _tile_chain(samples, config):
        residual[tile] = np.linalg.norm(t2[rows], axis=1)
        for full, own in ((k, frenet.k), (tau, frenet.tau), (N, frenet.N), (B, frenet.B),
                          (defined, frenet.defined)):
            full[tile] = own[rows]
        framed = framed and bool(frenet.defined[inner].all())
        if framed:
            coefficients = tension2_frame(frenet)
            for full, own in zip((cT, cN, cB), coefficients):
                full[tile] = own[rows]
            agreement = np.maximum(agreement, _expansion_gap(frenet, coefficients, t2, inner))
        del frenet, t2  # before the next tile's chain runs

    if not framed:
        cT = cN = cB = None
    interior = samples.interior(_BITENSION_DEPTH)
    return BitensionReport(
        residual=residual,
        cT=cT,
        cN=cN,
        cB=cB,
        max_residual=float(residual[interior].max()),
        mean_residual=float(residual[interior].mean()),
        expansion_agreement=float(agreement) if framed else None,
        interior=interior,
        frenet=FrenetSeries(samples, k=k, N=N, B=B, tau=tau, defined=defined),
    )


@dataclass
class VerdictSeries:
    """What a verdict reads per sample: the Frenet series' k, tau, N3, B3
    and ``defined``, with the curve's ``samples``, and the largest interior
    |tau2|.  ``classify_curve`` takes it as it takes a ``FrenetSeries``."""

    samples: CurveSamples
    k: np.ndarray        # (n,)
    tau: np.ndarray      # (n,), NaN where undefined
    N3: np.ndarray       # (n,), NaN where undefined
    B3: np.ndarray       # (n,), NaN where undefined
    defined: np.ndarray  # (n,) bool
    max_residual: float  # max interior |tau2|


def verdict_series(
    samples: CurveSamples, config: NumericsConfig = DEFAULT_CONFIG
) -> VerdictSeries:
    """``verify``'s collector of the tile chain: the series ``classify_curve``
    reads and a running interior max of |tau2|, with the bits of
    ``frenet_apparatus`` and ``tension2_direct`` on the whole curve.  It
    does not evaluate the frame expansion."""
    n = samples.n
    k, tau, N3, B3 = (np.empty(n) for _ in range(4))
    defined = np.empty(n, dtype=bool)
    worst = -np.inf

    for tile, rows, inner, frenet, t2 in _tile_chain(samples, config):
        worst = np.maximum(worst, np.linalg.norm(t2[inner], axis=1).max())
        for full, own in ((k, frenet.k), (tau, frenet.tau), (N3, frenet.N3), (B3, frenet.B3),
                          (defined, frenet.defined)):
            full[tile] = own[rows]
        del frenet, t2  # before the next tile's chain runs

    return VerdictSeries(samples, k=k, tau=tau, N3=N3, B3=B3, defined=defined,
                         max_residual=float(worst))


def _expansion_gap(frenet: FrenetSeries, coefficients, t2: np.ndarray, rows: slice):
    """Worst |t2 - (cT T + cN N + cB B)| on ``rows``, in place in one array."""
    cT, cN, cB = coefficients
    gap = cT[rows, None] * frenet.samples.velocity_frame[rows]
    gap += cN[rows, None] * frenet.N[rows]
    gap += cB[rows, None] * frenet.B[rows]
    np.subtract(t2[rows], gap, out=gap)
    return np.abs(gap, out=gap).max()


# ---------------------------------------------------------------------------
# Characterization systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemCheck:
    """A residual against its tolerance; its name is the key it is filed
    under in ``ClassificationResult.checks``.  A worst-interior check also
    gives the sample where its residual is worst, and that sample's s; the
    other checks leave both None."""

    residual: float
    tolerance: float
    sample: int | None = None
    s: float | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "sample": self.sample,
            "s": self.s,
        }


def _spread_check(series: np.ndarray, config: NumericsConfig) -> tuple[SystemCheck, float]:
    """The spread check of an interior series, max - min against
    ``constancy_tol`` (1 + |mean|), and the series' mean."""
    mean = float(series.mean())
    spread = float(series.max() - series.min())
    return SystemCheck(spread, config.constancy_tol * (1.0 + abs(mean))), mean


def _worst_check(samples: CurveSamples, residual, config: NumericsConfig) -> SystemCheck:
    """The worst-interior check: the largest ``residual(rows)`` on the
    interior (``CurveSamples.interior_max``) against ``relation_tol``, and
    its sample."""
    worst, at = samples.interior_max(residual, _BITENSION_DEPTH)
    return SystemCheck(worst, config.relation_tol, at, float(samples.s[at]))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

VERDICTS = (
    "geodesic",
    "nongeodesic_biharmonic",
    "helix_not_biharmonic",
    "not_biharmonic",
)


@dataclass
class ClassificationResult:
    verdict: str
    checks: dict[str, SystemCheck]
    values: dict[str, float]

    @property
    def is_biharmonic(self) -> bool:
        return self.verdict in ("geodesic", "nongeodesic_biharmonic")

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "biharmonic": self.is_biharmonic,
            "checks": {name: c.as_dict() for name, c in self.checks.items()},
            "values": self.values,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def classify_curve(
    frenet: FrenetSeries | VerdictSeries, config: NumericsConfig = DEFAULT_CONFIG
) -> ClassificationResult:
    """Classify a unit-speed curve by its Frenet series: ``frenet_apparatus``
    of its samples, ``BitensionReport.frenet`` or ``verdict_series``, of
    which it reads k, tau, N3, B3, ``defined`` and the samples.

    The ``system_*`` checks test the module's biharmonicity system with the
    manifold's own coefficients (on (0, 1): l^2/4 = 1/4, unit coefficient),
    and the ``helix_*`` checks B3 = const != 0, N3 = 0, tau = const and
    N3 B3 = 0.  Each is built once, on interior(3), after one test that the
    frame is defined there.  ``system_torsion_derivative`` tests
    tau' = mu N3 B3, mu = l^2 - 4m, as the worst
    |tau(s) - tau(s_a) - mu int_{s_a}^{s} N3 B3 ds| on interior(3), s_a its
    first sample, with ``cumulative_simpson`` (so TooFewSamples unless the
    interior holds three samples).  The four worst-interior checks give
    their worst sample and its s.

    geodesic                 tension field vanishes (within residual_tol);
    nongeodesic_biharmonic   the full characterization system holds;
    helix_not_biharmonic     constant k and tau with B3 away from zero, but
                             the algebraic relation fails;
    not_biharmonic           everything else: B3 ~ 0, which forces
                             tau^2 = 1/4 and rules biharmonicity out, and a
                             frame (tau) undefined on an interior sample,
                             where k falls to the floor on that sample or on
                             one its nabla_T N stencil reaches; such a curve
                             carries the k_constant check alone.
    """
    samples = frenet.samples
    t1_max = float(frenet.k[samples.interior(1)].max())  # k = |nabla_T T|
    values: dict[str, float] = {"tension1_max": t1_max}
    checks: dict[str, SystemCheck] = {
        "tension1_zero": SystemCheck(t1_max, config.residual_tol)
    }

    if t1_max <= max(config.k_floor, config.residual_tol):
        return ClassificationResult("geodesic", checks, values)

    interior = samples.interior(_BITENSION_DEPTH)
    k, tau, N3, B3 = frenet.k, frenet.tau, frenet.N3, frenet.B3
    k_constant, values["k_mean"] = _spread_check(k[interior], config)
    checks["system_k_constant"] = k_constant
    if not frenet.defined[interior].all():  # tau is undefined inside: no system to evaluate
        return ClassificationResult("not_biharmonic", checks, values)

    params = samples.manifold
    lam, mu = 0.25 * params.l * params.l, params.flatness

    def relation(w):
        return np.abs(k[w]**2 + tau[w]**2 - (lam - mu * B3[w]**2))

    # tau(s) - tau(s_a) = mu int_{s_a}^{s} N3 B3 ds with s_a = s[a], the
    # integral carried from one piece of the interior to the next
    a, b = interior.start, interior.stop
    carried = a, np.zeros(1)  # the last piece's first sample and running integral

    def torsion(rows):
        nonlocal carried
        # restart Simpson's rule an even number of samples past s_a, and read
        # one sample past the piece: each interval's rule is the whole interior's
        lo = max(a, rows.start - 1 - (rows.start - 1 - a) % 2)
        hi = min(rows.stop + 1, b)
        first, integral = carried
        integral = cumulative_simpson(N3[lo:hi] * B3[lo:hi], samples.ds, integral[lo - first])
        carried = lo, integral
        return np.abs(tau[rows] - tau[a] - mu * integral[rows.start - lo:rows.stop - lo])

    tau_constant, tau_mean = _spread_check(tau[interior], config)
    B3_constant, B3_mean = _spread_check(B3[interior], config)
    B3_nonzero = SystemCheck(config.b3_zero_tol, abs(B3_mean))
    system = {
        "k_constant": k_constant,
        # residual formulation: passes when k is NOT negligible
        "k_nonzero": SystemCheck(config.k_floor, abs(values["k_mean"])),
        "algebraic_relation": _worst_check(samples, relation, config),
        "torsion_derivative": _worst_check(samples, torsion, config),
    }
    helix = {
        "B3_constant": B3_constant,
        "B3_nonzero": B3_nonzero,
        "N3_zero": _worst_check(samples, lambda w: np.abs(N3[w]), config),
        "tau_constant": tau_constant,
        "N3B3_zero": _worst_check(samples, lambda w: np.abs(N3[w] * B3[w]), config),
    }
    checks.update({f"system_{name}": c for name, c in system.items()})
    checks.update({f"helix_{name}": c for name, c in helix.items()})
    values.update(tau_mean=tau_mean, B3_mean=B3_mean, curvature_level=lam, coefficient=mu,
                  N3_max=checks["helix_N3_zero"].residual)

    if all(c.passed for c in system.values()):
        verdict = "nongeodesic_biharmonic"
    elif k_constant.passed and tau_constant.passed and B3_nonzero.passed:
        verdict = "helix_not_biharmonic"
    else:
        verdict = "not_biharmonic"
    return ClassificationResult(verdict, checks, values)


# ---------------------------------------------------------------------------
# Cone of biharmonic directions and the contact pairing
# ---------------------------------------------------------------------------


def cone_membership(params: ManifoldParams, X) -> str:
    """Whether the unit direction X, three frame components, admits a
    non-geodesic biharmonic curve.

    Frame components are left-invariant, so the answer is the same at every
    base point; with cos(alpha0) = <X, e3> the direction lies in the solid
    cone iff 5 cos(alpha0)^2 - 4 >= 0 (``admissible_cos``) and
    sin(alpha0) != 0; the boundary, a double root of the rate quadratic, is
    included.  NonUnitVector unless | |X| - 1 | <= 1e-9 (NaN fails), the
    rule of ``factory._require_unit``.
    """
    if not params.is_heisenberg:
        raise UnsupportedManifold("the biharmonic cone is implemented for (0, 1) only")
    cos_a = float(_require_unit(X, "direction")[2])
    if admissible_cos(cos_a) and 1.0 - cos_a * cos_a > 1e-12:
        return "biharmonic_direction"
    return "geodesic_only"


def legendre_pairing(samples: CurveSamples) -> np.ndarray:
    """Value of the twist one-form on the velocity, per sample.

    On the Heisenberg group this is the contact form
    theta3 = dz - (x dy - y dx)/2; curves with vanishing pairing are
    Legendre curves.  Computed from the coordinate velocity so it provides
    an independent route to the third frame component of T.
    """
    v_coord = samples.velocity_coord()
    theta = mf.coframe_at(samples.manifold, samples.points)
    return np.einsum("nk,nk->n", theta[:, 2, :], v_coord)


def residuals_to_csv(path, report: BitensionReport) -> None:
    """Write the residual series as ``s,cT,cN,cB,residual`` rows; the
    frame coefficients are empty on geodesics."""
    series = (report.frenet.samples.s, report.cT, report.cN, report.cB, report.residual)
    _write_table(path, ("s", "cT", "cN", "cB", "residual"), series)
