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

Each derived series is computed once per curve: ``frenet_apparatus`` keeps
nabla_T T on its series, and the tension passes extend it to tau2, so a
verdict costs four covariant-derivative passes.

One chain (Frenet frame -> nabla_T N and tau -> tau2) runs over the tiles
``CurveSamples.tiles`` gives for its ``_BITENSION_DEPTH`` nested passes,
each differenced with the curve's one ``ds``; so every sample gets the bits
of the whole-curve chain, and the (n, 3) temporaries are tile-sized.  Every
derivative, interior and tile here comes from the samples, which checked
their points when they were built: no pass or tile checks them again.  Two
collectors keep what their command reads, per sample:

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
either's series.  ``check_system_33`` and ``check_helix_system`` build each
check but the two nonzero ones with one of two builders: ``_spread_check``
(max - min of an interior series against ``constancy_tol`` (1 + |mean|))
and ``_worst_check`` (the largest interior residual against
``relation_tol``, which ``CurveSamples.interior_max`` finds tile by tile,
so a verdict adds no per-sample temporary that spans the curve).

Directions are plain frame-component arrays: ``cone_membership`` takes
three components, with no base point, since the cone is the same at every
point of the group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import manifold as mf
from .curves import CurveSamples, FrenetSeries, covariant_derivative_along, frenet_apparatus
from .curves import _write_table
from .errors import GeodesicFrameUndefined, UnsupportedManifold
from .factory import _require_unit, admissible_cos
from .manifold import ManifoldParams
from .numerics import DEFAULT_CONFIG, NumericsConfig

__all__ = [
    "tension1",
    "tension2_direct",
    "tension2_frame",
    "BitensionReport",
    "bitension_report",
    "VerdictSeries",
    "verdict_series",
    "SystemCheck",
    "SystemReport",
    "check_system_33",
    "check_helix_system",
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
        part = replace(samples, s=samples.s[window], points=samples.points[window],
                       velocity_frame=samples.velocity_frame[window])  # keeps the curve's ds
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
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class SystemReport:
    """Measured residuals of one characterization system."""

    checks: dict[str, SystemCheck]
    values: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def __getitem__(self, name: str) -> SystemCheck:
        return self.checks[name]


def _interior_frenet(frenet: FrenetSeries | VerdictSeries):
    interior = frenet.samples.interior(_BITENSION_DEPTH)
    if not frenet.defined[interior].all():
        raise GeodesicFrameUndefined(
            "Frenet frame undefined on interior samples: k is at or below "
            "k_floor there or on a sample the stencil of nabla_T N reaches"
        )
    return interior


def _spread_check(
    name: str, series: np.ndarray, config: NumericsConfig
) -> tuple[SystemCheck, float]:
    """The spread check of an interior series, max - min against
    ``constancy_tol`` (1 + |mean|), and the series' mean."""
    mean = float(series.mean())
    spread = float(series.max() - series.min())
    return SystemCheck(name, spread, config.constancy_tol * (1.0 + abs(mean))), mean


def _worst_check(name: str, samples: CurveSamples, residual,
                 config: NumericsConfig) -> SystemCheck:
    """The worst-interior check: the largest ``residual(window)`` on the
    interior (``CurveSamples.interior_max``) against ``relation_tol``."""
    worst, _ = samples.interior_max(residual, _BITENSION_DEPTH)
    return SystemCheck(name, worst, config.relation_tol)


def check_system_33(
    frenet: FrenetSeries | VerdictSeries, config: NumericsConfig = DEFAULT_CONFIG
) -> SystemReport:
    """Residuals of the non-geodesic biharmonicity system

        k = const != 0,
        k^2 + tau^2 = l^2/4 - (l^2 - 4m) B3^2,
        tau' = (l^2 - 4m) N3 B3,

    evaluated with the manifold's own coefficients (for (0, 1) this is the
    Heisenberg system with l^2/4 = 1/4 and unit coefficient), on a
    ``FrenetSeries`` or a ``VerdictSeries``.
    """
    params = frenet.samples.manifold
    lam = 0.25 * params.l * params.l
    mu = params.flatness
    interior = _interior_frenet(frenet)
    k, tau, B3, N3 = frenet.k, frenet.tau, frenet.B3, frenet.N3

    def relation(w):
        return np.abs(k[w]**2 + tau[w]**2 - (lam - mu * B3[w]**2))

    def torsion(w):
        return np.abs(frenet.samples.derivative(tau[w]) - mu * N3[w] * B3[w])

    k_constant, k_mean = _spread_check("k_constant", k[interior], config)
    checks = (
        k_constant,
        # residual formulation: passes when k is NOT negligible
        SystemCheck("k_nonzero", config.k_floor, abs(k_mean)),
        _worst_check("algebraic_relation", frenet.samples, relation, config),
        _worst_check("torsion_derivative", frenet.samples, torsion, config),
    )
    values = {
        "k_mean": k_mean,
        "tau_mean": float(tau[interior].mean()),
        "B3_mean": float(B3[interior].mean()),
        "curvature_level": lam,
        "coefficient": mu,
    }
    return SystemReport({c.name: c for c in checks}, values)


def check_helix_system(
    frenet: FrenetSeries | VerdictSeries, config: NumericsConfig = DEFAULT_CONFIG
) -> SystemReport:
    """Residuals of the biharmonic-helix conditions

        B3 = const != 0,  N3 = 0,

    together with the helix-form conditions tau = const and N3 B3 = 0, on a
    ``FrenetSeries`` or a ``VerdictSeries``.  The relation
    k^2 + tau^2 = l^2/4 - (l^2 - 4m) B3^2 is ``check_system_33``'s."""
    interior = _interior_frenet(frenet)
    N3, B3 = frenet.N3, frenet.B3
    B3_constant, B3_mean = _spread_check("B3_constant", B3[interior], config)
    tau_constant, tau_mean = _spread_check("tau_constant", frenet.tau[interior], config)
    checks = (
        B3_constant,
        SystemCheck("B3_nonzero", config.b3_zero_tol, abs(B3_mean)),
        _worst_check("N3_zero", frenet.samples, lambda w: np.abs(N3[w]), config),
        tau_constant,
        _worst_check("N3B3_zero", frenet.samples, lambda w: np.abs(N3[w] * B3[w]), config),
    )
    return SystemReport({c.name: c for c in checks}, {"tau_mean": tau_mean, "B3_mean": B3_mean})


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

    geodesic                 tension field vanishes (within residual_tol);
    nongeodesic_biharmonic   the full characterization system holds;
    helix_not_biharmonic     constant k and tau with B3 away from zero, but
                             the algebraic relation fails;
    not_biharmonic           everything else.  Curves with B3 ~ 0 land here
                             regardless of helix structure: a vanishing third
                             binormal component forces tau^2 = 1/4 and rules
                             biharmonicity out unconditionally; so do
                             non-geodesic curves whose frame (tau) is
                             undefined on an interior sample, which carry
                             the k_constant check alone: the curvature
                             falls to the floor on that sample or on one its
                             nabla_T N stencil reaches, so the system cannot
                             be evaluated there.
    """
    t1_max = float(frenet.k[frenet.samples.interior(1)].max())  # k = |nabla_T T|
    values: dict[str, float] = {"tension1_max": t1_max}
    checks: dict[str, SystemCheck] = {
        "tension1_zero": SystemCheck("tension1_zero", t1_max, config.residual_tol)
    }

    if t1_max <= max(config.k_floor, config.residual_tol):
        return ClassificationResult("geodesic", checks, values)

    interior = frenet.samples.interior(_BITENSION_DEPTH)
    if not frenet.defined[interior].all():  # tau is undefined inside: no system to evaluate
        checks["system_k_constant"], values["k_mean"] = _spread_check(
            "k_constant", frenet.k[interior], config)
        return ClassificationResult("not_biharmonic", checks, values)

    sys33 = check_system_33(frenet, config)
    helix = check_helix_system(frenet, config)
    checks.update({f"system_{k}": c for k, c in sys33.checks.items()})
    checks.update({f"helix_{k}": c for k, c in helix.checks.items()})
    values.update(sys33.values, N3_max=helix["N3_zero"].residual)

    if sys33.all_passed:
        verdict = "nongeodesic_biharmonic"
    elif (
        sys33["k_constant"].passed
        and helix["tau_constant"].passed
        and helix["B3_nonzero"].passed
    ):
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
