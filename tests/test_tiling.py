"""``bitension_report`` and ``verdict_series`` run one stencil chain tile
by tile (``CurveSamples.tiles``), and the characterization checks take their
maxima tile by tile.  Every per-sample series, every check residual and
the verdict must equal, bit for bit, a whole-curve evaluation through the
public full-array functions, on both input routes and on a curve whose frame
exists on part of its length only."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heiscurves as hc
from heiscurves import manifold as mf
from heiscurves.numerics import TILE, cumulative_simpson

from conftest import assert_nan_outside

H = hc.HEISENBERG
# one tile up to TILE samples, two at TILE + 1 (the shortest tiles), three
# at 2 TILE + 7, where the middle tile has a halo on both sides
SIZES = (TILE - 1, TILE, TILE + 1, 2 * TILE + 7)
# n from 9 to 3 TILE + 7, drawn as whole tiles and an offset past them, so
# that most draws span two tiles or more and the last tile is short or long
SAMPLE_COUNTS = st.builds(lambda tiles, offset: max(9, tiles * TILE + offset),
                          st.integers(0, 2), st.integers(1, TILE + 7))


def line_then_arc(rate=0.8):
    """On s < 0 the horizontal line (s, 0, 0), a geodesic without a Frenet
    frame; on s >= 0 the horizontal arc whose tangent turns at ``rate``
    (T3 = 0, k = rate).  On s in [-6, 4] the first tile of 2 TILE + 7
    samples, halo included, lies on the line."""

    def sampler(s):
        s = np.asarray(s, dtype=float)
        arc = np.maximum(s, 0.0)
        beta = rate * arc
        points = np.stack([
            np.minimum(s, 0.0) + np.sin(beta) / rate,
            (1.0 - np.cos(beta)) / rate,
            (arc - np.sin(beta) / rate) / (2.0 * rate),
        ], axis=-1)
        return points, np.stack([np.cos(beta), np.sin(beta), np.zeros_like(s)], axis=-1)

    return hc.CurveSpec(manifold=H, s_range=(-6.0, 4.0), sampler=sampler)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture
def samples(request, figure1_hp, tmp_path):
    route, n = request.param
    if route == "mixed":
        return hc.sample_curve(line_then_arc(), n)
    spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
    if route == "sampler":
        return hc.sample_curve(spec, n)
    path = tmp_path / "positions.csv"
    hc.write_samples_csv(path, hc.sample_curve(spec, n))
    return hc.import_samples(H, *hc.read_samples_csv(path))


CASES = [(route, n) for route in ("sampler", "csv", "mixed") for n in SIZES]


@pytest.mark.parametrize("samples", CASES, indirect=True, ids=[f"{r}-{n}" for r, n in CASES])
def test_tiles_match_the_whole_curve(samples):
    if samples.velocity_depth:
        # positions differenced over the whole curve
        v_coord = samples.derivative(samples.points)
        whole_velocity = mf.to_frame_components(H, samples.points, v_coord)
        assert _bits(samples.velocity_frame) == _bits(whole_velocity)

    rep = hc.bitension_report(samples)
    whole = hc.frenet_apparatus(samples)
    for name in ("k", "tau", "N", "B", "defined"):
        assert _bits(getattr(rep.frenet, name)) == _bits(getattr(whole, name)), name
    assert rep.frenet.samples is whole.samples is samples
    assert samples.ds == float(samples.s[1] - samples.s[0])
    assert rep.frenet.t1 is None

    t2 = hc.tension2_direct(samples)
    residual = np.linalg.norm(t2, axis=1)
    interior = samples.interior(3)
    assert _bits(rep.residual) == _bits(residual)
    assert rep.max_residual == float(residual[interior].max())
    assert rep.mean_residual == float(residual[interior].mean())

    if whole.defined[interior].all():
        cT, cN, cB = hc.tension2_frame(whole)
        assert (_bits(rep.cT), _bits(rep.cN), _bits(rep.cB)) == (_bits(cT), _bits(cN), _bits(cB))
        T = samples.velocity_frame
        expansion = cT[:, None] * T + cN[:, None] * whole.N + cB[:, None] * whole.B
        assert rep.expansion_agreement == float(np.abs(t2 - expansion)[interior].max())
    else:
        assert whole.defined.any()  # the mixed curve
        assert rep.cT is None and rep.cN is None and rep.cB is None
        assert rep.expansion_agreement is None
    assert hc.classify_curve(rep.frenet).to_json() == hc.classify_curve(whole).to_json()


def _frame_where_tau_exists(frenet: hc.FrenetSeries) -> None:
    """``defined`` is false exactly where tau is NaN, and so are N and B."""
    undefined = np.isnan(frenet.tau)
    assert np.array_equal(frenet.defined, ~undefined)
    for v in (frenet.N, frenet.B):
        assert np.array_equal(np.isnan(v), np.repeat(undefined[:, None], 3, axis=1))


def test_frame_is_defined_exactly_where_tau_exists():
    """On this geodesic k is below the floor on its interior and NaN on the
    last two samples, which the stencil does not reach: no sample has a
    frame, and ``.frenet.json`` writes null for tau exactly where
    ``defined`` is false.  On the line-then-arc curve k clears the floor at
    the first arc samples, but the stencil of nabla_T N there reaches the
    line, where it does not: those samples have no tau, so no frame, and
    the tiled series matches the whole curve's there."""
    spec = hc.geodesic_ivp(hc.ManifoldParams(0.25, 1.2), [0.1, 0.2, 0.0], [0.6, 0.0, 0.8],
                           (0.0, 20.0))
    samples = hc.sample_curve(spec, 1001)
    frenet = hc.frenet_apparatus(samples)
    interior = samples.interior(1)
    assert (frenet.k[interior] <= hc.DEFAULT_CONFIG.k_floor).all()
    assert_nan_outside(frenet.k, interior)
    assert not frenet.defined.any()
    _frame_where_tau_exists(frenet)
    columns = json.loads(hc.frenet_to_json(frenet))["columns"]
    assert [t is None for t in columns["tau"]] == [not d for d in columns["defined"]]

    samples = hc.sample_curve(line_then_arc(), 2 * TILE + 7)
    whole, tiled = hc.frenet_apparatus(samples), hc.bitension_report(samples).frenet
    assert (whole.k > hc.DEFAULT_CONFIG.k_floor).sum() > whole.defined.sum() > 0
    for series in (whole, tiled):
        _frame_where_tau_exists(series)
    for name in ("defined", "tau", "N", "B"):
        assert _bits(getattr(tiled, name)) == _bits(getattr(whole, name)), name


def test_undefined_frame_at_the_interior_edge():
    """The line of ``line_then_arc`` ends at sample 6, so k is at the floor
    up to sample 4, between interior(2) and interior(3), and above it from
    sample 5 on.  The nabla_T N stencil of sample 6, the first of
    interior(3), reaches sample 4: its tau is undefined although its k is
    not, so ``classify_curve`` takes the undefined-frame branch, whose one
    system check is k_constant; here it fails on the curvature's ramp."""
    n = 1001
    h = 4.0 / (n - 7)
    spec = hc.CurveSpec(manifold=H, s_range=(-6 * h, 4.0), sampler=line_then_arc().sampler)
    samples = hc.sample_curve(spec, n)
    frenet = hc.frenet_apparatus(samples)
    floor = hc.DEFAULT_CONFIG.k_floor
    assert samples.interior(2).start == 4 and samples.interior(3).start == 6
    assert (frenet.k[2:5] <= floor).all() and (frenet.k[5:-2] > floor).all()
    assert_nan_outside(frenet.k, samples.interior(1))
    assert not frenet.defined[:7].any() and frenet.defined[7:-4].all()
    assert not frenet.defined[-4:].any()

    result = hc.classify_curve(frenet)
    assert result.verdict == "not_biharmonic"
    assert list(result.checks) == ["tension1_zero", "system_k_constant"]
    assert not result.checks["system_k_constant"].passed
    interior_k = frenet.k[samples.interior(3)]
    assert result.checks["system_k_constant"].residual == float(interior_k.max() - interior_k.min())
    assert list(result.values) == ["tension1_max", "k_mean"]
    for series in (hc.verdict_series(samples), hc.bitension_report(samples).frenet):
        assert hc.classify_curve(series).to_json() == result.to_json()


def _whole_curve_residuals(frenet: hc.FrenetSeries) -> dict:
    """The maxima the checks take tile by tile, as whole-array expressions."""
    params = frenet.samples.manifold
    lam, mu = 0.25 * params.l * params.l, params.flatness
    interior = frenet.samples.interior(3)
    k, tau, N3, B3 = (a[interior] for a in (frenet.k, frenet.tau, frenet.N3, frenet.B3))
    integral = cumulative_simpson(N3 * B3, frenet.samples.ds)  # from s_a, the interior's first s
    return {
        "system_algebraic_relation": float(np.abs(k**2 + tau**2 - (lam - mu * B3**2)).max()),
        "system_torsion_derivative": float(np.abs(tau - tau[0] - mu * integral).max()),
        "helix_N3_zero": float(np.abs(N3).max()),
        "helix_N3B3_zero": float(np.abs(N3 * B3).max()),
    }


@pytest.mark.parametrize("samples", CASES, indirect=True, ids=[f"{r}-{n}" for r, n in CASES])
def test_verdict_series_matches_the_whole_curve(samples):
    series = hc.verdict_series(samples)
    whole = hc.frenet_apparatus(samples)
    for name in ("k", "tau", "N3", "B3", "defined"):
        assert _bits(getattr(series, name)) == _bits(getattr(whole, name)), name
    assert series.samples is samples

    residual = np.linalg.norm(hc.tension2_direct(samples), axis=1)
    assert _bits(np.float64(series.max_residual)) == _bits(residual[samples.interior(3)].max())
    assert hc.classify_curve(series).to_json() == hc.classify_curve(whole).to_json()

    if whole.defined[samples.interior(3)].all():
        checks = hc.classify_curve(series).checks
        for name, value in _whole_curve_residuals(whole).items():
            assert _bits(np.float64(checks[name].residual)) == _bits(np.float64(value)), name
        assert hc.classify_curve(series).values["N3_max"] == checks["helix_N3_zero"].residual


@pytest.mark.parametrize("collect", [hc.verdict_series, hc.bitension_report])
def test_no_interior_raises(collect, figure1_hp):
    spec = hc.biharmonic_helix(figure1_hp, (0.0, 1.0))
    # the three nested passes reach 6 samples in from each end
    with pytest.raises(hc.TooFewSamples):
        collect(hc.sample_curve(spec, 12))
    assert collect(hc.sample_curve(spec, 13)).max_residual >= 0.0  # one interior sample


def _flat_samples(n, params=H, velocity_depth=0):
    """``n`` samples whose arrays are only what their shape needs."""
    return hc.CurveSamples(params, np.arange(float(n)), np.zeros((n, 3)), np.zeros((n, 3)),
                           velocity_depth=velocity_depth)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=SAMPLE_COUNTS, depth=st.integers(0, 3), velocity_depth=st.integers(0, 1))
def test_tiles_cover_the_curve_and_its_interior(n, depth, velocity_depth):
    """``CurveSamples.tiles``: the tiles' rows cover the curve once, their
    interior rows cover ``interior(depth)`` once, and each window reaches
    2 depth samples past its tile, except where the curve ends."""
    samples = _flat_samples(n, velocity_depth=velocity_depth)
    try:
        interior = samples.interior(depth)
    except hc.TooFewSamples:
        with pytest.raises(hc.TooFewSamples):
            next(samples.tiles(depth))
        return
    rows_seen, inner_seen = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    for tile, window, rows, inner in samples.tiles(depth):
        assert (window.start, window.stop) == (max(0, tile.start - 2 * depth),
                                               min(n, tile.stop + 2 * depth))
        index = np.arange(window.start, window.stop)
        assert np.array_equal(index[rows], np.arange(tile.start, tile.stop))
        assert len(index[inner]) > 0
        rows_seen[index[rows]] += 1
        inner_seen[index[inner]] += 1
    assert (rows_seen == 1).all()
    expected = np.zeros(n, dtype=int)
    expected[interior] = 1
    assert np.array_equal(inner_seen, expected)


@settings(max_examples=100, deadline=None, derandomize=True)
# the worst sample in the last tile, tied in the second and third, and a NaN
# in the second tile after a tie in the first
@example(n=2 * TILE + 7, depth=3, velocity_depth=1, seed=1, levels=3, peaks=[0.9], nans=[])
@example(n=2 * TILE + 7, depth=0, velocity_depth=0, seed=2, levels=2, peaks=[0.5, 0.8], nans=[])
@example(n=2 * TILE + 7, depth=2, velocity_depth=0, seed=3, levels=1, peaks=[0.1, 0.2], nans=[0.6])
@given(n=SAMPLE_COUNTS, depth=st.integers(0, 3), velocity_depth=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4),
       peaks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
       nans=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=2))
def test_interior_max_is_the_first_worst_interior_sample(n, depth, velocity_depth, seed, levels,
                                                        peaks, nans):
    """``CurveSamples.interior_max`` over the tiles returns the whole
    interior's maximum and the absolute index of its first NaN, or else of
    its first largest value.  A residual of a few levels below 1 repeats
    its maximum; one raised to 1 at ``peaks`` (fractions of the curve)
    repeats it where drawn."""
    samples = _flat_samples(n, velocity_depth=velocity_depth)
    r = np.random.default_rng(seed).integers(0, levels, n) / levels
    r[[int(f * n) for f in peaks]] = 1.0
    r[[int(f * n) for f in nans]] = np.nan
    try:
        interior = samples.interior(depth)
    except hc.TooFewSamples:
        with pytest.raises(hc.TooFewSamples):
            samples.interior_max(lambda w: r[w], depth)
        return
    value, sample = samples.interior_max(lambda w: r[w], depth)
    expected = r[interior]
    assert _bits(np.float64(value)) == _bits(expected.max())
    assert sample == interior.start + int(np.argmax(expected))


def _spiked_series(params, n, p):
    """A Frenet series of noise whose k and N3 peak at sample ``p``; the
    checks read only its k, tau, N3, B3 and ``defined``."""
    rng = np.random.default_rng(p)
    samples = hc.CurveSamples(params, np.linspace(0.0, 1.0, n), np.zeros((n, 3)),
                              np.tile([1.0, 0.0, 0.0], (n, 1)))
    k = 1.0 + 1e-3 * rng.standard_normal(n)
    N, B = np.zeros((n, 3)), np.zeros((n, 3))
    N[:, 2], B[:, 2] = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
    k[p], N[p, 2] = 3.0, 0.9
    tau = 0.25 + 1e-3 * samples.s**2  # smooth, so that tau's drift does not swamp N3 B3
    return hc.FrenetSeries(samples, k=k, N=N, B=B, tau=tau, defined=np.ones(n, dtype=bool))


def test_check_maxima_see_every_tile_edge():
    """The checks' tile-by-tile maxima reach each tile's first and last
    interior sample, on a member whose coefficient l^2 - 4m is not 1, for
    a ``FrenetSeries`` and for a ``VerdictSeries`` of the same values."""
    n = 2 * TILE + 7
    params = hc.ManifoldParams(0.25, 1.2)
    edges = set()
    for _, window, _, inner in _flat_samples(n, params).tiles(3):
        edges |= {window.start + inner.start, window.start + inner.stop - 1}
    assert len(edges) == 6
    for p in sorted(edges):
        frenet = _spiked_series(params, n, p)
        series = hc.VerdictSeries(frenet.samples, k=frenet.k, tau=frenet.tau,
                                  N3=frenet.N3.copy(), B3=frenet.B3.copy(),
                                  defined=frenet.defined, max_residual=0.0)
        expected = _whole_curve_residuals(frenet)
        for source in (frenet, series):
            checks = hc.classify_curve(source).checks
            for name, value in expected.items():
                assert _bits(np.float64(checks[name].residual)) == _bits(np.float64(value)), (p, name)
        assert hc.classify_curve(series).to_json() == hc.classify_curve(frenet).to_json()
