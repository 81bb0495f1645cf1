"""``bitension_report`` runs its stencil chain tile by tile
(``numerics.tiles``).  Every per-sample series, every check residual and
the verdict must equal, bit for bit, a whole-curve evaluation through the
public full-array functions, on both input routes and on a curve whose frame
exists on part of its length only."""

import math

import numpy as np
import pytest

import heiscurves as hc
from heiscurves import manifold as mf
from heiscurves.numerics import TILE, derivative_on_grid

H = hc.HEISENBERG
# one tile up to TILE samples, two at TILE + 1 (the shortest tiles), three
# at 2 TILE + 7, where the middle tile has a halo on both sides
SIZES = (TILE - 1, TILE, TILE + 1, 2 * TILE + 7)


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


def _classified(frenet: hc.FrenetSeries) -> str:
    try:
        return hc.classify_curve(frenet).to_json()
    except hc.GeodesicFrameUndefined as exc:
        return repr(exc)


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
        v_coord = derivative_on_grid(samples.points, samples.ds)
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

    if whole.defined.all():
        cT, cN, cB = hc.tension2_frame(whole)
        assert (_bits(rep.cT), _bits(rep.cN), _bits(rep.cB)) == (_bits(cT), _bits(cN), _bits(cB))
        T = samples.velocity_frame
        expansion = cT[:, None] * T + cN[:, None] * whole.N + cB[:, None] * whole.B
        assert rep.expansion_agreement == float(np.abs(t2 - expansion)[interior].max())
    else:
        assert whole.defined.any()  # the mixed curve
        assert rep.cT is None and rep.cN is None and rep.cB is None
        assert rep.expansion_agreement is None
    assert _classified(rep.frenet) == _classified(whole)
