"""Metamorphic relations: transformations that map a curve's samples to the
samples of a congruent curve, so that the verdict, k and tau must not move.

* Rotation by an angle about the z axis, an isometry of every (m, l)
  member: (x, y) and the frame components (V1, V2) rotate, z and V3 stay.
* Reversal s -> s0 + s1 - s: the rows run backwards under the same s, and
  the frame velocities change sign.  k and tau stay; T and B flip.

Each transformed curve comes in through ``import_samples`` with its
velocities, as ``verify`` reads a CSV with velocity columns.  A reversed
series is indexed backwards to compare it with the original.  Outside
its interior every derived series is NaN on both curves alike, so the
bounds below hold wherever there is a number.
"""

import math

import numpy as np
import pytest

import heiscurves as hc

from conftest import FIGURE1_A, FIGURE1_ALPHA0

ANGLE = 0.7
SIZES = (1001, 2001)
K_TOL = 1e-12    # k on the interior
TAU_TOL = 1e-10  # tau on the interior, where the frame exists

CURVES = {
    # the paper's figure helix, and the negative control off its rate root
    "helix": lambda: hc.biharmonic_helix(
        hc.HelixParams(alpha0=FIGURE1_ALPHA0, a=1.0, b=1.0, c=1.0), (0.0, 10.0 * math.pi)),
    "off_root": lambda: hc.helix_family_curve(
        FIGURE1_ALPHA0, FIGURE1_A + 0.05, 1.0, 1.0, 1.0, 0.0, (0.0, 10.0 * math.pi)),
    "ml_geodesic": lambda: hc.geodesic_ivp(
        hc.ManifoldParams(0.25, 1.2), [0.1, 0.2, 0.0], [0.6, 0.0, 0.8], (0.0, 20.0)),
}


def rotated(samples):
    """The samples rotated by ``ANGLE`` about the z axis, and the index that
    maps them onto the original rows."""
    c, s = math.cos(ANGLE), math.sin(ANGLE)
    turn = np.array([[c, s], [-s, c]])  # (x, y) rows times turn: rotation by +ANGLE
    points, velocity = samples.points.copy(), samples.velocity_frame.copy()
    points[:, :2] = points[:, :2] @ turn
    velocity[:, :2] = velocity[:, :2] @ turn
    return hc.import_samples(samples.manifold, samples.s, points, velocity), slice(None)


def reversed_(samples):
    """The samples run backwards under the same s, and the index that maps
    them onto the original rows."""
    moved = hc.import_samples(
        samples.manifold, samples.s, samples.points[::-1], -samples.velocity_frame[::-1])
    return moved, slice(None, None, -1)


def _verdict(samples) -> str:
    return hc.classify_curve(hc.verdict_series(samples)).verdict


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("relation", [rotated, reversed_], ids=["rotation", "reversal"])
@pytest.mark.parametrize("curve", sorted(CURVES))
def test_relation_keeps_verdict_k_and_tau(curve, relation, n):
    samples = hc.sample_curve(CURVES[curve](), n)
    moved, back = relation(samples)
    assert not np.array_equal(moved.points, samples.points)
    assert _verdict(moved) == _verdict(samples)

    frenet, other = hc.frenet_apparatus(samples), hc.frenet_apparatus(moved)
    k, tau, defined = other.k[back], other.tau[back], other.defined[back]
    inner = samples.interior(1)
    assert np.abs(k[inner] - frenet.k[inner]).max() <= K_TOL
    assert np.array_equal(np.isnan(k), np.isnan(frenet.k))
    inner = samples.interior(2)
    assert np.array_equal(defined, frenet.defined)
    framed = frenet.defined[inner]
    if curve == "ml_geodesic":
        assert not framed.any()
    else:
        assert framed.all()
        assert np.abs(tau[inner] - frenet.tau[inner]).max() <= TAU_TOL
