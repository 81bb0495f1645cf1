import math

import numpy as np
import pytest

from heiscurves import HEISENBERG, CurveSpec, HelixParams, biharmonic_helix, sample_curve
from heiscurves.numerics import cumulative_simpson

FIGURE1_COS = 3.0 / math.sqrt(10.0)
FIGURE1_ALPHA0 = math.acos(FIGURE1_COS)

# Frozen oracle values for the figure-parameter helix (plus branch), computed
# from the quadratic root A = (cos(a0) + sqrt(5 cos(a0)^2 - 4)) / 2 and the
# closed forms k = sin(a0)(cos(a0) - A), tau = -(cos(a0) A + 1/2 - cos(a0)^2).
FIGURE1_A = 0.8278950396185307
FIGURE1_K = 0.0381966011250105
FIGURE1_TAU = -0.38541019662496856
FIGURE1_B3 = -0.31622776601683805


@pytest.fixture(scope="session")
def figure1_hp():
    return HelixParams(alpha0=FIGURE1_ALPHA0, branch="plus")


@pytest.fixture(scope="session")
def figure1_samples(figure1_hp):
    spec = biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
    return sample_curve(spec, 2001)


def inflection_spec() -> CurveSpec:
    """A unit-speed horizontal curve on H3 with an inflection point: T =
    (cos b, sin b, 0), b = (s - 2)**2 / 2, s in [0, 4], so k = |s - 2|
    vanishes at s = 2, a sample at every odd n.  The points integrate
    x' = T1, y' = T2 and z' = (x T2 - y T1) / 2 on the grid itself."""

    def sampler(s):
        beta = 0.5 * (s - 2.0) ** 2
        T = np.stack([np.cos(beta), np.sin(beta), np.zeros_like(s)], axis=-1)
        xy = cumulative_simpson(T[:, :2], s[1] - s[0])
        z = cumulative_simpson(0.5 * (xy[:, 0] * T[:, 1] - xy[:, 1] * T[:, 0]), s[1] - s[0])
        return np.column_stack([xy, z]), T

    return CurveSpec(manifold=HEISENBERG, s_range=(0.0, 4.0), sampler=sampler)


def random_domain_point(rng: np.random.Generator, m: float, scale: float = 3.0):
    """A point safely inside the chart (needed when m < 0)."""
    if m < 0.0:
        radius = 0.6 / math.sqrt(-m)
        xy = rng.uniform(-radius / math.sqrt(2.0), radius / math.sqrt(2.0), 2)
        z = rng.uniform(-scale, scale)
        return np.array([xy[0], xy[1], z])
    return rng.uniform(-scale, scale, 3)


def assert_nan_outside(values, interior: slice):
    """Every row of ``values`` before ``interior`` and after it is NaN:
    no number past the stencil's reach."""
    values = np.asarray(values, dtype=float)
    assert np.isnan(values[:interior.start]).all()
    assert np.isnan(values[interior.stop:]).all()
