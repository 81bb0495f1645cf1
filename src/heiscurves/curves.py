"""Curves, arclength sampling, covariant differentiation and Frenet data.

Curves are always parametrized by arclength.  A curve is a sampler, which
gives the points and the frame velocities on a grid of arclengths together,
from closed formulas or from an integrator; ``sample_curve`` evaluates it on
n uniform samples.  Imported (s, x, y, z) rows, with optional velocities,
are samples already: ``import_samples`` checks them and differences the
positions where the rows carry no velocities.  Both routes give
``CurveSamples``.

Velocities are carried in components of the left-invariant orthonormal
frame, as plain (n, 3) arrays; these are unchanged under left translations,
which makes Frenet data manifestly translation-invariant.  The frame is
oriented (e1 x e2 = e3), so ``np.cross`` of two component arrays is their
cross product.

Torsion sign convention: the Frenet system used throughout is

    nabla_T T =  k N,
    nabla_T N = -k T - tau B,
    nabla_T B =  tau N,

with k >= 0 and B = T x N in the oriented frame.  Note the sign of tau is
opposite to the convention common in the Euclidean literature.  tau is
invariant under flipping the sign of N (B flips along with it), so the
measured torsion does not depend on the orientation choice for N.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NoReturn, Optional

import numpy as np

from . import __version__
from . import manifold as mf
from .errors import (
    MalformedSampleFile,
    NonFiniteVelocity,
    NonMonotone,
    NonUnitSpeed,
    TooFewSamples,
)
from .manifold import ManifoldParams
from .numerics import (
    DEFAULT_CONFIG,
    STENCIL_ORDER,
    NumericsConfig,
    derivative_on_grid,
    interior_slice,
    tiles,
)

__all__ = [
    "CurveSpec",
    "CurveSamples",
    "FrenetSeries",
    "sample_curve",
    "covariant_derivative_along",
    "frenet_apparatus",
    "left_translate_curve",
    "left_translate_samples",
    "import_samples",
    "write_samples_csv",
    "read_samples_csv",
    "frenet_to_json",
    "write_frenet_json",
]


@dataclass(frozen=True)
class CurveSpec:
    """A parametrized curve on one manifold of the family, given by its
    sampler: sampler(s_grid) -> (points, frame_velocities), (n, 3) arrays
    each.

    A curve known in coordinates converts its coordinate velocity with
    ``manifold.to_frame_components`` inside its sampler.  ``family`` carries
    the serializable constructor parameters, when the curve came from one of
    the factory families.  Imported rows are samples, not curves: see
    ``import_samples``.
    """

    manifold: ManifoldParams
    s_range: tuple[float, float]
    sampler: Callable
    family: dict = field(default_factory=dict)


@dataclass
class CurveSamples:
    """Uniform arclength samples of a curve (struct-of-arrays layout).

    Every consumer takes its ``derivative``, ``interior``, ``tiles`` and
    worst interior sample (``interior_max``) from the samples; past them,
    only ``numerics`` knows the stencil's reach.
    ``velocity_depth`` counts derivative passes already spent producing the
    velocities: 0 for analytic / ODE-state velocities, 1 when they were
    differenced from imported positions.  Interior masks widen accordingly:
    every derived series is NaN outside its interior, where the stencil
    does not reach.
    ``ds`` is the curve's one step, s[1] - s[0] unless given: a tile of the
    curve keeps it, as its own first step may differ in the last bits.
    The points are checked when the samples are built by any route
    (ValueError unless finite, DomainError outside the chart); no derivative
    pass checks them again, nor a tile, which is a window of checked points.
    """

    manifold: ManifoldParams
    s: np.ndarray               # (n,)
    points: np.ndarray          # (n, 3) coordinates
    velocity_frame: np.ndarray  # (n, 3) frame components, unit rows
    velocity_depth: int = 0
    ds: float | None = None

    def __post_init__(self):
        mf.conformal_factor(self.manifold, self.points)
        if self.ds is None:
            self.ds = float(self.s[1] - self.s[0])

    @property
    def n(self) -> int:
        return len(self.s)

    def velocity_coord(self) -> np.ndarray:
        return mf.to_coord_components(self.manifold, self.points, self.velocity_frame)

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """d/ds of per-sample ``values`` (or of a window of them) along axis 0."""
        return derivative_on_grid(values, self.ds)

    def interior(self, depth: int = 1) -> slice:
        """The samples ``depth`` more passes leave finite; every series
        derived in those passes is NaN outside them."""
        return interior_slice(self.n, depth + self.velocity_depth)

    def tiles(self, depth: int):
        """``numerics.tiles`` for a chain of ``depth`` nested passes: yields
        ``(tile, window, rows, inner)``, where ``rows`` are the tile's rows
        and ``inner`` its rows in ``interior(depth)``, both in the window.
        Raises ``TooFewSamples`` when there is no interior."""
        interior = self.interior(depth)
        for tile, window, rows in tiles(self.n, depth):
            inner = slice(max(interior.start, tile.start) - window.start,
                          min(interior.stop, tile.stop) - window.start)
            yield tile, window, rows, inner

    def interior_max(self, residual, depth: int) -> tuple[float, int]:
        """The largest per-sample ``residual(rows)`` on ``interior(depth)``
        and its sample: the first NaN if there is one, else the first
        largest value.  ``rows`` are the interior rows of each tile of
        ``tiles(depth)``, in order, so a residual may carry a running sum
        from one call to the next.  No temporary spans the curve, and the
        value has the bits of the whole maximum."""
        worst = at = None
        for _, window, _, inner in self.tiles(depth):
            rows = slice(window.start + inner.start, window.start + inner.stop)
            r = residual(rows)
            i = int(np.argmax(r))  # the first NaN, if there is one
            if at is None or not r[i] <= worst:
                worst, at = float(r[i]), rows.start + i
            if math.isnan(worst):
                break
        return worst, at


def _finite_range(s_range: tuple[float, float]) -> tuple[float, float]:
    """``s_range`` as two floats; ValueError unless both are finite.  The
    curve builders check it before they evaluate anything at s_range[0]."""
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"s_range must be finite, got ({s0!r}, {s1!r})")
    return s0, s1


def _uniform_grid(s_range: tuple[float, float], n: int) -> np.ndarray:
    s0, s1 = _finite_range(s_range)
    if not s1 > s0:
        raise ValueError("s_range must be increasing")
    return np.linspace(s0, s1, n)


def _speed_deviation(samples: CurveSamples) -> tuple[float, int]:
    """The largest | |v| - 1 | on ``samples.interior(0)`` and its sample."""
    vel = samples.velocity_frame  # |v| a tile at a time, without an (n, 3) temporary
    return samples.interior_max(lambda w: np.abs(np.linalg.norm(vel[w], axis=1) - 1.0), 0)


def _validate_unit_speed(samples: CurveSamples, config: NumericsConfig) -> None:
    """Unit speed on ``samples.interior(0)``: every row of given velocities,
    and the rows the stencil reaches where they were differenced."""
    dev, worst = _speed_deviation(samples)
    if not dev <= config.unit_speed_tol:
        raise NonUnitSpeed(
            f"|velocity| deviates from 1 by {dev:.3e} at sample "
            f"{worst} (tolerance {config.unit_speed_tol:.1e})"
        )


def _check_uniform_s(s: np.ndarray) -> float:
    finite = np.isfinite(s)
    if not finite.all():  # NaN would pass both comparisons below
        raise NonMonotone(f"arclength not finite at row {int(np.argmin(finite))}")
    steps = np.diff(s)
    if np.any(steps <= 0.0):
        bad = int(np.argmax(steps <= 0.0))
        raise NonMonotone(f"arclength not strictly increasing at row {bad + 1}")
    mean = float(steps.mean())
    jitter = np.abs(steps - mean)
    if jitter.max() > 1e-9 * max(1.0, abs(mean)):
        bad = int(np.argmax(jitter))
        raise NonMonotone(
            f"non-uniform arclength spacing at row {bad + 1}: step {steps[bad]:.12g}"
            f" vs mean {mean:.12g}"
        )
    return mean


def sample_curve(
    spec: CurveSpec, n: int, config: NumericsConfig = DEFAULT_CONFIG
) -> CurveSamples:
    """Evaluate ``n`` uniform arclength samples of a curve with its sampler.

    Unit speed is enforced at every sample.
    """
    if n < 9:
        raise TooFewSamples(f"need n >= 9 samples, got {n}")
    s = _uniform_grid(spec.s_range, n)
    points, vel = spec.sampler(s)
    points = np.asarray(points, dtype=float)
    vel = np.asarray(vel, dtype=float)

    samples = CurveSamples(spec.manifold, s, points, vel)
    _validate_unit_speed(samples, config)
    return samples


def import_samples(
    manifold: ManifoldParams,
    s: np.ndarray,
    points: np.ndarray,
    velocity_frame: np.ndarray | None = None,
    config: NumericsConfig = DEFAULT_CONFIG,
) -> CurveSamples:
    """Imported rows as samples: arclengths ``s`` (n,), coordinates
    ``points`` (n, 3) and, optionally, frame velocities (n, 3).

    Without velocities, they are central differences of the positions,
    converted to frame components in place, and NaN on the first and last
    two samples, which the stencil does not reach.
    Unit speed is enforced on the interior samples, which exclude those.
    Raises ValueError for other shapes or n < 2, NonMonotone for arclengths
    that are not finite, strictly increasing and uniform, and TooFewSamples
    for fewer than 9 positions to differentiate.
    """
    s = np.asarray(s, dtype=float)
    points = np.asarray(points, dtype=float)
    vel = None if velocity_frame is None else np.asarray(velocity_frame, dtype=float)
    n = len(s) if s.ndim == 1 else 0
    if n < 2 or points.shape != (n, 3) or (vel is not None and vel.shape != (n, 3)):
        shapes = f"s {s.shape}, points {points.shape}"
        if vel is not None:
            shapes += f", velocities {vel.shape}"
        raise ValueError(f"imported samples need s (n,), n >= 2, and (n, 3) arrays; got {shapes}")
    _check_uniform_s(s)
    if vel is None:
        if n < 9:
            raise TooFewSamples("need at least 9 samples to differentiate positions")
        vel = derivative_on_grid(points, float(s[1] - s[0]))
        mf.to_frame_components(manifold, points, vel, out=vel)
    samples = CurveSamples(manifold, s, points, vel, velocity_depth=int(velocity_frame is None))
    _validate_unit_speed(samples, config)
    return samples


def covariant_derivative_along(samples: CurveSamples, field: np.ndarray) -> np.ndarray:
    """nabla_T V along the curve for a field V given in frame components.

    Componentwise arclength derivative (``samples.derivative``) plus
    the connection correction contracted with the velocity:

        (nabla_T V)^a = dV^a/ds + Gamma_ij^a T^i V^j.

    For the metric (m, l) at the point (x, y, z) the correction is, in
    1-based frame components (``manifold.connection_term``),

        Gamma(T, V) = (l/2) T x V + (l T3 + 2m (x T2 - y T1)) (V2, -V1, 0).

    On the Heisenberg group this reduces to the familiar component formula
    (V1' + (T2 V3 + T3 V2)/2, V2' - (T1 V3 + T3 V1)/2, V3' + (T1 V2 - T2 V1)/2).
    The result is NaN on two more samples at each end than V, where the
    stencil of ``samples.derivative`` does not reach.  The correction is
    added into the derivative one component at a time, with the bits of
    adding ``connection_term``, at the points the samples checked when built.
    """
    V = np.asarray(field, dtype=float)
    if V.shape != samples.points.shape:
        raise ValueError("field must provide frame components at every sample")
    dV = samples.derivative(V)
    T = np.asarray(samples.velocity_frame, dtype=float)
    terms = mf._connection_components(samples.manifold, samples.points, T, V)
    for a, component in enumerate(terms):
        dV[:, a] += component
    return dV


@dataclass
class FrenetSeries:
    """Frenet apparatus along a sampled curve.

    ``samples`` is the curve the series was computed from: its grid, points
    and T = ``samples.velocity_frame`` are read there, not copied.  Where
    the geodesic curvature k falls to the floor the normal direction is
    numerically meaningless; there, and where the stencil of nabla_T N
    reaches such a sample, N, B and tau are NaN and ``defined`` is False
    rather than reporting zeros; so is every series where the stencil does
    not reach (``samples.interior``).  ``t1`` = nabla_T T (= k N, defined
    on geodesics too) is kept by ``frenet_apparatus`` for the tension
    passes; a series assembled from tiles (``analysis.bitension_report``)
    does not keep it.
    """

    samples: CurveSamples
    k: np.ndarray          # (n,) |nabla_T T|
    N: np.ndarray          # (n, 3), NaN where undefined
    B: np.ndarray          # (n, 3), NaN where undefined
    tau: np.ndarray        # (n,), NaN where undefined
    defined: np.ndarray    # (n,) bool
    t1: np.ndarray | None = None  # (n, 3)

    @property
    def T3(self) -> np.ndarray:
        return self.samples.velocity_frame[:, 2]

    @property
    def N3(self) -> np.ndarray:
        return self.N[:, 2]

    @property
    def B3(self) -> np.ndarray:
        return self.B[:, 2]


def frenet_apparatus(
    samples: CurveSamples, config: NumericsConfig = DEFAULT_CONFIG
) -> FrenetSeries:
    """T, N, B, k, tau and the third frame components along the curve.

    T is the sampled velocity; k = |nabla_T T|; N = nabla_T T / k wherever
    k exceeds the configured floor; B = T x N; tau = -<nabla_T N, B>.  The
    frame is ``defined`` where tau exists: k clears the floor there and on
    every sample the stencil of nabla_T N reaches.
    ``analysis.bitension_report`` and ``analysis.verdict_series`` run it once
    per tile of the curve.
    """
    T = samples.velocity_frame
    t1 = covariant_derivative_along(samples, T)
    k = np.linalg.norm(t1, axis=1)
    defined = k > config.k_floor

    N = np.full_like(T, np.nan)
    np.divide(t1, k[:, None], out=N, where=defined[:, None])
    # B = T x N by components in np.cross's operation order (the same bits),
    # without the copies np.cross makes of T and N
    B = np.empty_like(T)
    for i, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # B_i = T_a N_b - T_b N_a
        np.multiply(T[:, a], N[:, b], out=B[:, i])
        B[:, i] -= T[:, b] * N[:, a]
    dN = covariant_derivative_along(samples, N) if defined.any() else np.full_like(T, np.nan)
    tau = -np.einsum("ni,ni->n", dN, B)
    defined = ~np.isnan(tau)  # also false where nabla_T N reaches an undefined N
    N[~defined] = np.nan
    B[~defined] = np.nan

    return FrenetSeries(samples, k=k, N=N, B=B, tau=tau, defined=defined, t1=t1)


# ---------------------------------------------------------------------------
# Left translation of whole curves
# ---------------------------------------------------------------------------


def left_translate_samples(g, samples: CurveSamples) -> CurveSamples:
    """Translate sampled data; frame velocities are untouched by design,
    and every other field (``velocity_depth``, ``ds``) is carried."""
    pts = mf.left_translate(samples.manifold, g, samples.points)
    return replace(samples, s=samples.s.copy(), points=pts,
                   velocity_frame=samples.velocity_frame.copy())


def left_translate_curve(g, spec: CurveSpec) -> CurveSpec:
    """The curve s -> L_g(gamma(s)) on the Heisenberg group.

    The frame velocities are unchanged.  ``family`` records the whole
    translation from the untranslated curve in ``translated_by``, so that
    ``factory.load_curve_params`` can rebuild the moved curve.
    """
    params = spec.manifold
    g_arr = mf.as_point(g)
    # Raise UnsupportedManifold early for (m, l) != (0, 1).
    mf.left_translate(params, g_arr, np.zeros(3))
    total = g_arr
    if "translated_by" in spec.family:  # L_g L_h = L_{g h}
        total = mf.left_translate(params, g_arr, spec.family["translated_by"])
    family = {**spec.family, "translated_by": list(map(float, total))}
    base_sampler = spec.sampler

    def sampler(s_grid):
        pts, vel = base_sampler(s_grid)
        return mf.left_translate(params, g_arr, pts), vel

    return replace(spec, sampler=sampler, family=family)


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------


_ROWS_PER_WRITE = 8192  # rows of a per-sample file turned into text and written at once


def _dumps(block: np.ndarray) -> bytes:
    """The JSON text of the C-contiguous array ``block``: orjson's shortest
    round-trip text of each number (``0.0``, ``1e-7``, ``-0.0``), null where
    a number is not finite, ``true``/``false`` for booleans.  Every number of
    the per-sample files is written here.  orjson is imported on first use,
    so that importing the package does not load it."""
    import orjson

    return orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)


def _write_table(path, header, columns) -> None:
    """Write ``header`` and one row per sample of the 1-D ``columns``, each
    field the shortest round-trip text of its number (``nan``, ``inf`` or
    ``-inf`` where it is not finite), each line ended by ``\\r\\n``; a
    ``None`` column leaves its field empty.  ``_ROWS_PER_WRITE`` lines are
    formatted and written at a time."""
    columns = [None if c is None else np.asarray(c, dtype=float) for c in columns]
    n = len(next(c for c in columns if c is not None))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for start in range(0, n, _ROWS_PER_WRITE):
            stop = min(n, start + _ROWS_PER_WRITE)
            block = np.column_stack([
                np.full(stop - start, np.nan) if c is None else c[start:stop] for c in columns
            ])
            text = _dumps(block)[2:-2].replace(b"],[", b"\r\n") + b"\r\n"
            nulls = ~np.isfinite(block)
            if nulls.any():  # each null, in row-major order, becomes its field's text
                fields = tuple(
                    b"" if columns[j] is None else b"%r" % v
                    for v, j in zip(block[nulls].tolist(), np.nonzero(nulls)[1].tolist())
                )
                text = text.replace(b"null", b"%b") % fields
            fh.write(text)


def write_samples_csv(path, samples: CurveSamples, include_velocity: bool = False) -> None:
    """Write rows ``s,x,y,z`` (plus frame components ``vx,vy,vz`` on
    request), each number as the shortest text that reads back to its bits."""
    width = 7 if include_velocity else 4
    columns = [samples.s, *samples.points.T, *samples.velocity_frame.T]
    _write_table(path, ["s", "x", "y", "z", "vx", "vy", "vz"][:width], columns[:width])


def _loadtxt_float(text: str) -> float:
    """``float(text)`` restricted to what ``np.loadtxt`` parses: Python's
    ``float`` also takes digit underscores (``1_0``) and non-ASCII digits."""
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(core)


def _raise_bad_line(path, cols: list[str], cause: str) -> NoReturn:
    """Name the first data line with an unparseable number, other than
    ``len(cols)`` fields, or a ``nan`` or ``inf`` (with its sample and
    column; ``NonFiniteVelocity`` in a velocity column).  Empty lines are
    skipped, as the reader skips them."""
    with open(path) as fh:
        sample = -1
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if lineno == 1 or fields == [""]:
                continue
            sample += 1
            try:
                values = [_loadtxt_float(text) for text in fields]
            except ValueError as exc:
                raise MalformedSampleFile(f"unparseable number at line {lineno}: {exc}") from None
            if len(fields) != len(cols):
                raise MalformedSampleFile(
                    f"line {lineno} has {len(fields)} fields, header {len(cols)}"
                )
            for name, value in zip(cols, values):
                if not math.isfinite(value):
                    error = NonFiniteVelocity if name in ("vx", "vy", "vz") else MalformedSampleFile
                    raise error(
                        f"non-finite value {value!r} at line {lineno} (sample {sample}), "
                        f"column {name}"
                    )
    raise MalformedSampleFile(f"unreadable data rows: {cause}")


def _header_columns(header: str) -> list[str]:
    """The columns of a sample file's header line, which must name them."""
    cols = [c.strip().lower() for c in header.split(",")]
    if cols not in (["s", "x", "y", "z"], ["s", "x", "y", "z", "vx", "vy", "vz"]):
        raise MalformedSampleFile(f"unexpected header {header.strip()!r}; need s,x,y,z[,vx,vy,vz]")
    return cols


_NUMBER_BYTES = b"0123456789+-.eE \t"  # deleted by the row check, with JSON's blanks
_BLOCK_BYTES = 1 << 15  # bytes per block of rows parsed at once, plus the rest of a line
_INT_NEG_ZERO = re.compile(rb"-0(?=[,\s])(?<![eE]-0)")  # the integer -0: orjson reads 0


def _json_list(block: bytes) -> bytes:
    """Lines of comma-separated numbers as one JSON list."""
    return b"[" + block[:-1].replace(b"\n", b",") + b"]"


def _read_json_rows(fh, width: int) -> np.ndarray | None:
    """The rows after the header of the binary file ``fh`` as an (n, width)
    array, parsed by orjson; None, for ``np.loadtxt`` to read the file, when
    a block of lines is not plain rows of ``width`` JSON numbers.  JSON
    numbers (no ``.5``, ``1.``, ``+1``, ``01`` or ``1e400``) are a subset of
    what ``np.loadtxt`` reads, and orjson rounds each correctly, as
    ``float`` does.

    The lines are counted first, so the array is the one allocation that
    spans the file; each block of whole lines is checked and parsed alone.
    """
    import orjson

    start, lines, tail = fh.tell(), 0, b"\n"
    while part := fh.read(_BLOCK_BYTES):
        newlines = np.count_nonzero(np.frombuffer(part, np.uint8) == ord("\n"))
        lines, tail = lines + newlines, part[-1:]
    data = np.empty((lines + (tail != b"\n"), width))  # the last line may lack its newline
    flat, at = data.reshape(-1), 0
    fh.seek(start)
    while block := fh.read(_BLOCK_BYTES):
        block += fh.readline()  # whole lines
        if not block.endswith(b"\n"):  # the last line, ended as the others are
            block += b"\r\n" if b"\r" in block else b"\n"
        # one pass proves every line's width and keeps quotes, letters,
        # blank lines and non-ASCII bytes out; a lone "\r" ends a line in
        # text mode, so the rows end all in "\n" or all in "\r\n"
        commas = block.translate(None, _NUMBER_BYTES)
        row = b"," * (width - 1) + (b"\r\n" if commas.endswith(b"\r\n") else b"\n")
        rows = len(commas) // len(row)
        if commas != row * rows:
            return None
        count = rows * width
        try:
            values = np.fromiter(orjson.loads(_json_list(block)), float, count)
            if not values.all() and _INT_NEG_ZERO.search(block):
                block = _INT_NEG_ZERO.sub(b"-0.0", block)
                values = np.fromiter(orjson.loads(_json_list(block)), float, count)
        except orjson.JSONDecodeError:
            return None
        flat[at:at + count] = values
        at += count
    return data


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Parse a ``s,x,y,z[,vx,vy,vz]`` file into ``(s, points, velocities)``,
    the velocities None without their columns: the arguments of
    ``import_samples`` after the manifold.

    Skips empty lines.  Raises MalformedSampleFile for a bad header, fewer
    than two data rows, or a row that is unparseable, not as wide as the
    header or holds a ``nan`` or ``inf`` (naming its line).

    Plain rows of JSON numbers are parsed by orjson (``_read_json_rows``);
    every other file is read by ``np.loadtxt``.  Both give the same bits,
    since both round each number's text correctly.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        data = None
        if header.isascii() and b"\r" not in header.removesuffix(b"\r\n"):  # as text mode reads it
            cols = _header_columns(header.decode("ascii"))
            data = _read_json_rows(fh, len(cols))
    if data is None:
        with open(path) as fh:
            cols = _header_columns(fh.readline())
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # an empty body is reported below
                    data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                _raise_bad_line(path, cols, str(exc))
        # orjson's rows are as wide as the header and finite; fewer than
        # two rows are reported below, on both routes
        if len(data) >= 2 and (data.shape[1] != len(cols) or not np.isfinite(data).all()):
            _raise_bad_line(path, cols, f"rows of {data.shape[1]} fields or not finite")
    if data.shape[0] < 2:
        raise MalformedSampleFile("need at least two data rows")
    vel = data[:, 4:] if len(cols) == 7 else None
    return data[:, 0], data[:, 1:4], vel


def _json_list_parts(a: np.ndarray):
    """The JSON text of a per-sample series, in parts: a list of booleans or
    numbers (``_dumps``'s text), or for an (n, 3) series its three component
    lists, ``_ROWS_PER_WRITE`` items at a time."""
    if a.ndim == 2:
        for opening, component in zip((b"[", b",", b","), a.T):
            yield opening
            yield from _json_list_parts(component)
        yield b"]"
        return
    yield b"["
    for start in range(0, len(a), _ROWS_PER_WRITE):
        if start:
            yield b","
        yield memoryview(_dumps(np.ascontiguousarray(a[start : start + _ROWS_PER_WRITE])))[1:-1]
    yield b"]"


_FRENET_DEPTH = 2  # derivative passes behind tau: nabla_T T, then nabla_T N


def _frenet_json_parts(frenet: FrenetSeries):
    """The ASCII bytes of ``frenet_to_json``'s text, in order."""
    samples = frenet.samples
    columns = {  # in sorted order, as the rest of the payload
        "B": frenet.B,
        "N": frenet.N,
        "T": samples.velocity_frame,
        "defined": frenet.defined,
        "k": frenet.k,
        "point": samples.points,
        "s": samples.s,
        "tau": frenet.tau,
    }
    try:
        interior = samples.interior(_FRENET_DEPTH)
        interior = [interior.start, interior.stop]
    except TooFewSamples:
        interior = None
    manifold = {"m": samples.manifold.m, "l": samples.manifold.l}
    rest = {
        "manifold": manifold,
        "n": samples.n,
        "provenance": {
            "version": __version__,
            "manifold": manifold,
            "n": samples.n,
            "ds": samples.ds,
            "velocity_depth": samples.velocity_depth,
            "stencil_order": STENCIL_ORDER,
            "interior": interior,
        },
        "stencil_order": STENCIL_ORDER,
    }
    # "columns" sorts before every other key, so it leads the object
    opening = b'{"columns":{'
    for name, series in columns.items():
        yield opening + f'"{name}":'.encode("ascii")
        yield from _json_list_parts(series)
        opening = b","
    yield b"}," + json.dumps(rest, sort_keys=True, separators=(",", ":"))[1:].encode("ascii")


def frenet_to_json(frenet: FrenetSeries) -> str:
    """Serialize a Frenet series to one line of columnar JSON.

    ``columns`` holds one list per scalar series and three component lists
    per vector series (``point``, ``T``, ``N``, ``B``), each number the
    shortest text that reads back to its bits, as in the CSVs, and null where
    it is not finite: where N, B and tau are undefined, and where the
    stencil does not reach.
    ``provenance`` records what produced the series.  ``write_frenet_json``
    writes the same text to a file without holding all of it.
    """
    return b"".join(_frenet_json_parts(frenet)).decode("ascii")


def write_frenet_json(path, frenet: FrenetSeries) -> None:
    """Write ``frenet_to_json(frenet)`` to ``path`` part by part, so that
    the number text of one block of ``_ROWS_PER_WRITE`` samples of one
    series is held at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_frenet_json_parts(frenet))
