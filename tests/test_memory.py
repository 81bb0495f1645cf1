"""Peak memory of the verify pipeline on an imported position-only curve,
of its reader and its import stage, of the arclength stencil it runs five
times and of the covariant derivative built on it, and of ``generate``'s
per-sample writers.

``verdict_series`` runs its stencil chain tile by tile and keeps per sample
only what the verdict reads, and the checks take their maxima tile by tile,
so past a few tiles only the imported samples and the five series span the
curve; the kernels run on (n, 3) component arrays, so no stage may build
per-sample tensor stacks.  The writers hold one block of rows of text at
a time.  The peak is traced with
``tracemalloc`` (numpy reports its buffers to it) and compared with a bound
per sample.
"""

import math
import tracemalloc

import numpy as np

import heiscurves as hc
from heiscurves import analysis, cli
from heiscurves.numerics import derivative_on_grid

N = 20001
# Traced peak allowed per sample: 18 float64.  verdict_series and
# classify_curve need 16.3 (the report's path, which also keeps N, B, |tau2|
# and the frame expansion, 25.3; before the kernels were closed-form, about
# 41).  At this n the three tiles still cost as much as the curve.
BYTES_PER_SAMPLE = 18 * 8
# At N_TILED the tiles' cost is spread thin: 9.2 float64 per sample (the
# report's path 17.5).
N_TILED = 100001
TILED_BYTES_PER_SAMPLE = 10.5 * 8
# import_samples on positions: the differenced (n, 3) velocities, the
# stencil's one (n, 3) temporary and (n,) temporaries, 7.0 float64 per
# sample at N; converting to frame components beside a second (n, 3) copy
# took 11.0.
IMPORT_BYTES_PER_SAMPLE = 8 * 8


def _traced_peak(fn):
    """Peak traced bytes allocated while ``fn`` runs."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _positions(tmp_path, hp, n):
    """A position-only CSV of the figure helix with ``n`` samples."""
    path = tmp_path / "positions.csv"
    spec = hc.biharmonic_helix(hp, (0.0, 10.0 * math.pi))
    hc.write_samples_csv(path, hc.sample_curve(spec, n))
    return path


def _verify_pipeline_peak(tmp_path, hp, n):
    """Traced peak of importing and classifying an imported position-only
    figure helix of ``n`` samples, with the functions ``verify`` calls."""
    s, points, _ = hc.read_samples_csv(_positions(tmp_path, hp, n))

    def pipeline():
        samples = hc.import_samples(hc.HEISENBERG, s, points)
        return hc.classify_curve(hc.verdict_series(samples))

    peak, result = _traced_peak(pipeline)
    assert result.verdict in hc.analysis.VERDICTS
    return peak


def test_verify_pipeline_peak_memory(tmp_path, figure1_hp):
    peak = _verify_pipeline_peak(tmp_path, figure1_hp, N)
    assert peak <= BYTES_PER_SAMPLE * N, f"{peak / N / 8:.1f} float64 per sample"


def test_verify_pipeline_peak_memory_tiled(tmp_path, figure1_hp):
    peak = _verify_pipeline_peak(tmp_path, figure1_hp, N_TILED)
    assert peak <= TILED_BYTES_PER_SAMPLE * N_TILED, f"{peak / N_TILED / 8:.1f} float64 per sample"


# read_samples_csv at N_TILED: the (n, 4) array and a block in parsing, 4.2
# float64 per sample (4.5 when the orjson route took isfinite's mask too).  np.loadtxt's reader peaked at 4.79; parsing blocks with
# orjson into per-block arrays and concatenating them took 8.0.
READ_BYTES_PER_SAMPLE = 4.8 * 8


def test_read_peak_memory(tmp_path, figure1_hp):
    path = _positions(tmp_path, figure1_hp, N_TILED)
    hc.read_samples_csv(path)  # the first read imports its parser
    peak, (s, _, _) = _traced_peak(lambda: hc.read_samples_csv(path))
    assert len(s) == N_TILED
    assert peak <= READ_BYTES_PER_SAMPLE * N_TILED, f"{peak / N_TILED / 8:.2f} float64 per sample"


def test_import_positions_peak_memory(tmp_path, figure1_hp):
    s, points, _ = hc.read_samples_csv(_positions(tmp_path, figure1_hp, N))
    peak, samples = _traced_peak(lambda: hc.import_samples(hc.HEISENBERG, s, points))
    assert samples.velocity_depth == 1
    assert peak <= IMPORT_BYTES_PER_SAMPLE * N, f"{peak / N / 8:.1f} float64 per sample"


def test_verify_calls_the_pipeline_measured_here(tmp_path, monkeypatch, capsys, figure1_hp):
    """``verify`` runs the functions the pipeline peak above traces."""
    path = _positions(tmp_path, figure1_hp, 2001)
    called = []
    for name in ("verdict_series", "bitension_report", "classify_curve"):
        fn = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a, _fn=fn, _name=name, **k:
                            called.append(_name) or _fn(*a, **k))
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert called == ["verdict_series", "classify_curve"]


def test_stencil_peak_memory():
    # the interior stencil works in place in its output, with one temporary
    # of at most TILE rows: 1.41 outputs at N (2.0 with a temporary as long
    # as the output)
    y = np.random.default_rng(5).standard_normal((N, 3))
    peak, out = _traced_peak(lambda: derivative_on_grid(y, 0.01))
    assert peak <= 1.5 * out.nbytes, f"{peak / out.nbytes:.2f} outputs"


def test_covariant_derivative_peak_memory(figure1_hp):
    # the connection is added into the derivative one component at a time
    samples = hc.sample_curve(hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi)), N)
    peak, out = _traced_peak(
        lambda: hc.covariant_derivative_along(samples, samples.velocity_frame)
    )
    assert peak <= 2.2 * out.nbytes, f"{peak / out.nbytes:.2f} outputs"


# Traced peak of generate's writers per sample, above what the geometry holds
# when classify_curve returns.  At this n one block of rows of a file, its
# stacked numbers and their text, takes about 260 bytes; keeping the CSV's
# text for .frenet.json took about 540, and the whole-file str text the
# writers held before that about 840.
WRITER_BYTES_PER_SAMPLE = 310


def test_generate_writers_peak_memory(tmp_path, monkeypatch, capsys):
    classify = analysis.classify_curve
    held = []

    def marked(*args, **kwargs):
        result = classify(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(analysis, "classify_curve", marked)
    argv = [
        "generate", "--sin-alpha0", repr(1.0 / math.sqrt(10.0)), "--s1", repr(10.0 * math.pi),
        "--samples", str(N), "--with-velocity", "--surfaces", "--out", str(tmp_path / "curve"),
    ]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= WRITER_BYTES_PER_SAMPLE * N, f"{peak / N:.0f} bytes per sample"
