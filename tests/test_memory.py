"""Peak memory of the verify pipeline on an imported position-only curve,
and of the arclength stencil it runs five times.

``sample_curve``, ``bitension_report`` and ``classify_curve`` hold a few
(n, 3) series each; the kernels run on (n, 3) component arrays, so no stage
may build per-sample tensor stacks.  The peak is traced with ``tracemalloc``
(numpy reports its buffers to it) and compared with a bound per sample.
"""

import math
import tracemalloc

import numpy as np

import heiscurves as hc
from heiscurves.numerics import derivative_on_grid

N = 20001
# Traced peak allowed per sample: 33 float64.  The closed-form kernels need
# about 27.5; the (n, 3, 3) coframe stack, np.cross copies and (n, 9)
# curvature products they replaced took about 41.
BYTES_PER_SAMPLE = 33 * 8


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


def test_verify_pipeline_peak_memory(tmp_path, figure1_hp):
    path = tmp_path / "positions.csv"
    spec = hc.biharmonic_helix(figure1_hp, (0.0, 10.0 * math.pi))
    hc.write_samples_csv(path, hc.sample_curve(spec, N))
    imported = hc.read_samples_csv(path, hc.HEISENBERG)

    def pipeline():
        samples = hc.sample_curve(imported)
        report = hc.bitension_report(samples)
        return hc.classify_curve(report.frenet)

    peak, result = _traced_peak(pipeline)
    assert result.verdict in hc.analysis.VERDICTS
    assert peak <= BYTES_PER_SAMPLE * N, f"{peak / N / 8:.1f} float64 per sample"


def test_stencil_peak_memory():
    # the interior stencil works in place in its output, with one temporary
    y = np.random.default_rng(5).standard_normal((N, 3))
    peak, out = _traced_peak(lambda: derivative_on_grid(y, 0.01))
    assert peak <= 2.2 * out.nbytes, f"{peak / out.nbytes:.2f} outputs"
