"""Time and traced peak memory of each stage of ``heiscurves verify`` and
``heiscurves generate``, at several sample counts.

The commands run in-process through ``heiscurves.cli.main`` on the paper's
figure helix (sin alpha0 = 1/sqrt(10), a = b = c = 1, s in [0, 10 pi]).
``verify`` reads a position-only CSV of it; ``generate`` writes every file,
surfaces and velocities included.  A stage ends where the package function
that bounds it returns, so the stages are

* verify and generate: ``read`` (verify only), ``sample`` (``import_samples``
  in verify, ``sample_curve`` in generate), ``frenet``, ``tension`` (the
  rest of ``verdict_series`` in verify, of ``bitension_report`` in
  generate) and ``classify``; both run ``frenet_apparatus`` once per tile
  of the curve, so a stage's time is summed over all its calls, and time
  inside a nested stage counts only for that stage;
* generate: one stage per written file, named by its suffix, which includes
  building the file's content (``frenet.json`` ends where
  ``write_frenet_json``, which builds and writes it block by block, returns).

Each stage gets its wall time, the best of ``--repeats`` untraced runs, and
``peak_mb``, the highest ``tracemalloc`` total during the stage in one more,
traced run (what earlier stages still hold counts too).  Stages are listed
in the order in which they first end.  The output JSON
also records each run's exit code, verdict, checks and residuals, so that a
change in speed can be read next to any change in the answers.

Run from the repository root:

    PYTHONPATH=src python tools/stage_profile.py --out bench.json \\
        [--sizes 2001 20001 200001] [--repeats 3]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import tempfile
import time
import tracemalloc

# One BLAS thread, as in perfbench/run.py.  Run as a script, the caps are set
# before numpy loads; imported, this module leaves the environment alone.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
if __name__ == "__main__":
    os.environ.update(THREAD_CAPS)

import numpy as np  # noqa: E402

import heiscurves  # noqa: E402
from heiscurves import analysis, cli, curves, factory  # noqa: E402

SIN_ALPHA0 = 1.0 / math.sqrt(10.0)
HELIX = {"a": 1.0, "b": 1.0, "c": 1.0}
LENGTH = 10.0 * math.pi
DEFAULT_SIZES = (2001, 20001, 200001)

# (module, function, stage): the stage ends when the function returns, and
# for the geometry stages the time between stages is not counted.
STAGES = (
    (curves, "read_samples_csv", "read"),
    (curves, "sample_curve", "sample"),
    (curves, "import_samples", "sample"),
    (analysis, "frenet_apparatus", "frenet"),
    (analysis, "verdict_series", "tension"),
    (analysis, "bitension_report", "tension"),
    (analysis, "classify_curve", "classify"),
)
# Writers: the stage is the file's suffix, and it starts where the last
# stage ended, so it includes building the content.
WRITERS = (
    (curves, "write_samples_csv"),
    (curves, "write_frenet_json"),
    (analysis, "residuals_to_csv"),
    (cli, "_write_text"),
    (cli, "_write_surface_csv"),
)


class StageClock:
    """Seconds and (when traced) peak traced memory between marks, summed
    per stage."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.totals: dict[str, dict] = {}
        self.ended: dict[str, None] = {}  # stages in the order they first end
        self.open: list[str] = []  # the stages running, innermost last
        self.results: dict[str, object] = {}
        self.restart()

    @property
    def stages(self) -> dict[str, dict]:
        return {stage: self.totals[stage] for stage in self.ended}

    def restart(self) -> None:
        if self.traced:
            tracemalloc.reset_peak()
        self.start = time.perf_counter()

    def mark(self, stage: str | None) -> None:
        """Add the time since the last mark to ``stage``; ``None`` drops it."""
        seconds = time.perf_counter() - self.start
        if stage is not None:
            entry = self.totals.setdefault(stage, {"seconds": 0.0})
            entry["seconds"] += seconds
            if self.traced:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                entry["peak_mb"] = max(entry.get("peak_mb", 0.0), peak)
        self.restart()

    def end(self, stage: str) -> None:
        """Mark ``stage``'s last interval; its first end sets its place."""
        self.mark(stage)
        self.ended.setdefault(stage)


@contextlib.contextmanager
def _marked(clock: StageClock):
    """Wrap the stage and writer functions so that they mark ``clock``."""
    originals = []

    def stage_wrapper(fn, stage):
        def wrapped(*args, **kwargs):
            clock.mark(clock.open[-1] if clock.open else None)  # the enclosing stage's time
            clock.open.append(stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                clock.open.pop()
            clock.end(stage)
            clock.results[stage] = result
            return result
        return wrapped

    def writer_wrapper(fn):
        def wrapped(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            clock.end(os.path.basename(str(path)).split(".", 1)[1])
            return result
        return wrapped

    for module, name, stage in STAGES:
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, stage_wrapper(getattr(module, name), stage))
    for module, name in WRITERS:
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, writer_wrapper(getattr(module, name)))
    try:
        yield
    finally:
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)


def _run(argv: list[str], traced: bool) -> tuple[int, str, StageClock]:
    clock = StageClock(traced)
    err = io.StringIO()
    if traced:
        tracemalloc.start()
    try:
        with _marked(clock), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            clock.restart()
            code = cli.main(argv)
    finally:
        if traced:
            tracemalloc.stop()
    return code, err.getvalue().strip(), clock


def _answers(clock: StageClock) -> dict:
    """Verdict, checks and residuals of one run (None where it stopped
    before producing them, as on an input error)."""
    report = clock.results.get("tension")
    result = clock.results.get("classify")
    if report is None or result is None:
        return {"verdict": None}
    answers = {
        "verdict": result.verdict,
        "max_interior_residual": report.max_residual,
        "checks": {name: check.as_dict() for name, check in sorted(result.checks.items())},
        "values": result.values,
    }
    if isinstance(report, analysis.BitensionReport):  # generate's; verify keeps only the max
        answers["mean_interior_residual"] = report.mean_residual
        answers["expansion_agreement"] = report.expansion_agreement
    return answers


def profile(command: str, argv: list[str], n: int, repeats: int) -> dict:
    """Best-of-``repeats`` stage times and one traced run's stage peaks."""
    best: dict[str, float] = {}
    for _ in range(repeats):
        code, error, clock = _run(argv, traced=False)
        for stage, entry in clock.stages.items():
            best[stage] = min(best.get(stage, math.inf), entry["seconds"])
    traced_code, _, traced = _run(argv, traced=True)
    if traced_code != code:
        raise RuntimeError(f"{command} exit code {code} untraced, {traced_code} traced")
    stages = [  # in the order they ran
        {"stage": stage, "seconds": best[stage], "peak_mb": entry["peak_mb"]}
        for stage, entry in traced.stages.items()
    ]
    return {
        "command": command,
        "n": n,
        "exit_code": code,
        "error": error or None,
        **_answers(traced),
        "seconds": sum(entry["seconds"] for entry in stages),
        "peak_mb": max(entry["peak_mb"] for entry in stages),
        "stages": stages,
    }


def _helix_args() -> list[str]:
    args = ["--sin-alpha0", repr(SIN_ALPHA0), "--s0", "0", "--s1", repr(LENGTH)]
    for key, value in HELIX.items():
        args += [f"--{key}", repr(value)]
    return args


def _write_positions(path: str, n: int) -> None:
    hp = factory.HelixParams(alpha0=math.asin(SIN_ALPHA0), **HELIX)
    samples = heiscurves.sample_curve(factory.biharmonic_helix(hp, (0.0, LENGTH)), n)
    heiscurves.write_samples_csv(path, samples)


def run_sizes(sizes, repeats: int, workdir: str) -> list[dict]:
    runs = []
    for n in sizes:
        positions = os.path.join(workdir, f"positions_{n}.csv")
        _write_positions(positions, n)
        runs.append(profile("verify", ["verify", positions], n, repeats))
        out = os.path.join(workdir, f"generated_{n}")
        argv = ["generate", *_helix_args(), "--samples", str(n), "--surfaces",
                "--with-velocity", "--out", out]
        runs.append(profile("generate", argv, n, repeats))
    return runs


def _environment() -> dict:
    return {
        "heiscurves": heiscurves.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per command")
    args = parser.parse_args(argv)
    # 17 samples are the fewest whose differenced positions leave an
    # interior after the four derivative passes behind tau2
    if args.repeats < 1 or min(args.sizes) < 17:
        parser.error("--repeats must be >= 1 and every size >= 17")
    with tempfile.TemporaryDirectory() as workdir:
        runs = run_sizes(args.sizes, args.repeats, workdir)
    payload = {
        "curve": {"sin_alpha0": SIN_ALPHA0, **HELIX, "s_range": [0.0, LENGTH]},
        "repeats": args.repeats,
        "environment": _environment(),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for run in runs:
        stages = "  ".join(
            f"{entry['stage']} {entry['seconds'] * 1e3:.1f} ms / {entry['peak_mb']:.1f} MB"
            for entry in run["stages"]
        )
        answer = run["verdict"] or run["error"]
        print(f"{run['command']:8s} n={run['n']:<7d} {answer}\n    {stages}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
