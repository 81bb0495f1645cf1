"""heiscurves benchmark: the ``generate`` and ``verify`` CLI workloads in a
closed loop, with every answer checked against a truth.  ``generate`` runs
``heiscurves generate`` and ``heiscurves geodesic``; ``verify`` runs
``heiscurves verify``.

Run from the repository root:

    python3 perfbench/run.py --workload {generate,verify} \
        --seed N --seconds S --trace {0,1} [--tiny]

``--trace 0`` runs the workload's CLI invocations as subprocesses, one at a
time (one client, closed loop), for about ``--seconds`` seconds, and reports
the end-to-end metrics.  ``--trace 1`` runs the same argv in-process through
``heiscurves.cli.main``, alternating untraced and traced rounds, and reports
per-module metrics from spans recorded around the package's public
functions, plus import-time self seconds per package from
``python -X importtime``.  ``--tiny`` cuts every input to 201 samples at the
full workload's spacing; ``perfbench/test_smoke.py`` uses it.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the environment, the truth table, every
invocation's answers and timings (and, traced, the spans) is written to
``.bench_run/results/``.  The program's inputs and outputs live in a work
directory under ``.bench_run/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)  # before numpy loads, here and in the children

import workloads  # noqa: E402
import tracing  # noqa: E402

IMPORTTIME_SAMPLES = 3
INVOCATION_TIMEOUT_S = 90.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
}
IMPORT_CODE = "import heiscurves.cli"
MAIN_CODE = "import sys; from heiscurves.cli import main; sys.exit(main())"


class Checkout:
    """Paths and child environment of the checkout the benchmark runs in."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.scratch = os.path.join(root, ".bench_run")
        self.results = os.path.join(self.scratch, "results")
        self.env = {**os.environ, **THREAD_CAPS, "PYTHONPATH": self.src, "PYTHONHASHSEED": "0"}

    def has_program(self) -> bool:
        return os.path.isfile(os.path.join(self.src, "heiscurves", "cli.py"))

    def git_commit(self) -> str:
        """HEAD from the checkout's own ``.git``, or "unknown" without one."""
        git = os.path.join(self.root, ".git")
        try:
            with open(os.path.join(git, "HEAD")) as fh:
                head = fh.read().strip()
            if not head.startswith("ref: "):
                return head
            ref = head[5:]
            ref_path = os.path.join(git, ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
        except OSError:
            pass
        return "unknown"


# ---------------------------------------------------------------------------
# Subprocess measurement
# ---------------------------------------------------------------------------


def run_child(argv: list[str], env: dict, cwd: str, timeout: float):
    """Run one child to completion; (seconds, max RSS in MB, rc, stdout,
    stderr, timed_out).  The RSS comes from the child's own rusage."""
    out_path = os.path.join(cwd, "child.out")
    err_path = os.path.join(cwd, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    timed_out = seconds >= timeout
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr, timed_out


def setup_time(co: Checkout, workdir: str) -> float:
    """Wall seconds of a fresh interpreter importing heiscurves.cli."""
    seconds, _, rc, _, stderr, _ = run_child(
        [sys.executable, "-c", IMPORT_CODE], co.env, workdir, INVOCATION_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError(f"importing heiscurves.cli failed: {stderr.strip()}")
    return seconds


def _clear_outputs(case: workloads.Case) -> None:
    for path in case.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def closed_loop(rounds_fn, seconds: float) -> list:
    """Run rounds back to back until the run is as close to ``seconds`` long
    as whole rounds allow.  At least one round runs."""
    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(rounds_fn())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.median(durations) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def residual_digits(answers: list[workloads.Answer], cases: list[workloads.Case]):
    """-log10 of the worst residual over the positive cases, or None."""
    positive = {c.name for c in cases if c.positive}
    residuals = [a.residual for a in answers if a.case in positive and a.residual is not None]
    if not residuals:
        return None
    return -math.log10(max(residuals))


def answer_summary(answers: list[workloads.Answer]) -> dict:
    n = len(answers)
    return {
        "verdict_ok": sum(a.error is None and a.verdict_matches for a in answers) / n,
        "error_rate": sum(a.error is not None for a in answers) / n,
    }


def _describe(answer: workloads.Answer, case: workloads.Case) -> str:
    truth = "biharmonic" if case.biharmonic else "not biharmonic"
    if case.kind == "geodesic":
        truth = "geodesic"
    if answer.error:
        return f"  {case.name}: ERROR {answer.error}"
    devs = ", ".join(f"{k} {v:.3e}" for k, v in answer.values.items() if v is not None)
    residual = "n/a" if answer.residual is None else f"{answer.residual:.6e}"
    text = (f"  {case.name}: verdict {answer.verdict} (truth {truth}), "
            f"residual {residual}" + (f", {devs}" if devs else ""))
    if answer.wrong:
        text += "; WRONG: " + "; ".join(answer.wrong)
    return text


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced(co, cases, workdir, seconds, tolerances, record) -> dict:
    setup_time(co, workdir)  # writes the bytecode caches; not measured
    setup = []
    cpus = sorted(os.sched_getaffinity(0))
    round_index = itertools.count()

    def one_round():
        inv = []
        r = next(round_index)
        for c, case in enumerate(cases):
            # Each invocation, and the set-up sample before it, runs pinned to
            # one CPU, taking the CPUs in turn and shifting by one each round
            # so that every command meets every CPU.  The speed of a shared
            # host's CPUs swings for minutes at a time and each CPU swings on
            # its own, so a run that visits them all averages their swings;
            # left alone, the scheduler keeps every child on one CPU.
            os.sched_setaffinity(0, {cpus[(r + c) % len(cpus)]})
            setup.append(setup_time(co, workdir))
            _clear_outputs(case)
            sec, rss, rc, stdout, stderr, timed_out = run_child(
                [sys.executable, "-c", MAIN_CODE, *case.argv], co.env, workdir,
                INVOCATION_TIMEOUT_S)
            answer = workloads.check_answer(case, rc, stdout, stderr, *tolerances,
                                            error="timeout" if timed_out else None)
            inv.append({"case": case.name, "wall_s": sec, "rss_mb": rss, "answer": answer})
        return inv

    try:
        rounds = closed_loop(one_round, seconds)
    finally:
        os.sched_setaffinity(0, cpus)
    invocations = [inv for rnd in rounds for inv in rnd]
    answers = [inv["answer"] for inv in invocations]
    # Each command's median over the run, then the mean over the workload's
    # commands: a round mixes commands of different length, and per-command
    # medians of many invocations move less with the host's speed swings
    # than a median of few round means.
    case_wall = {case.name: [inv["wall_s"] for inv in invocations if inv["case"] == case.name]
                 for case in cases}
    case_median = {name: statistics.median(walls) for name, walls in case_wall.items()}
    round_rss = [max(inv["rss_mb"] for inv in rnd) for rnd in rounds]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(case_median.values()),
        "peak_rss_mb": statistics.median(round_rss),
        "residual_digits": residual_digits(answers, cases),
    }
    summary = answer_summary(answers)
    lines = [
        f"  setup_s          {metrics['setup_s']:.4f} s   median of {len(setup)} fresh imports, spread over the run",
        f"  wall_s           {metrics['wall_s']:.4f} s   mean over {len(cases)} command(s) of the "
        f"median invocation; {len(rounds)} rounds",
    ]
    for name, walls in case_wall.items():
        q1, q3 = _quartiles(walls)
        lines.append(f"    {name:14s} median {case_median[name]:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
                     f"{len(walls)} invocations")
    lines += [
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB  largest child per round, median",
        f"  verdict_ok       {summary['verdict_ok']:.4f} ratio",
        "  residual_digits  "
        + ("n/a" if metrics["residual_digits"] is None else f"{metrics['residual_digits']:.4f}")
        + " digits",
        f"  error_rate       {summary['error_rate']:.4f} ratio",
    ]
    record.update(cpus=cpus, setup_samples=setup, case_median_wall_s=case_median,
                  round_rss_mb=round_rss,
                  invocations=[{**inv, "answer": vars(inv["answer"])} for inv in invocations],
                  answers=summary)
    return {"metrics": metrics, "answers": answers, "lines": lines}


def importtime(co: Checkout, workdir: str) -> dict[str, float]:
    """Median import self seconds per package, in children apart from the
    setup_s samples."""
    argv = [sys.executable, "-X", "importtime", "-c", IMPORT_CODE]
    run_child(argv, co.env, workdir, INVOCATION_TIMEOUT_S)
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, rc, _, stderr, _ = run_child(argv, co.env, workdir, INVOCATION_TIMEOUT_S)
        if rc != 0:
            raise RuntimeError("python -X importtime -c 'import heiscurves.cli' failed")
        samples.append(tracing.parse_importtime(stderr))
    return {f"import.{pkg}_s": statistics.median(s[pkg] for s in samples)
            for pkg in tracing.IMPORT_PACKAGES}


def traced(co, cases, workdir, seconds, tolerances, record) -> dict:
    imports = importtime(co, workdir)
    import heiscurves.cli

    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT, heiscurves.cli.main)
    counter = itertools.count()

    def in_process(main, case):
        _clear_outputs(case)
        buf, err = io.StringIO(), io.StringIO()
        error, rc = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = main(list(case.argv))
        except (Exception, SystemExit) as exc:  # a crash or usage error is a measured failure
            error = f"{type(exc).__name__}: {exc}"
        seconds_ = time.perf_counter() - start
        return seconds_, workloads.check_answer(case, rc, buf.getvalue(), err.getvalue(),
                                                *tolerances, error=error)

    def traced_round():
        tracer.install()
        try:
            spans = []
            for case in cases:
                tracer.invocation = next(counter)
                spans.append(in_process(traced_main, case))
        finally:
            tracer.uninstall()
        return spans

    def one_pair():
        # Alternate which half of the pair runs first, so that warm-up and
        # drift do not bias the overhead estimate.
        if next(pair_index) % 2:
            spans = traced_round()
            return [in_process(heiscurves.cli.main, case) for case in cases], spans
        plain = [in_process(heiscurves.cli.main, case) for case in cases]
        return plain, traced_round()

    # One uncounted round first: the process's first large allocations are
    # slower than later ones, which would bias the overhead estimate.
    for case in cases:
        in_process(heiscurves.cli.main, case)
    pair_index = itertools.count()
    pairs = closed_loop(one_pair, seconds)
    answers = [a for plain, spans in pairs for _, a in plain + spans]
    plain_wall = [statistics.fmean(s for s, _ in plain) for plain, _ in pairs]
    traced_wall = [statistics.fmean(s for s, _ in spans) for _, spans in pairs]

    per_inv = tracer.per_invocation()
    per_round = []
    for r in range(len(pairs)):
        ids = range(r * len(cases), (r + 1) * len(cases))
        per_round.append({name: sum(per_inv[i].get(name, 0.0) for i in ids) / len(cases)
                          for name in tracing.metric_names()})
    metrics = {name: statistics.median(rnd[name] for rnd in per_round)
               for name in tracing.metric_names() if not name.startswith("import.")}
    metrics.update(imports)
    summary = answer_summary(answers)
    metrics.update(summary)
    metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)

    lines = [f"  {name:48s} {value:.6g}" for name, value in metrics.items()]
    lines.insert(0, f"  untraced in-process wall {statistics.median(plain_wall):.4f} s, traced "
                    f"{statistics.median(traced_wall):.4f} s per invocation, {len(pairs)} pair(s)")
    record.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall, answers=summary,
                  invocations=[vars(a) for a in answers])
    spans_path = os.path.join(co.results, f"{record['workload']}-seed{record['seed']}-spans.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["invocation", "name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return {"metrics": metrics, "answers": answers, "lines": lines}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("verdict_ok", "error_rate"):
        return "ratio"
    return "count"


def environment(co: Checkout, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "git_commit": co.git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="201-sample inputs (smoke check)")
    args = parser.parse_args(argv)

    co = Checkout(os.getcwd())
    if not co.has_program():
        print("error: src/heiscurves/cli.py not found; run from a heiscurves checkout",
              file=sys.stderr)
        return 2
    os.makedirs(co.results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=co.scratch)
    try:
        sys.path.insert(0, co.src)
        from heiscurves.numerics import DEFAULT_CONFIG

        tolerances = (DEFAULT_CONFIG.residual_tol, DEFAULT_CONFIG.unit_speed_tol)
        cases = workloads.build_cases(args.workload, args.seed, workdir, tiny=args.tiny)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "tiny": args.tiny, "environment": environment(co, args.seed),
                  "truth": {c.name: {"biharmonic": c.biharmonic, **c.truth} for c in cases},
                  "argv": {c.name: c.argv for c in cases}}
        run = traced if args.trace else untraced
        result = run(co, cases, workdir, args.seconds, tolerances, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    answers = result["answers"]
    failed = sum(a.error is not None for a in answers)
    wrong = [f"{a.case}: {w}" for a in answers for w in a.wrong]
    by_name = {c.name: c for c in cases}
    seen = {}
    for a in answers:
        seen.setdefault(a.case, a)
    correct = failed == 0 and not wrong
    record.update(metrics=result["metrics"], correct=correct, wrong=wrong)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(co.results, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"heiscurves benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', tiny' if args.tiny else ''}")
    print("env: " + json.dumps(record["environment"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    for case_name, answer in seen.items():
        print(_describe(answer, by_name[case_name]))
    for line in wrong[:10]:
        print(f"  WRONG {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(answers),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
