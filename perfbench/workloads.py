"""Seeded inputs, truth tables and answer checks for the benchmark's CLI commands.

Every input is an isometric copy of one reference problem: the seed draws
the helix constants (a, b, c, d), which on H3 are a phase and a left
translation, and the geodesic start points and directions up to the
isometries of each metric (left translations and azimuth on H3, rotation
about and translation along the z axis on (m, l) = (0.25, 1.2)).  So every
seed poses the same geometric problem in other coordinates, and differences
between seeds come from the program, not from the draw.

The truth of each input comes from the paper's closed forms, evaluated here
with numpy and never through the package:

    A   = (cos a0 + sqrt(5 cos^2 a0 - 4)) / 2      (biharmonic rate)
    k   = |sin a0 (cos a0 - rate)|
    tau = -(cos a0 rate + 1/2 - cos^2 a0)

A helix of rate ``rate`` is biharmonic exactly when the rate solves
rate^2 - cos a0 rate + 1 - cos^2 a0 = 0.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

SIN_ALPHA0 = 1.0 / math.sqrt(10.0)  # the paper's figure value
COS_ALPHA0 = math.sqrt(1.0 - SIN_ALPHA0 * SIN_ALPHA0)
BIHARMONIC_RATE = 0.5 * (COS_ALPHA0 + math.sqrt(5.0 * COS_ALPHA0**2 - 4.0))
OFF_ROOT_SHIFT = 0.05  # the package's negative control: rate A + 0.05
HELIX_LENGTH = 10.0 * math.pi

SAMPLES = {"generate": 50001, "verify": 200001, "geodesic": 20001}  # per command
# The CLI commands each workload runs in one round.  ``generate`` also runs
# the two geodesics: both commands produce curves and write them, and
# folding the ODE case in keeps the benchmark at two workloads, so that
# each run can be long enough to average out the host's speed swings.
WORKLOADS = {"generate": ("generate", "geodesic"), "verify": ("verify",)}
TINY_SAMPLES = 201
GEODESIC_LENGTH = 1000.0
GEODESIC_T3 = 0.8  # third frame component of every initial direction
# Start of the (0.25, 1.2) geodesic: radius and the turn from the radial
# direction to the initial azimuth, fixed so that every seed is a rotated
# and z-shifted copy of the start (0.1, 0.2, 0), direction (0.6, 0, 0.8).
ML_PARAMS = (0.25, 1.2)
ML_RADIUS = math.hypot(0.1, 0.2)
ML_TURN = -math.atan2(0.2, 0.1)

MEAN_TOL = 1e-4        # allowed |k_mean - k| and |tau_mean - tau|
CSV_TOL = 1e-9         # closed-form agreement of written samples, relative
ENDPOINT_TOL = 1e-6    # H3 geodesic end point vs closed form, relative

_FLOAT = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)"


@dataclass
class Case:
    """One CLI invocation of a workload, with the truth for its input."""

    name: str
    kind: str                # "generate", "verify" or "geodesic"
    argv: list[str]
    biharmonic: bool         # truth: biharmonic (a geodesic counts as such)
    positive: bool           # its residual enters residual_digits
    truth: dict
    outputs: list[str] = field(default_factory=list)


@dataclass
class Answer:
    """What one invocation printed and wrote, checked against its truth."""

    case: str
    rc: int | None = None
    error: str | None = None   # crash, exit 2, timeout or missing output
    verdict: str | None = None
    verdict_matches: bool = False
    residual: float | None = None
    values: dict = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)  # outputs that are incorrect


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def helix_invariants(rate: float) -> dict:
    S, C = SIN_ALPHA0, COS_ALPHA0
    return {
        "rate": rate,
        "k": abs(S * (C - rate)),
        "tau": -(C * rate + 0.5 - C * C),
        "rate_quadratic_residual": rate * rate - C * rate + 1.0 - C * C,
    }


def helix_samples(rate: float, a: float, b: float, c: float, d: float, s: np.ndarray):
    """Positions and frame velocities of the constant-angle helix on H3."""
    S, C = SIN_ALPHA0, COS_ALPHA0
    beta = rate * s + a
    x = (S / rate) * np.sin(beta) + b
    y = -(S / rate) * np.cos(beta) + c
    z = (
        (C + S * S / (2.0 * rate)) * s
        - (b * S / (2.0 * rate)) * np.cos(beta)
        - (c * S / (2.0 * rate)) * np.sin(beta)
        + d
    )
    vel = np.stack([S * np.cos(beta), S * np.sin(beta), np.full_like(beta, C)], axis=-1)
    return np.stack([x, y, z], axis=-1), vel


def h3_geodesic_point(p0: np.ndarray, v0: np.ndarray, s: float) -> np.ndarray:
    """Closed-form H3 geodesic: T3 is constant and (T1, T2) turns at rate T3,
    so the geodesic is the constant-angle helix of rate cos a0 = T3."""
    C = float(v0[2])
    S = math.hypot(v0[0], v0[1])
    phi = math.atan2(v0[1], v0[0])
    b = p0[0] - (S / C) * math.sin(phi)
    c = p0[1] + (S / C) * math.cos(phi)
    d = p0[2] + (b * S / (2.0 * C)) * math.cos(phi) + (c * S / (2.0 * C)) * math.sin(phi)
    beta = C * s + phi
    return np.array([
        (S / C) * math.sin(beta) + b,
        -(S / C) * math.cos(beta) + c,
        (C + S * S / (2.0 * C)) * s
        - (b * S / (2.0 * C)) * math.cos(beta)
        - (c * S / (2.0 * C)) * math.sin(beta)
        + d,
    ])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _triple(v) -> str:
    return ",".join(_fmt(c) for c in v)


def _helix_constants(rng: np.random.Generator) -> dict:
    return {
        "a": float(rng.uniform(0.0, 2.0 * math.pi)),
        "b": float(rng.uniform(-1.0, 1.0)),
        "c": float(rng.uniform(-1.0, 1.0)),
        "d": float(rng.uniform(-1.0, 1.0)),
    }


def write_helix_csv(path: str, rate: float, consts: dict, n: int, length: float) -> None:
    """Position-only ``s,x,y,z`` file with 17 significant digits."""
    s = np.linspace(0.0, length, n)
    pts, _ = helix_samples(rate, consts["a"], consts["b"], consts["c"], consts["d"], s)
    np.savetxt(
        path, np.column_stack([s, pts]), fmt="%.17g", delimiter=",",
        header="s,x,y,z", comments="",
    )


def _generate_cases(rng: np.random.Generator, workdir: str, n: int, shrink: float) -> list[Case]:
    consts = _helix_constants(rng)
    out = os.path.join(workdir, "gen")
    truth = {**helix_invariants(BIHARMONIC_RATE), **consts, "n": n}
    argv = ["generate", "--sin-alpha0", _fmt(SIN_ALPHA0)]
    for key in ("a", "b", "c", "d"):
        argv.append(f"--{key}={_fmt(consts[key])}")
    argv += [
        "--s1", _fmt(HELIX_LENGTH * shrink), "--samples", str(n),
        "--surfaces", "--with-velocity", "--out", out,
    ]
    suffixes = ("csv", "frenet.json", "report.json", "classification.json",
                "params.json", "residuals.csv", "cylinder.csv", "helicoid.csv")
    return [Case("figure_helix", "generate", argv, True, True, truth,
                 [f"{out}.{sfx}" for sfx in suffixes])]


def _verify_cases(rng: np.random.Generator, workdir: str, n: int, shrink: float) -> list[Case]:
    consts = _helix_constants(rng)
    cases = []
    for name, rate, biharmonic in (
        ("figure_helix", BIHARMONIC_RATE, True),
        ("off_root_helix", BIHARMONIC_RATE + OFF_ROOT_SHIFT, False),
    ):
        path = os.path.join(workdir, f"{name}.csv")
        write_helix_csv(path, rate, consts, n, HELIX_LENGTH * shrink)
        truth = {**helix_invariants(rate), **consts, "n": n}
        cases.append(Case(name, "verify", ["verify", path], biharmonic, biharmonic, truth))
    return cases


def _geodesic_cases(rng: np.random.Generator, workdir: str, n: int, shrink: float) -> list[Case]:
    length = GEODESIC_LENGTH * shrink
    S = math.sqrt(1.0 - GEODESIC_T3**2)
    p_h3 = rng.uniform(-1.0, 1.0, 3)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    z_ml = rng.uniform(-1.0, 1.0)
    p_ml = np.array([ML_RADIUS * math.cos(psi), ML_RADIUS * math.sin(psi), z_ml])
    starts = (
        ("h3_geodesic", (0.0, 1.0), p_h3, phi),
        ("ml_geodesic", ML_PARAMS, p_ml, psi + ML_TURN),
    )
    cases = []
    for name, (m, l), p0, azimuth in starts:
        v0 = np.array([S * math.cos(azimuth), S * math.sin(azimuth), GEODESIC_T3])
        out = os.path.join(workdir, name)
        argv = [
            "geodesic", "--m", _fmt(m), "--l", _fmt(l),
            f"--point={_triple(p0)}", f"--direction={_triple(v0)}",
            "--length", _fmt(length), "--samples", str(n), "--out", out,
        ]
        truth = {"m": m, "l": l, "point": p0.tolist(), "direction": v0.tolist(),
                 "length": length, "n": n}
        if (m, l) == (0.0, 1.0):
            truth["end_point"] = h3_geodesic_point(p0, v0, length).tolist()
        cases.append(Case(name, "geodesic", argv, True, True, truth, [f"{out}.csv"]))
    return cases


_CASES_OF_COMMAND = {"generate": _generate_cases, "verify": _verify_cases,
                  "geodesic": _geodesic_cases}


def build_cases(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Case]:
    """The invocations of one round of ``workload``; writes their inputs.

    ``tiny`` keeps the sample spacing of the full workload on a range cut
    to TINY_SAMPLES samples, so the numerics stay in the same regime.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    cases = []
    for kind in WORKLOADS[workload]:
        full = SAMPLES[kind]
        n = TINY_SAMPLES if tiny else full
        cases += _CASES_OF_COMMAND[kind](rng, workdir, n, (n - 1) / (full - 1))
    return cases


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def _search(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None


def _read_rows(path: str, stride: int) -> tuple[list[str], int, np.ndarray]:
    """Header, data-row count and every ``stride``-th data row plus the last."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, data = lines[0].split(","), lines[1:]
    picked = list(range(0, len(data), stride))
    if data and picked[-1] != len(data) - 1:
        picked.append(len(data) - 1)
    rows = np.array([[float(v) for v in data[i].split(",")] for i in picked])
    return header, len(data), rows


def _check_generate(case: Case, out: str, ans: Answer) -> None:
    t = case.truth
    ans.residual = _search(r"max interior \|tau2\| = " + _FLOAT, out)
    cls_path = next(p for p in case.outputs if p.endswith(".classification.json"))
    with open(cls_path) as fh:
        values = json.load(fh).get("values", {})
    for key in ("k_mean", "tau_mean"):
        if key in values:
            ans.values[key] = values[key]

    header, count, rows = _read_rows(case.outputs[0], 997)
    if header != ["s", "x", "y", "z", "vx", "vy", "vz"] or count != t["n"]:
        ans.wrong.append(f"curve CSV has header {header} and {count} rows")
        return
    pts, vel = helix_samples(t["rate"], t["a"], t["b"], t["c"], t["d"], rows[:, 0])
    expect = np.hstack([pts, vel])
    dev = float((np.abs(rows[:, 1:] - expect) / (1.0 + np.abs(expect))).max())
    ans.values["csv_closed_form_dev"] = dev
    if dev > CSV_TOL:
        ans.wrong.append(f"curve CSV deviates from the closed form by {dev:.3e}")


def _check_verify(case: Case, out: str, ans: Answer) -> None:
    ans.residual = _search(r"max interior \|tau2\| = " + _FLOAT, out)
    for key in ("k_mean", "tau_mean"):
        value = _search(rf"{key} = " + _FLOAT, out)
        if value is not None:
            ans.values[key] = value
    expected_rc = 0 if ans.verdict in ("geodesic", "nongeodesic_biharmonic") else 1
    if ans.rc != expected_rc:
        ans.wrong.append(f"exit code {ans.rc} contradicts verdict {ans.verdict}")


def _check_geodesic(case: Case, out: str, ans: Answer, residual_tol: float,
                    unit_speed_tol: float) -> None:
    t = case.truth
    drift = _search(r"unit-speed drift = " + _FLOAT, out)
    ans.residual = _search(r"tension residual = " + _FLOAT, out)
    if ans.residual is not None:
        ans.verdict = "geodesic" if ans.residual <= residual_tol else "not_geodesic"
    ans.values["unit_speed_drift"] = drift
    if drift is None or drift > unit_speed_tol:
        ans.wrong.append(f"unit-speed drift {drift} above {unit_speed_tol:g}")

    header, count, rows = _read_rows(case.outputs[0], max(1, t["n"] - 1))
    if header[:4] != ["s", "x", "y", "z"] or count != t["n"]:
        ans.wrong.append(f"geodesic CSV has header {header} and {count} rows")
        return
    start_dev = float(np.abs(rows[0, 1:4] - np.array(t["point"])).max())
    if rows[0, 0] != 0.0 or abs(rows[-1, 0] - t["length"]) > 1e-9 * t["length"] or start_dev > 1e-12:
        ans.wrong.append("geodesic CSV does not span the requested start and length")
    if "end_point" in t:
        end = np.array(t["end_point"])
        dev = float(np.abs(rows[-1, 1:4] - end).max() / (1.0 + np.abs(end).max()))
        ans.values["end_point_dev"] = dev
        if dev > ENDPOINT_TOL:
            ans.wrong.append(f"H3 geodesic end point deviates from the closed form by {dev:.3e}")


def check_answer(case: Case, rc: int | None, stdout: str, stderr: str, residual_tol: float,
                 unit_speed_tol: float, error: str | None = None) -> Answer:
    """Parse one invocation's output and compare it with the case's truth.

    The answer's ``error`` is set for a crash or timeout (passed in as
    ``error``), an unexpected exit code such as 2, and an expected output
    file that is missing; ``wrong`` lists outputs that are present but
    incorrect.  A verdict that differs from the truth is neither: it is
    reported through ``verdict_matches``.
    """
    ans = Answer(case.name, rc=rc, error=error)
    if ans.error is None:
        ok_codes = (0, 1) if case.kind == "verify" else (0,)
        if rc not in ok_codes:
            ans.error = f"exit code {rc}: {stderr.strip()[-300:]}"
        else:
            missing = [p for p in case.outputs if not os.path.exists(p)]
            if missing:
                ans.error = f"missing output {missing[0]}"
    if ans.error is not None:
        return ans

    match = re.search(r"^verdict: (\w+)", stdout, re.MULTILINE)
    ans.verdict = match.group(1) if match else None
    try:
        if case.kind == "generate":
            _check_generate(case, stdout, ans)
        elif case.kind == "verify":
            _check_verify(case, stdout, ans)
        else:
            _check_geodesic(case, stdout, ans, residual_tol, unit_speed_tol)
    except (OSError, ValueError, IndexError) as exc:
        ans.error = f"unreadable output: {exc}"
        return ans
    if ans.verdict is None or ans.residual is None:
        ans.error = "verdict or residual missing from the output"
        return ans
    if not math.isfinite(ans.residual):
        ans.wrong.append(f"residual {ans.residual} is not finite")
        ans.residual = None

    claims = ans.verdict in ("geodesic", "nongeodesic_biharmonic")
    ans.verdict_matches = claims == case.biharmonic
    if claims and not case.biharmonic:
        ans.wrong.append(f"negative control accepted as {ans.verdict}")
    for key, truth_key in (("k_mean", "k"), ("tau_mean", "tau")):
        if key in ans.values:
            dev = abs(ans.values[key] - case.truth[truth_key])
            ans.values[f"{key}_dev"] = dev
            if dev > MEAN_TOL:
                ans.wrong.append(f"{key} deviates from the closed form by {dev:.3e}")
    return ans
