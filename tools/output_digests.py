"""SHA-256 digests of what the CLI writes and prints, for byte-identity checks.

In a temporary directory, at each ``--samples`` size, this runs the
figure-helix ``generate`` (sin alpha0 = 1/sqrt(10), a = b = c = 1) with
surfaces and velocities, and again without either, once with
``--sin-alpha0`` and once with the other spelling of the angle,
``--alpha0`` = asin(1/sqrt(10)) (the two write the same bytes).  It runs
the benchmark's two length-1000 ``geodesic`` commands (H3 and (m, l) =
(0.25, 1.2)) with velocities, and a length-20 H3 ``geodesic`` with
velocities.  It runs ``verify --json`` on the helix CSV, on its ``s,x,y,z``
columns alone, the input whose velocities ``verify`` differences, on the
length-20 geodesic (verdict ``geodesic``), on a horizontal H3 curve with an
inflection point and on the figure helix's family at the off-root rate
A + 0.05; ``verify`` finds the last two not biharmonic (exit 1) at every n,
the off-root helix through ``helix_not_biharmonic``.  It also runs the
commands whose outputs do not depend on n: ``tensors --json`` on H3 at the
origin, on (m, l) = (0.25, 1.2) at (1, 2, 3) and on (2, 1) at (1000, 0, 0),
``cone`` on one direction and on a sweep, and ``scan`` of both branches to
a CSV.  It prints ``n  sha256  name`` for every file and for every command's
stdout and stderr, and ``n  exit N  name`` for every exit code, n being the
sample count.  Diff two runs:

    PYTHONPATH=/path/to/parent/src python tools/output_digests.py --samples 2001 50001 > parent.txt
    PYTHONPATH=src python tools/output_digests.py --samples 2001 50001 > change.txt
    diff parent.txt change.txt

With ``--values`` the digest of each per-sample file (every ``.frenet.json``
and every CSV but ``scan.csv``) is that of the float64 bits it holds, not of
its bytes (``value_digest``), so that two runs whose files differ in number
text alone print the same lines.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np

from heiscurves.cli import main as cli_main
from heiscurves.factory import helix_family_curve, solve_branch_A
from heiscurves.numerics import cumulative_simpson


def commands(n: int) -> list[tuple[str, list[str]]]:
    shape = ["--a=1", "--b=1", "--c=1", "--samples", str(n)]
    helix = ["generate", f"--sin-alpha0={1.0 / math.sqrt(10.0)!r}", *shape]
    helix_alpha0 = ["generate", f"--alpha0={math.asin(1.0 / math.sqrt(10.0))!r}", *shape]
    geodesics = [
        (name, ["geodesic", "--m", m, "--l", l, "--point=0.1,0.2,0", "--direction=0.6,0,0.8",
                "--length", "1000", "--samples", str(n), "--with-velocity", "--out", name])
        for name, m, l in (("h3_geodesic", "0", "1"), ("ml_geodesic", "0.25", "1.2"))
    ]
    short_geodesic = ["geodesic", "--point=0.1,0.2,0", "--direction=0.6,0,0.8", "--length", "20",
                      "--samples", str(n), "--with-velocity", "--out", "short_geodesic"]
    tensors = [
        (name, ["tensors", "--m", m, "--l", l, "--point", point, "--json", f"{name}.json"])
        for name, m, l, point in (("tensors_h3", "0", "1", "0,0,0"),
                                  ("tensors_ml", "0.25", "1.2", "1,2,3"),
                                  ("tensors_far", "2", "1", "1000,0,0"))
    ]
    return [
        ("generate", [*helix, "--surfaces", "--with-velocity", "--out", "helix"]),
        ("generate_plain", [*helix, "--out", "plain"]),
        ("generate_alpha0", [*helix_alpha0, "--out", "alpha0"]),
        *geodesics,
        ("short_geodesic", short_geodesic),
        ("verify", ["verify", "helix.csv", "--json", "verify.json"]),
        ("verify_positions", ["verify", "positions.csv", "--json", "verify_positions.json"]),
        ("verify_inflection", ["verify", "inflection.csv", "--json", "verify_inflection.json"]),
        ("verify_geodesic", ["verify", "short_geodesic.csv", "--json", "verify_geodesic.json"]),
        ("verify_offroot", ["verify", "offroot.csv", "--json", "verify_offroot.json"]),
        *tensors,
        ("cone_direction", ["cone", "--direction", "0,0.6,0.8"]),
        ("cone_sweep", ["cone", "--sweep", "7"]),
        ("scan", ["scan", "--branch", "both", "--out", "scan.csv"]),
    ]


def write_positions(src: str, dst: str) -> None:
    """Copy the ``s,x,y,z`` columns of the sample CSV ``src`` to ``dst``."""
    with open(src, "rb") as fh, open(dst, "wb") as out:
        out.writelines(b",".join(line.rstrip(b"\r\n").split(b",")[:4]) + b"\r\n" for line in fh)


def write_inflection(path: str, n: int) -> None:
    """Write ``n`` rows ``s,x,y,z,vx,vy,vz`` of the unit-speed horizontal H3
    curve T = (cos b, sin b, 0), b = (s - 2)**2 / 2, s in [0, 4], whose
    curvature k = |s - 2| vanishes at s = 2 (a sample when n is odd).  The
    positions integrate x' = T1, y' = T2 and z' = (x T2 - y T1) / 2 with
    ``cumulative_simpson`` on a grid 16 times finer."""
    s = np.linspace(0.0, 4.0, 16 * (n - 1) + 1)
    beta = 0.5 * (s - 2.0) ** 2
    T = np.column_stack([np.cos(beta), np.sin(beta)])  # T3 = 0
    xy = cumulative_simpson(T, s[1] - s[0])
    z = cumulative_simpson(0.5 * (xy[:, 0] * T[:, 1] - xy[:, 1] * T[:, 0]), s[1] - s[0])
    rows = np.column_stack([s[::16], xy[::16], z[::16], T[::16], np.zeros(n)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="s,x,y,z,vx,vy,vz", comments="")


def write_offroot(path: str, n: int) -> None:
    """Write ``n`` rows ``s,x,y,z,vx,vy,vz`` on s in [0, 10 pi] of the figure
    helix's family (sin alpha0 = 1/sqrt(10), a = b = c = 1) at the off-root
    rate A + 0.05: the exact positions and frame velocities of
    ``helix_family_curve``, a helix that is not biharmonic."""
    alpha0 = math.asin(1.0 / math.sqrt(10.0))
    spec = helix_family_curve(alpha0, solve_branch_A(alpha0) + 0.05, a=1.0, b=1.0, c=1.0)
    s = np.linspace(*spec.s_range, n)
    points, velocity = spec.sampler(s)
    rows = np.column_stack([s, points, velocity])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="s,x,y,z,vx,vy,vz", comments="")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_per_sample(name: str) -> bool:
    """Whether ``name`` is a per-sample file: a ``.frenet.json`` or a CSV of
    numbers (``scan.csv`` names a branch in each row)."""
    return name.endswith(".frenet.json") or (name.endswith(".csv") and name != "scan.csv")


def _nan_for_null(value):
    if value is None:
        return math.nan
    if isinstance(value, list):
        return [_nan_for_null(v) for v in value]
    if isinstance(value, dict):
        return {key: _nan_for_null(v) for key, v in value.items()}
    return value


def value_digest(path: str) -> str:
    """SHA-256 of the values of a per-sample file, not of its text: for a
    CSV, its header line and the float64 bits of its fields (an empty field
    as NaN); for JSON, the payload with every number as a float64 and null
    as NaN, written with ``repr``'s text of each float and sorted keys."""
    with open(path, "rb") as fh:
        if path.endswith(".json"):
            payload = _nan_for_null(json.load(fh, parse_int=float))
            return _sha256(json.dumps(payload, sort_keys=True).encode())
        header = fh.readline().rstrip(b"\r\n")
        rows = [[float(f) if f.strip() else math.nan for f in line.rstrip(b"\r\n").split(b",")]
                for line in fh]
    values = np.array(rows, dtype=float)
    values[np.isnan(values)] = np.nan  # one NaN
    return _sha256(header + b"\n" + values.tobytes())


def digests(n: int, values: bool = False) -> list[str]:
    lines, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # so that outputs and stdout name relative paths only
        try:
            for name, argv in commands(n):
                if name == "verify_positions":
                    write_positions("helix.csv", "positions.csv")
                if name == "verify_inflection":
                    write_inflection("inflection.csv", n)
                if name == "verify_offroot":
                    write_offroot("offroot.csv", n)
                with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                        contextlib.redirect_stderr(io.StringIO()) as stderr:
                    code = cli_main(argv)
                for stream, text in (("stdout", stdout), ("stderr", stderr)):
                    lines.append(f"{_sha256(text.getvalue().encode())}  {name}.{stream}")
                lines.append(f"exit {code}  {name}")
            for path in sorted(os.listdir(tmp)):
                if values and is_per_sample(path):
                    lines.append(f"{value_digest(path)}  {path}")
                    continue
                with open(path, "rb") as fh:
                    lines.append(f"{_sha256(fh.read())}  {path}")
        finally:
            os.chdir(cwd)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, nargs="+", default=[2001])
    parser.add_argument("--values", action="store_true",
                        help="digest the values of the per-sample files, not their bytes")
    args = parser.parse_args(argv)
    for n in args.samples:
        print("\n".join(f"{n}  {line}" for line in digests(n, args.values)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
