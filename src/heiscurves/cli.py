"""Command-line front end.

Subcommands:

    tensors    connection / curvature / Ricci tables at a point, with the
               closed-form vs finite-difference cross-check
    generate   sample a biharmonic helix, its Frenet data and bitension
               report, optionally the cylinder / helicoid meshes
    verify     classify a curve from a CSV sample file (exit 0 = biharmonic)
    geodesic   shoot a geodesic from a point and initial direction
    cone       query or sweep the cone of biharmonic directions
    scan       closed-form invariants over a grid of axis angles

Outputs are deterministic: identical inputs produce byte-identical files.
Angles are radians unless a ``--*-deg`` option is used.  A JSON config file
(``--config``) may predefine the manifold and numerics settings; explicit
flags win over the file.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import math
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import analysis, factory
from . import curves as crv
from . import manifold as mf
from .errors import HeiscurvesError, InadmissibleAlpha, MalformedSampleFile, NonMonotone, NonUnitSpeed
from .manifold import ManifoldParams
from .numerics import NumericsConfig

# At exit, freeze what is left so the interpreter skips its last cyclic
# collection over every object the imports made; module teardown remains.
atexit.register(gc.freeze)

# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _section(file_cfg: dict, name: str) -> dict:
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {name!r} must be a JSON object, got {section!r}")
    return section


def _number(value, what: str) -> float:
    """A config value as a float: a JSON number (not a boolean) or a numeric string."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _resolve_manifold(args, file_cfg: dict) -> ManifoldParams:
    man = _section(file_cfg, "manifold")
    m = args.m if args.m is not None else _number(man.get("m", 0.0), "manifold m")
    l = args.l if args.l is not None else _number(man.get("l", 1.0), "manifold l")
    return ManifoldParams(m, l)


def _resolve_numerics(file_cfg: dict, args) -> NumericsConfig:
    overrides = dict(_section(file_cfg, "numerics"))
    for item in args.numerics or []:
        key, _, raw = item.partition("=")
        if not raw:
            raise ValueError(f"--numerics expects KEY=VALUE, got {item!r}")
        overrides[key] = raw
    unknown = set(overrides) - {f.name for f in dataclass_fields(NumericsConfig)}
    if unknown:
        raise ValueError(f"unknown numerics settings: {sorted(unknown)}")
    return NumericsConfig(**{k: _number(v, f"numerics {k}") for k, v in overrides.items()})


def _parse_triple(text: str, what: str) -> np.ndarray:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}; expected three comma-separated numbers")
    if len(parts) != 3:
        raise ValueError(f"{what} needs exactly three components, got {len(parts)}")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return np.asarray(parts, dtype=float)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _reference_tag(val: float, ref: float | None) -> str:
    """An entry's ``reference <ref>  MATCH`` (or ``MISMATCH``) suffix; empty without ``ref``."""
    if ref is None:
        return ""
    return f"   reference {ref:g}  " + ("MATCH" if abs(val - ref) <= 1e-12 else "MISMATCH")


def cmd_tensors(args, file_cfg: dict) -> int:
    params = _resolve_manifold(args, file_cfg)
    _resolve_numerics(file_cfg, args)  # rejects bad settings; the tables read none
    point = _parse_triple(args.point, "--point") if args.point else np.zeros(3)

    G = mf.connection_table(params, point)
    R = mf.curvature_table(params, point)

    lines: list[str] = []
    lines.append(f"manifold: m = {params.m:g}, l = {params.l:g}")
    lines.append(f"point: ({point[0]:g}, {point[1]:g}, {point[2]:g})")
    lines.append("")
    lines.append("frame connection  nabla_{e_a} e_b  (closed form, frame components)")
    for a in range(3):
        for b in range(3):
            comps = ", ".join(_fmt(G[a, b, cmp]) for cmp in range(3))
            lines.append(f"  a={a + 1} b={b + 1}: ({comps})")

    reference = mf.h3_riemann_reference() if params.is_heisenberg else {}
    lines.append("")
    lines.append("riemann components R_abcd (a<b, c<d, nonzero)")
    planes = list(itertools.combinations(range(3), 2))
    for (a, b), (c, d) in itertools.product(planes, repeat=2):
        val = R[a, b, c, d]
        key = (a + 1, b + 1, c + 1, d + 1)
        if abs(val) < 1e-15 and key not in reference:
            continue
        lines.append(f"  R_{a + 1}{b + 1}{c + 1}{d + 1} = {_fmt(val)}"
                     + _reference_tag(val, reference.get(key)))

    ricci = [[mf.ricci_component(params, point, a, b) for b in (1, 2, 3)] for a in (1, 2, 3)]
    ricci_ref = mf.h3_ricci_reference() if params.is_heisenberg else {}
    lines.append("")
    lines.append("ricci components rho_ab")
    for a in range(3):
        for b in range(a, 3):
            lines.append(f"  rho_{a + 1}{b + 1} = {_fmt(ricci[a][b])}"
                         + _reference_tag(ricci[a][b], ricci_ref.get((a + 1, b + 1))))

    lines.append("")
    lines.append("sectional curvatures of the frame planes")
    for (a, b) in ((1, 2), (1, 3), (2, 3)):
        K = mf.sectional(params, point, np.eye(3)[a - 1], np.eye(3)[b - 1])
        lines.append(f"  K(e{a}, e{b}) = {_fmt(K)}")

    conn_dev, conn_tol, curv_dev, curv_tol = mf.cross_check(params, point)
    ok = conn_dev <= conn_tol and curv_dev <= curv_tol
    lines.append("")
    lines.append(
        f"finite-difference cross-check: connection dev {conn_dev:.3e} (tol {conn_tol:g}), "
        f"curvature dev {curv_dev:.3e} (tol {curv_tol:g}) "
        + ("PASS" if ok else "FAIL")
    )

    text = "\n".join(lines)
    print(text)
    if args.json:
        payload = {
            "manifold": {"m": params.m, "l": params.l},
            "point": [float(v) for v in point],
            "connection": G.tolist(),
            "riemann": R.tolist(),
            "ricci": ricci,
            "numeric_deviation": {"connection": conn_dev, "curvature": curv_dev},
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _alpha0_from_args(args) -> float:
    given = [
        name
        for name in ("alpha0", "alpha0_deg", "sin_alpha0", "cos_alpha0")
        if getattr(args, name) is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "specify the axis angle exactly once: --alpha0, --alpha0-deg, "
            "--sin-alpha0 or --cos-alpha0"
        )
    if args.alpha0 is not None:
        return float(args.alpha0)
    if args.alpha0_deg is not None:
        return math.radians(float(args.alpha0_deg))
    if args.sin_alpha0 is not None:
        flag, value, inverse = "--sin-alpha0", args.sin_alpha0, math.asin
    else:
        flag, value, inverse = "--cos-alpha0", args.cos_alpha0, math.acos
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"{flag} must lie in [-1, 1], got {value!r}")
    return inverse(value)


def _write_surface_csv(path, patch, u_vals, v_vals) -> None:
    u, v = np.meshgrid(u_vals, v_vals, indexing="ij")
    x, y, z = factory.surface_eval(patch, u, v).reshape(-1, 3).T
    crv._write_table(path, ("u", "v", "x", "y", "z"), (u.ravel(), v.ravel(), x, y, z))


def _write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cmd_generate(args, file_cfg: dict) -> int:
    config = _resolve_numerics(file_cfg, args)
    alpha0 = _alpha0_from_args(args)
    hp = factory.HelixParams(
        alpha0=alpha0, a=args.a, b=args.b, c=args.c, d=args.d, branch=args.branch
    )
    s_range = (args.s0, args.s1)
    spec = factory.biharmonic_helix(hp, s_range)
    samples = crv.sample_curve(spec, args.samples, config)
    report = analysis.bitension_report(samples, config)
    result = analysis.classify_curve(report.frenet, config)

    suffixes = [".csv", ".frenet.json", ".report.json", ".classification.json", ".params.json",
                ".residuals.csv"]
    if args.surfaces:
        suffixes += [".cylinder.csv", ".helicoid.csv"]
    path = {suffix: f"{args.out}{suffix}" for suffix in suffixes}
    crv.write_samples_csv(path[".csv"], samples, include_velocity=args.with_velocity)
    crv.write_frenet_json(path[".frenet.json"], report.frenet)
    analysis.residuals_to_csv(path[".residuals.csv"], report)
    _write_text(path[".report.json"], report.to_json())
    _write_text(path[".classification.json"], result.to_json())
    _write_text(path[".params.json"], factory.dump_curve_params(spec, args.samples))
    if args.surfaces:
        nu, nv = args.surface_grid
        u_vals = np.linspace(s_range[0], s_range[1], nu)
        zs = samples.points[:, 2]
        v_cyl = np.linspace(zs.min(), zs.max(), nv)
        v_hel = np.linspace(0.0, 1.25, nv)
        _write_surface_csv(path[".cylinder.csv"], factory.cylinder_patch(hp), u_vals, v_cyl)
        _write_surface_csv(path[".helicoid.csv"], factory.helicoid_patch(hp), u_vals, v_hel)

    agreement = report.expansion_agreement  # None (null in .report.json) without a frame
    print(f"alpha0 = {alpha0:.12g}, branch = {hp.branch}, rate A = {spec.family['rate']:.12g}")
    print(
        f"max interior |tau2| = {report.max_residual:.3e}, "
        f"expansion agreement = {'none' if agreement is None else f'{agreement:.3e}'}"
    )
    print(f"verdict: {result.verdict}")
    for written in path.values():
        print(f"wrote {written}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args, file_cfg: dict) -> int:
    params = _resolve_manifold(args, file_cfg)
    config = _resolve_numerics(file_cfg, args)
    samples = crv.import_samples(params, *crv.read_samples_csv(args.input), config=config)
    series = analysis.verdict_series(samples, config)
    result = analysis.classify_curve(series, config)

    print(f"curve: {args.input} ({samples.n} samples, manifold m={params.m:g} l={params.l:g})")
    print(f"verdict: {result.verdict}")
    print(f"max interior |tau2| = {series.max_residual:.6e}")
    for name, chk in sorted(result.checks.items()):
        status = "holds" if chk.passed else "fails"
        print(f"  {name:28s} residual {chk.residual:12.6e}  tol {chk.tolerance:9.3e}  {status}")
    for key in ("k_mean", "tau_mean", "B3_mean"):
        if key in result.values:
            print(f"  {key} = {result.values[key]:.9g}")
    if args.json:
        payload = result.as_dict()
        payload["max_interior_tau2"] = series.max_residual
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0 if result.is_biharmonic else 1


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------


def cmd_geodesic(args, file_cfg: dict) -> int:
    params = _resolve_manifold(args, file_cfg)
    config = _resolve_numerics(file_cfg, args)
    p0 = _parse_triple(args.point, "--point")
    v0 = _parse_triple(args.direction, "--direction")
    nrm = float(np.linalg.norm(v0))
    if nrm == 0.0:
        raise ValueError("--direction must be nonzero")
    v0 = v0 / nrm
    spec = factory.geodesic_ivp(params, p0, v0, (0.0, args.length))
    samples = crv.sample_curve(spec, args.samples, config)
    t1 = analysis.tension1(samples)
    t1_max = samples.interior_max(lambda w: np.linalg.norm(t1[w], axis=1), 1)[0]
    drift = crv._speed_deviation(samples)[0]

    crv.write_samples_csv(f"{args.out}.csv", samples, include_velocity=args.with_velocity)
    print(f"geodesic from ({args.point}) direction ({args.direction}) length {args.length:g}")
    print(f"unit-speed drift = {drift:.3e}, tension residual = {t1_max:.3e}")
    print(f"wrote {args.out}.csv")
    return 0


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------


def cmd_cone(args, file_cfg: dict) -> int:
    params = _resolve_manifold(args, file_cfg)
    if args.direction:
        v = _parse_triple(args.direction, "--direction")
        verdict = analysis.cone_membership(params, v)
        cos_a = float(v[2])
        print(f"direction ({args.direction}): cos(alpha0) = {cos_a:.9g}")
        print(f"verdict: {verdict}")
        return 0
    n = args.sweep
    lo = factory.ADMISSIBLE_BOUNDARY
    hi = math.pi - factory.ADMISSIBLE_BOUNDARY
    print(f"admissible axis angles: (0, {lo:.9f}] union [{hi:.9f}, pi)")
    print("alpha0,cos_alpha0,admissible")
    grid = np.linspace(0.0, math.pi, n + 2)[1:-1]
    for alpha0 in grid:
        cos_a = math.cos(alpha0)
        admissible = factory.admissible_cos(cos_a)
        print(f"{alpha0:.9f},{cos_a:.9f},{int(admissible)}")
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args, file_cfg: dict) -> int:
    params = _resolve_manifold(args, file_cfg)
    if not params.is_heisenberg:
        raise HeiscurvesError(
            "closed-form helix invariants exist only for (m, l) = (0, 1)"
        )
    lo = factory.ADMISSIBLE_BOUNDARY
    hi = math.pi - factory.ADMISSIBLE_BOUNDARY
    eps = 1e-6
    if args.component == "pos":
        grids = [np.linspace(eps, lo, args.count)]
    elif args.component == "neg":
        grids = [np.linspace(hi, math.pi - eps, args.count)]
    else:
        half = max(1, args.count // 2)
        grids = [np.linspace(eps, lo, half), np.linspace(hi, math.pi - eps, half)]
    branches = ["plus", "minus"] if args.branch == "both" else [args.branch]

    rows = []
    for grid in grids:
        for alpha0 in grid:
            if not args.alpha_min <= alpha0 <= args.alpha_max:
                continue
            for branch in branches:
                try:
                    hp = factory.HelixParams(alpha0=float(alpha0), branch=branch)
                except InadmissibleAlpha:
                    continue
                k, tau, B3 = factory.helix_invariants(hp)
                rows.append((hp.alpha0, branch, hp.rate, k, tau, B3, k * k + tau * tau + B3 * B3))

    header = "alpha0,branch,A,k,tau,B3,ksq_plus_tausq_plus_B3sq"
    lines = [header]
    for row in rows:
        lines.append(
            ",".join([_fmt(row[0]), row[1]] + [_fmt(v) for v in row[2:]])
        )
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text)
    if not rows:
        print("warning: no admissible axis angles in the requested range", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heiscurves",
        description="Tensor tables, Frenet data and biharmonic-curve verification "
        "on the Heisenberg group and its metric family.",
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument(
        "--numerics",
        action="append",
        metavar="KEY=VALUE",
        help="override a numerics setting (repeatable), e.g. --numerics residual_tol=1e-7",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifold(p):
        p.add_argument("--m", type=float, default=None, help="curvature parameter m")
        p.add_argument("--l", type=float, default=None, help="twist parameter l")

    p = sub.add_parser("tensors", help="connection/curvature/Ricci tables at a point")
    add_manifold(p)
    p.add_argument("--point", help="evaluation point 'x,y,z' (default origin)")
    p.add_argument("--json", help="also write the tables to this JSON file")
    p.set_defaults(func=cmd_tensors)

    p = sub.add_parser("generate", help="sample a biharmonic helix and its reports")
    p.add_argument("--alpha0", type=float, default=None, help="axis angle in radians")
    p.add_argument("--alpha0-deg", type=float, default=None, help="axis angle in degrees")
    p.add_argument("--sin-alpha0", type=float, default=None, help="sine of the axis angle")
    p.add_argument("--cos-alpha0", type=float, default=None, help="cosine of the axis angle")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--s1", type=float, default=10.0 * math.pi)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--with-velocity", action="store_true", help="include vx,vy,vz columns")
    p.add_argument("--surfaces", action="store_true", help="also write cylinder/helicoid meshes")
    p.add_argument(
        "--surface-grid", type=int, nargs=2, default=(121, 25), metavar=("NU", "NV")
    )
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="classify a curve from a CSV sample file")
    p.add_argument("input", help="CSV file with header s,x,y,z[,vx,vy,vz]")
    add_manifold(p)
    p.add_argument("--json", help="write the classification to this JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("geodesic", help="evaluate a geodesic from point + direction")
    add_manifold(p)
    p.add_argument("--point", required=True, help="start point 'x,y,z'")
    p.add_argument("--direction", required=True, help="initial frame direction 'a,b,c'")
    p.add_argument("--length", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--with-velocity", action="store_true")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("cone", help="query or sweep the cone of biharmonic directions")
    add_manifold(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--direction", help="unit frame direction 'a,b,c'")
    group.add_argument("--sweep", type=int, help="sweep alpha0 over (0, pi) at N points")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("scan", help="closed-form helix invariants over an angle grid")
    add_manifold(p)
    p.add_argument("--count", type=int, default=50, help="grid points (per component)")
    p.add_argument("--branch", choices=["plus", "minus", "both"], default="plus")
    p.add_argument("--component", choices=["pos", "neg", "both"], default="both")
    p.add_argument("--alpha-min", type=float, default=0.0, help="keep angles >= this")
    p.add_argument("--alpha-max", type=float, default=math.pi, help="keep angles <= this")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config)
        return args.func(args, file_cfg)
    except (NonUnitSpeed, NonMonotone, MalformedSampleFile) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HeiscurvesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
