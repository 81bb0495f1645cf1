"""Per-module spans recorded from outside the package.

``Tracer.install`` wraps the public functions named in ``TRACED`` in every
heiscurves module namespace that binds them (``analysis`` binds
``frenet_apparatus`` by name, ``factory`` binds scipy's ``solve_ivp``), and
``uninstall`` puts the originals back.  Each call records a span (invocation,
name, start, end, parent) in memory; a layer's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

MODULES = ("analysis", "cli", "curves", "factory", "manifold", "numerics")

# (module, attribute) pairs; the attribute may be "Class.method".
TRACED = (
    ("numerics", "derivative_on_grid"),
    ("manifold", "connection_table"),
    ("manifold", "curvature_table"),
    ("manifold", "to_frame_components"),
    ("curves", "sample_curve"),
    ("curves", "covariant_derivative_along"),
    ("curves", "frenet_apparatus"),
    ("curves", "read_samples_csv"),
    ("curves", "write_samples_csv"),
    ("curves", "frenet_to_json"),
    ("analysis", "tension2_direct"),
    ("analysis", "tension2_frame"),
    ("analysis", "bitension_report"),
    ("analysis", "classify_curve"),
    ("analysis", "residuals_to_csv"),
    ("analysis", "BitensionReport.to_json"),
    ("factory", "solve_ivp"),
)
ROOT = "cli.main"
IMPORT_PACKAGES = ("heiscurves", "scipy", "numpy")


def _points_bytes(args, kwargs, result):
    """Bytes of the (n, 3, 3, 3, 3) float64 table: n * 81 * 8."""
    points = args[1] if len(args) > 1 else kwargs["p"]
    n = len(points) if getattr(points, "ndim", 1) == 2 else 1
    return n * 81 * 8


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _text_bytes(args, kwargs, result):
    return len(result.encode())


# Extra per-call counters: metric suffix and how to compute it.
COUNTERS = {
    "manifold.curvature_table": ("bytes", _points_bytes),
    "curves.read_samples_csv": ("bytes", _path_bytes),
    "curves.write_samples_csv": ("bytes", _path_bytes),
    "curves.frenet_to_json": ("bytes", _text_bytes),
    "analysis.residuals_to_csv": ("bytes", _path_bytes),
    "analysis.BitensionReport.to_json": ("bytes", _text_bytes),
    "factory.solve_ivp": ("nfev", lambda args, kwargs, result: int(result.nfev)),
}


def metric_names() -> list[str]:
    """Every per-module metric the traced run reports."""
    names = []
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in COUNTERS:
            names.append(f"{name}.{COUNTERS[name][0]}")
    names.append(f"{ROOT}.self_s")
    names += [f"import.{pkg}_s" for pkg in IMPORT_PACKAGES]
    return names


class Tracer:
    """Span recorder for in-process CLI invocations."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: list[tuple[int, str, float]] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.invocation, name, time.perf_counter(), 0.0, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                inv, _, start, _, _ = self.spans[index]
                self.spans[index] = (inv, name, start, time.perf_counter(), parent)
            if counter is not None:
                self.counters.append((inv, f"{name}.{counter[0]}", counter[1](args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"heiscurves.{m}") for m in MODULES}
        namespaces = [importlib.import_module("heiscurves"), *mods.values()]
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mods[module], cls_name)
                self._patch(owner, meth, self.wrap(name, getattr(owner, meth)))
                continue
            original = getattr(mods[module], attr)
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, value = self._patched.pop()
            setattr(owner, key, value)

    def per_invocation(self) -> dict[int, dict[str, float]]:
        """calls, self_s and counters per traced invocation."""
        child = [0.0] * len(self.spans)
        for inv, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (inv, name, start, end, parent) in enumerate(self.spans):
            out[inv][f"{name}.calls"] += 1
            out[inv][f"{name}.self_s"] += (end - start) - child[i]
        for inv, key, value in self.counters:
            out[inv][key] += value
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self seconds per top-level package from ``python -X importtime``."""
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return totals
