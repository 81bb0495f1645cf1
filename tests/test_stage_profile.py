"""Smoke test of ``tools/stage_profile.py`` at small sample counts."""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import heiscurves as hc
from heiscurves import numerics

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_profile.py"
GEOMETRY = ["sample", "frenet", "tension", "classify"]
FILES = ["csv", "frenet.json", "residuals.csv", "report.json", "classification.json",
         "params.json", "cylinder.csv", "helicoid.csv"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("stage_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_profile_writes_stages_and_answers(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert _load_tool().main(["--out", str(out), "--sizes", "201", "2001", "--repeats", "1"]) == 0
    payload = json.loads(out.read_text())
    runs = {(run["command"], run["n"]): run for run in payload["runs"]}
    assert sorted(runs) == [(command, n) for command in ("generate", "verify") for n in (201, 2001)]

    # 201 positions are too coarse for the unit-speed check: recorded, not raised
    failed = runs["verify", 201]
    assert failed["exit_code"] == 2 and failed["verdict"] is None
    assert failed["error"].startswith("input error:")
    assert [entry["stage"] for entry in failed["stages"]] == ["read"]

    verify = runs["verify", 2001]
    assert verify["exit_code"] == 0 and verify["error"] is None
    assert verify["verdict"] == "nongeodesic_biharmonic"
    assert [entry["stage"] for entry in verify["stages"]] == ["read", *GEOMETRY]
    generate = runs["generate", 2001]
    assert [entry["stage"] for entry in generate["stages"]] == [*GEOMETRY, *FILES]
    for run in (verify, generate):
        assert run["verdict"] in hc.analysis.VERDICTS
        assert 0.0 < run["max_interior_residual"] < 1e-6
        assert run["checks"]["system_algebraic_relation"]["passed"]
        for entry in run["stages"]:
            assert entry["seconds"] >= 0.0 and entry["peak_mb"] > 0.0
        assert run["peak_mb"] == max(entry["peak_mb"] for entry in run["stages"])
    # verify keeps only the largest interior |tau2|; generate's report has the rest
    assert "mean_interior_residual" not in verify and "expansion_agreement" not in verify
    assert 0.0 < generate["mean_interior_residual"] <= generate["max_interior_residual"]
    assert "nongeodesic_biharmonic" in capsys.readouterr().out
    # the package functions are unwrapped again
    assert hc.curves.sample_curve is hc.sample_curve
    assert hc.curves.write_frenet_json is hc.write_frenet_json
    assert hc.cli._write_text.__module__ == "heiscurves.cli"


def test_stages_sum_over_tiles(tmp_path, monkeypatch):
    """``verdict_series`` runs ``frenet_apparatus`` once per tile: each
    stage sums its intervals, and time inside the nested ``frenet`` stage
    does not count for ``tension``.  A clock that ticks once per reading
    makes every interval one second."""
    module = _load_tool()
    ticks = itertools.count()
    monkeypatch.setattr(module, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(numerics, "TILE", 500)
    path = tmp_path / "positions.csv"
    module._write_positions(str(path), 2001)
    code, _, clock = module._run(["verify", str(path)], traced=False)
    assert code == 0
    tiles = len(list(numerics.tiles(2001, 3)))
    assert tiles == 5
    assert list(clock.stages) == ["read", *GEOMETRY]
    assert clock.stages["frenet"]["seconds"] == tiles
    # before the first tile's frame, between the frames and after the last
    assert clock.stages["tension"]["seconds"] == tiles + 1
    assert isinstance(clock.results["tension"], hc.VerdictSeries)
    assert clock.results["tension"].samples.n == 2001


def test_script_caps_blas_threads_before_numpy(tmp_path):
    """Run as a script, the tool sets the BLAS thread caps itself and
    records them; imported, it leaves the environment alone."""
    before = dict(os.environ)
    module = _load_tool()
    assert dict(os.environ) == before
    env = {k: v for k, v in os.environ.items() if k not in module.THREAD_CAPS}
    src = str(Path(hc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--out", str(out), "--sizes", "17", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["environment"]["thread_caps"] == module.THREAD_CAPS
