"""Smoke test of ``tools/stage_profile.py`` at small sample counts."""

import importlib.util
import json
from pathlib import Path

import heiscurves as hc

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
    assert "nongeodesic_biharmonic" in capsys.readouterr().out
    # the package functions are unwrapped again
    assert hc.curves.sample_curve is hc.sample_curve
    assert hc.cli._write_text.__module__ == "heiscurves.cli"
