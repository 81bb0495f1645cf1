"""Smoke test of ``tools/output_digests.py`` at small sample counts: 2 001
and 1 001, as 201 positions of the figure helix fail the unit-speed check."""

import hashlib
import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
FILES = ["h3_geodesic.csv", "helix.classification.json", "helix.csv", "helix.cylinder.csv",
         "helix.frenet.json", "helix.helicoid.csv", "helix.params.json", "helix.report.json",
         "helix.residuals.csv", "inflection.csv", "ml_geodesic.csv", "plain.classification.json",
         "plain.csv", "plain.frenet.json", "plain.params.json", "plain.report.json",
         "plain.residuals.csv", "positions.csv", "scan.csv",
         "tensors_far.json", "tensors_h3.json", "tensors_ml.json", "verify.json",
         "verify_inflection.json", "verify_positions.json"]
COMMANDS = ["generate", "generate_plain", "h3_geodesic", "ml_geodesic", "verify", "verify_positions",
            "verify_inflection", "tensors_h3", "tensors_ml", "tensors_far", "cone_direction",
            "cone_sweep", "scan"]
EXITS = {"verify_inflection": 1}  # the inflection curve is not biharmonic


def test_output_digests_name_every_output(capsys):
    """Two sizes in one run: each line carries its n, and each size's block
    is ``digests`` of that size."""
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cwd = os.getcwd()
    sizes = (2001, 1001)
    assert tool.main(["--samples", *map(str, sizes)]) == 0
    assert os.getcwd() == cwd
    out = capsys.readouterr().out.splitlines()
    expected = [n for c in COMMANDS for n in (f"{c}.stdout", f"{c}.stderr", c)] + FILES
    assert len(out) == len(sizes) * len(expected)
    for i, size in enumerate(sizes):
        block = out[i * len(expected):(i + 1) * len(expected)]
        assert all(line.startswith(f"{size}  ") for line in block)
        lines = [line.split("  ", 1)[1] for line in block]
        assert [line.split("  ", 1)[1] for line in lines] == expected
        assert [line for line in lines if line.startswith("exit")] == [
            f"exit {EXITS.get(c, 0)}  {c}" for c in COMMANDS
        ]
        # the same inputs give the same digests
        assert tool.digests(size) == lines


def test_output_digests_hash_stderr(monkeypatch, capsys):
    """An input error shows in the digest of the command's stderr, not only
    in its exit code; stdout stays empty."""
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "commands", lambda n: [("missing", ["verify", "missing.csv"])])
    empty = hashlib.sha256(b"").hexdigest()
    stdout, stderr, code = tool.digests(2001)
    assert stdout == f"{empty}  missing.stdout"
    assert stderr.endswith("  missing.stderr") and not stderr.startswith(empty)
    assert code == "exit 2  missing"
    capsys.readouterr()
