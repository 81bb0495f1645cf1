"""Smoke test of ``tools/output_digests.py`` at small sample counts: 2 001
and 1 001, as 201 positions of the figure helix fail the unit-speed check."""

import hashlib
import importlib.util
import os
from pathlib import Path

from heiscurves import curves

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
ALPHA0_FILES = ["alpha0.classification.json", "alpha0.csv", "alpha0.frenet.json",
                "alpha0.params.json", "alpha0.report.json", "alpha0.residuals.csv"]
FILES = [*ALPHA0_FILES, "h3_geodesic.csv", "helix.classification.json", "helix.csv", "helix.cylinder.csv",
         "helix.frenet.json", "helix.helicoid.csv", "helix.params.json", "helix.report.json",
         "helix.residuals.csv", "inflection.csv", "ml_geodesic.csv", "offroot.csv",
         "plain.classification.json", "plain.csv", "plain.frenet.json", "plain.params.json",
         "plain.report.json", "plain.residuals.csv", "positions.csv", "scan.csv",
         "short_geodesic.csv", "tensors_far.json", "tensors_h3.json", "tensors_ml.json",
         "verify.json", "verify_geodesic.json", "verify_inflection.json", "verify_offroot.json",
         "verify_positions.json"]
COMMANDS = ["generate", "generate_plain", "generate_alpha0", "h3_geodesic", "ml_geodesic", "short_geodesic", "verify",
            "verify_positions", "verify_inflection", "verify_geodesic", "verify_offroot",
            "tensors_h3", "tensors_ml", "tensors_far", "cone_direction", "cone_sweep", "scan"]
# the inflection curve and the off-root helix are not biharmonic
EXITS = {"verify_inflection": 1, "verify_offroot": 1}
TOOL_WRITTEN = ["inflection.csv", "offroot.csv"]  # inputs the tool writes itself
PER_SAMPLE = [name for name in FILES
              if name.endswith((".csv", ".frenet.json")) and name != "scan.csv"]


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digests_name_every_output(capsys):
    """Two sizes in one run: each line carries its n, and each size's block
    is ``digests`` of that size."""
    tool = _tool()
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
        # both spellings of the axis angle write the same bytes
        digest = dict(reversed(line.split("  ", 1)) for line in lines)
        for name in ALPHA0_FILES:
            assert digest[name] == digest[name.replace("alpha0", "plain", 1)], name


def test_output_digests_hash_stderr(monkeypatch, capsys):
    """An input error shows in the digest of the command's stderr, not only
    in its exit code; stdout stays empty."""
    tool = _tool()
    monkeypatch.setattr(tool, "commands", lambda n: [("missing", ["verify", "missing.csv"])])
    empty = hashlib.sha256(b"").hexdigest()
    stdout, stderr, code = tool.digests(2001)
    assert stdout == f"{empty}  missing.stdout"
    assert stderr.endswith("  missing.stderr") and not stderr.startswith(empty)
    assert code == "exit 2  missing"
    capsys.readouterr()


def test_value_digests_see_values_not_text(monkeypatch, capsys):
    """With ``--values`` the per-sample files digest their float64 bits: the
    same numbers in other text (``1`` for ``1.0``, integers read as floats)
    print the same lines, and the other files keep their byte digests."""
    tool = _tool()
    assert [name for name in FILES if tool.is_per_sample(name)] == PER_SAMPLE

    def differing(a, b):
        return [x.rsplit("  ", 1)[1] for x, y in zip(a, b, strict=True) if x != y]

    assert tool.main(["--values", "--samples", "1001"]) == 0
    values = [line.split("  ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    by_bytes = tool.digests(1001)
    assert differing(values, by_bytes) == PER_SAMPLE
    # the writers' numbers in other text: the bytes of every file they write
    # change (but for the inputs the tool writes itself), the values of none
    dumps = curves._dumps
    monkeypatch.setattr(curves, "_dumps", lambda block: dumps(block).replace(b".0,", b","))
    assert tool.digests(1001, values=True) == values
    assert differing(tool.digests(1001), by_bytes) == [
        name for name in PER_SAMPLE if name not in TOOL_WRITTEN
    ]

def test_value_digest_of_one_file(tmp_path):
    """Number text does not change a value digest; a value, the sign of a
    zero included, or the header does."""
    tool = _tool()

    def digest(name, text):
        path = tmp_path / name
        path.write_text(text)
        return tool.value_digest(str(path))

    csv = digest("a.csv", "s,x\r\n0,1e-07\r\n-0,nan\r\n1,\r\n")
    assert digest("b.csv", "s,x\n0.0,1e-7\n-0.0,nan\n1.0,nan\n") == csv
    assert digest("c.csv", "s,x\n0.0,1e-7\n0.0,nan\n1.0,nan\n") != csv
    assert digest("d.csv", "s,y\n0.0,1e-7\n-0.0,nan\n1.0,nan\n") != csv
    payload = '{"columns":{"s":[0,-0.0,null],"defined":[true,false,false]},"n":3}'
    frenet = digest("a.frenet.json", payload)
    assert digest("b.frenet.json", payload.replace("[0,", "[0.0,").replace(":3", ":3.0")) == frenet
    assert digest("c.frenet.json", payload.replace("-0.0", "0.0")) != frenet
