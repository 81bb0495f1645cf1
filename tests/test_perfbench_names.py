"""The benchmark's traced mode wraps package functions by name; every name
it lists must still resolve, or the traced run fails at install time.  Its
``generate`` workload checks that every output file it expects exists, so a
renamed or dropped output would fail every benchmark invocation, and its
``verify`` and ``generate`` workloads parse the printed verdicts, residuals
and means, so a changed report line would make every answer an error."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from heiscurves import DEFAULT_CONFIG, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


@pytest.mark.parametrize("module,attr", tracing.TRACED, ids=lambda v: str(v))
def test_traced_name_resolves(module, attr):
    assert module in tracing.MODULES
    owner = importlib.import_module(f"heiscurves.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_generate_writes_every_benchmark_output(tmp_path, capsys):
    workloads = _load("workloads")
    cases = workloads.build_cases("generate", 0, str(tmp_path), tiny=True)
    case = next(c for c in cases if c.kind == "generate")
    assert cli.main(case.argv) == 0
    capsys.readouterr()
    assert len(case.outputs) == 8
    missing = [p for p in case.outputs if not Path(p).exists()]
    assert not missing


def test_verify_workload_answers_check(tmp_path, capsys):
    workloads = _load("workloads")
    cases = workloads.build_cases("verify", 0, str(tmp_path), tiny=True)
    assert [c.kind for c in cases] == ["verify", "verify"]
    for case in cases:
        rc = cli.main(case.argv)
        out = capsys.readouterr()
        answer = workloads.check_answer(case, rc, out.out, out.err,
                                        DEFAULT_CONFIG.residual_tol, DEFAULT_CONFIG.unit_speed_tol)
        assert answer.error is None, (case.name, answer.error)
        assert not answer.wrong, (case.name, answer.wrong)


def test_generate_workload_answers_check(tmp_path, capsys):
    # the helix and both geodesics (H3 and (m, l) = (0.25, 1.2))
    workloads = _load("workloads")
    cases = workloads.build_cases("generate", 0, str(tmp_path), tiny=True)
    assert [c.kind for c in cases] == ["generate", "geodesic", "geodesic"]
    for case in cases:
        rc = cli.main(case.argv)
        out = capsys.readouterr()
        answer = workloads.check_answer(case, rc, out.out, out.err,
                                        DEFAULT_CONFIG.residual_tol, DEFAULT_CONFIG.unit_speed_tol)
        assert answer.error is None, (case.name, answer.error)
        assert not answer.wrong, (case.name, answer.wrong)
