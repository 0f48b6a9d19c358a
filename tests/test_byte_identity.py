"""tools/byte_identity.py: its inputs are the benchmark's and the tests', and
one run of it on this tree writes every output of the six inputs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # perfbench's dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tool():
    yield from _load("byte_identity", ROOT / "tools" / "byte_identity.py")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_inputs_are_the_benchmark_and_test_configs(tool, workloads, tmp_path):
    varcoef = workloads.make("varcoef-fine")
    varcoef.prepare(tmp_path, 1)
    assert tool.varcoef_fine_config(1) == Path(varcoef.source).read_text()
    from test_cli import BOUNDED_CONFIG
    assert tool.BOUNDED_CONFIG + "[output]\ndir = {out}\n" == \
        BOUNDED_CONFIG.lstrip("\n").replace("    # 1 + x^2", "")


def test_one_run_writes_every_output(tool, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main([str(ROOT), str(tmp_path)]) == 0
    codes = (tmp_path / "exit_codes.txt").read_text()
    assert codes == capsys.readouterr().out == ("dirichlet-example 0\nneumann-example 0\n"
                                                "varcoef-fine 0\nbounded-small 0\n"
                                                "dirichlet-qc10 2\n"
                                                "dirichlet-qc10-N5 2\n")
    for name in ("dirichlet-example", "neumann-example", "varcoef-fine", "bounded-small"):
        assert {"report.json", "problem.dat-s", "u.csv", "lyapunov.csv",
                "state_field.csv"} <= {p.name for p in (tmp_path / name).iterdir()}, name
    for name in ("dirichlet-qc10", "dirichlet-qc10-N5"):
        assert not (tmp_path / name / "lyapunov.csv").exists()
        assert (tmp_path / name / "problem.dat-s").exists()
    # the fixed order's run decides N = 5 alone, and records that one order
    report = json.loads((tmp_path / "dirichlet-qc10-N5" / "report.json").read_text())
    assert list(report["search_margins"]) == ["5"]
    assert report["search_margins"]["5"]["margin"] > 0
