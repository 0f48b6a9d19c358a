"""Smoke test of the calls that perfbench/workloads.py makes into the package.

The benchmark drives run_scenario, lyapunov_norm_sweep, verify_certificate
and Certificate.from_dict through fixed code that the package does not own,
so a signature drift shows up here as a failed check instead of a benchmark
run that cannot start.  Every workload runs one iteration and its full check;
varcoef-fine's take about 2 s, and its check rebuilds the spectrum through
solve_spectrum to re-verify the certificate.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["dirichlet-preset", "neumann-preset", "varcoef-fine",
                                  "lyap-highorder"])
def test_workload_iterates_and_checks(workloads, tmp_path, name):
    workload = workloads.make(name)
    workload.prepare(tmp_path, 1)
    outcome = workload.iterate()
    assert workload.check(outcome) == []
    assert outcome.digest
