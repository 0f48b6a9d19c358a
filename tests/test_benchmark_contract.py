"""Smoke test of the calls that perfbench/workloads.py makes into the package.

The benchmark drives run_scenario, lyapunov_norm_sweep, verify_certificate
and Certificate.from_dict through fixed code that the package does not own,
so a signature drift shows up here as a failed check instead of a benchmark
run that cannot start.  Every workload runs one iteration and its full check;
varcoef-fine's iteration takes about 1 s, and its check rebuilds the
spectrum through solve_spectrum to re-verify the certificate.

The per-layer run (--trace 1) wraps the package's functions in
perfbench/spans.Tracer, whose wrappers also read Spectrum.eigenfunctions and
SimResult.times, N_sim and N; each workload runs once under it too, and must
give the untraced outcome.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ["dirichlet-preset", "neumann-preset", "varcoef-fine", "lyap-highorder"]


def _load(name, path):
    """perfbench's module at path, loaded without editing sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.fixture(scope="module")
def spans():
    yield from _load("perfbench_spans", PERFBENCH / "spans.py")


@pytest.mark.parametrize("name", NAMES)
def test_workload_iterates_and_checks(workloads, tmp_path, name):
    workload = workloads.make(name)
    workload.prepare(tmp_path, 1)
    outcome = workload.iterate()
    assert workload.check(outcome) == []
    assert outcome.digest


@pytest.mark.parametrize("name", NAMES)
def test_traced_iteration_matches_untraced(workloads, spans, tmp_path, name):
    workload = workloads.make(name)
    workload.prepare(tmp_path, 1)
    plain = workload.iterate()
    tracer = spans.Tracer()
    with tracer.recording(0):
        traced = workload.iterate()
    assert traced == plain and plain.digest
    stats = tracer.layer_stats(0)
    if name == "varcoef-fine":  # 201 modes as Legendre rows, not grid samples
        assert stats["sturm_liouville.solve_spectrum.calls"] == 1
        assert 0 < stats["sturm_liouville.solve_spectrum.eigvec_bytes"] <= 1 << 20
        assert stats["simulate.run.steps"] == 30000
