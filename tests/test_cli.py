import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specstab as ss
from specstab import cli, homogenize, simulate
from specstab.cli import ERROR_EXIT_CODES, main, parse_config, run_scenario
from specstab.errors import (ConfigParse, DecayUnreachable, InsufficientModes, IoFailure,
                             StepRejected)
from specstab.sdpa import read_sdpa

from conftest import decide_order

BOUNDED_CONFIG = """
[scenario]
name = bounded-small
[plant]
p = 1
q = 0
q_c = 3
measurement = bounded
c = 1
[design]
delta = 0.5
N = auto
n_max = 6
[sim]
n_sim = 20
dt = 0.001
T = 1.0
z0 = 1, 0, 1    # 1 + x^2
[output]
dir = {out}
"""


def write_config(tmp_path, name="scenario.cfg", **overrides):
    text = BOUNDED_CONFIG.format(out=tmp_path / "out")
    for key, value in overrides.items():
        lines = []
        for line in text.splitlines():
            if line.split("=")[0].strip() == key:
                lines.append(f"{key} = {value}")
            else:
                lines.append(line)
        text = "\n".join(lines)
    path = tmp_path / name
    path.write_text(text)
    return path


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# ---------------------------------------------------------------- presets

@pytest.fixture(scope="module")
def dirichlet_preset_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset-d")
    code = run_scenario("dirichlet-example", out_dir=out, quiet=True)
    return code, out


@pytest.fixture(scope="module")
def neumann_preset_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset-n")
    code = run_scenario("neumann-example", out_dir=out, quiet=True,
                        export_sdpa_path=out / "problem.dat-s")
    return code, out


def test_dirichlet_preset_succeeds(dirichlet_preset_run):
    code, out = dirichlet_preset_run
    assert code == 0
    report = load_report(out)
    assert np.allclose(report["gains"]["K"], [-5.0058, -2.7748], atol=1e-3)
    assert report["gains"]["L"][0] == pytest.approx(1.4373, abs=1e-3)
    assert report["certificate_feasible"] is True
    assert report["N_star"] == 2
    lam3 = (2.5 * np.pi) ** 2  # lambda_{N*+1} of the pinned-at-1 Laplacian
    assert report["certificate"]["alpha"] == pytest.approx(2 * lam3 / (lam3 - 3.5),
                                                           rel=1e-14)
    assert report["simulation"]["fitted_decay_rate"] >= 0.5
    assert report["simulation"]["spectral_abscissa"] < -0.5
    for name in ("u", "v", "eta", "zeta", "l2_norm", "energy", "lyapunov"):
        assert (out / f"{name}.csv").exists()
    header = (out / "eta.csv").read_text().splitlines()[0]
    assert header == "t,value"
    field_header = (out / "state_field.csv").read_text().splitlines()[0]
    assert field_header == "x,t,value"


def test_dirichlet_report_certificate_reverifies(dirichlet_preset_run):
    _, out = dirichlet_preset_run
    report = load_report(out)
    cert = ss.Certificate.from_dict(report["certificate"])
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 3.0,
                         ss.MeasurementSpec.dirichlet(), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, cert.N + 1, 2000)
    reduced = ss.reduce(plant, spectrum, cert.N)
    gains = ss.design_gains(reduced)
    model = ss.assemble_closed_loop(reduced, gains, cert.N)
    again = ss.verify_certificate(model, reduced, cert.P, cert.alpha, cert.beta,
                                  cert.gamma, cert.eps)
    assert again.feasible


def test_neumann_preset_succeeds(neumann_preset_run, neumann_pipeline):
    # gains and simulation match the source example, and the exact free-P
    # decision certifies N0 + 1 = 2, where the Lyapunov P fails every N <= 10
    code, out = neumann_preset_run
    assert code == 0
    report = load_report(out)
    assert np.allclose(report["gains"]["K"], [-4.5649, -0.9653], atol=1e-3)
    assert report["gains"]["L"][0] == pytest.approx(0.3670, abs=1e-3)
    assert report["N_star"] == 2
    assert report["search_margins"] is None
    assert report["simulation"]["fitted_decay_rate"] >= 0.5
    assert report["simulation"]["spectral_abscissa"] < -0.5
    assert report["simulation"]["lyapunov_max_increment"] <= 0
    cert = ss.Certificate.from_dict(report["certificate"])
    model = ss.assemble_closed_loop(neumann_pipeline.reduced, neumann_pipeline.gains, 2)
    assert ss.verify_certificate(model, neumann_pipeline.reduced, cert.P, cert.alpha,
                                 cert.beta, cert.gamma).feasible


# the conftest pipelines are the presets' runs: 51 analytic modes on 2000
# intervals, one reduction at N_sim = 50 and the default gains

def test_neumann_preset_export_is_free_p_feasible(neumann_preset_run, neumann_pipeline):
    # the export is written at the order's best alpha on the run's own
    # reduction, where the free-P LMI of that file is feasible (at
    # alpha = 1.1 it is not)
    _, out = neumann_preset_run
    reduced, gains = neumann_pipeline.reduced, neumann_pipeline.gains
    assert load_report(out)["simulation"]["N"] == 2
    model = ss.assemble_closed_loop(reduced, gains, 2)
    alpha = ss.optimal_alpha(reduced, 2)
    again = out / "again.dat-s"
    ss.export_sdpa(model, reduced, alpha, again)
    assert (out / "problem.dat-s").read_bytes() == again.read_bytes()
    assert ss.free_p_certificate(model, reduced, alpha)[0] is not None


def test_dirichlet_certificate_is_proved_on_the_run_model(dirichlet_preset_run,
                                                         dirichlet_pipeline):
    # the reported certificate is the one decided on the closed loop
    # assembled from the run's own reduction and gains, bit for bit
    _, out = dirichlet_preset_run
    cert = ss.Certificate.from_dict(load_report(out)["certificate"])
    reduced, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    assert cert.to_dict() == decide_order(reduced, gains, cert.N)[0].to_dict()
    model = ss.assemble_closed_loop(reduced, gains, cert.N)
    assert ss.verify_certificate(model, reduced, cert.P, cert.alpha, cert.beta,
                                 cert.gamma).feasible


def test_neumann_margins_are_computed_on_the_run_model(tmp_path):
    # the left-flux example at q_c = 20, where no P certifies N <= 10: every
    # reported margin is that of the run model, rebuilt here independently
    cfg = preset_config(tmp_path, "neumann-example", q_c=20)
    out = tmp_path / "out"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 2
    margins = load_report(out)["search_margins"]
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 20.0,
                         ss.MeasurementSpec.neumann(), 0.5)
    reduced = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 51, 2000), 50)
    gains = ss.design_gains(reduced)
    assert sorted(margins, key=int) == [str(N) for N in range(reduced.N0 + 1, 11)]
    for N, record in margins.items():
        assert record == decide_order(reduced, gains, int(N))[1]
        assert record["margin"] > 0


@pytest.mark.parametrize("preset,run", [("dirichlet-example", "dirichlet_preset_run"),
                                        ("neumann-example", "neumann_preset_run")])
def test_solve_does_no_io_and_matches_the_report(tmp_path, monkeypatch, capsys, request,
                                                 preset, run):
    _, out = request.getfixturevalue(run)
    monkeypatch.chdir(tmp_path)
    record = cli.solve(parse_config(preset))
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    report = load_report(out)
    assert record.N == report["simulation"]["N"]
    assert report["N_star"] == (record.N if record.certificate else None)

    def as_written(obj):
        return json.loads(cli._to_json(obj))

    assert as_written(record.certificate and record.certificate.to_dict()) \
        == report["certificate"]
    assert as_written(record.search_margins and {
        str(N): rec for N, rec in record.search_margins.items()}) == report["search_margins"]


@pytest.fixture
def reduce_calls(monkeypatch):
    """Orders of every homogenize.reduce call, through any specstab alias."""
    calls = []
    original = homogenize.reduce

    def counting(plant, spectrum, N, *args, **kwargs):
        calls.append(N)
        return original(plant, spectrum, N, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "specstab" or name.startswith("specstab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("preset,export,code", [("dirichlet-example", False, 0),
                                                ("neumann-example", True, 0)])
def test_one_reduction_per_run(tmp_path, reduce_calls, preset, export, code):
    sdpa = tmp_path / "problem.dat-s" if export else None
    assert run_scenario(preset, out_dir=tmp_path, quiet=True,
                        export_sdpa_path=sdpa) == code
    assert reduce_calls == [50]


def test_one_reduction_per_norm_sweep(reduce_calls):
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 10.0,
                         ss.MeasurementSpec.neumann(), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 51)
    assert ss.lyapunov_norm_sweep(plant, spectrum, N_list=(10, 20, 30, 40)).shape == (4,)
    assert reduce_calls == [40]


def test_one_legendre_table_per_variable_coefficient_run(tmp_path, monkeypatch):
    # the varcoef-fine spectrum (201 modes of p = 1 + x/2, q = x^2): the
    # solve evaluates the Legendre polynomials at its Gauss rule's nodes, and
    # the reduction and the z0 projection read the modes there from its
    # table; only the field CSVs' grid needs another table
    sizes = []
    legendre = ss.sturm_liouville._legendre

    def counting(t, n):
        sizes.append(t.size)
        return legendre(t, n)

    monkeypatch.setattr(ss.sturm_liouville, "_legendre", counting)
    cfg = write_config(tmp_path, p="1, 0.5", q="0, 0, 1", n_sim=200)
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) == 0
    M = ss.sturm_liouville.galerkin_order(201)
    assert sizes == [M + 8, 2 * 8040 // 40 + 1]


# ---------------------------------------------------------------- custom config

def test_bounded_config_runs_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_scenario(str(cfg), out_dir=out1, quiet=True) == 0
    assert run_scenario(str(cfg), out_dir=out2, quiet=True) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report = load_report(out1)
    assert report["name"] == "bounded-small"
    assert report["plant"]["measurement"] == "bounded"
    assert report["certificate_feasible"] is True


def test_report_is_json_for_a_name_with_a_tab_and_a_quote(tmp_path):
    name = 'a\tb "c" \\d'
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("name = bounded-small", f"name = {name}"))
    out = tmp_path / "r"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
    assert json.loads((out / "report.json").read_bytes().decode("utf-8"))["name"] == name
    # the escaping is json's, non-ASCII text stays as it is
    text = cli._to_json({"k": ["\x01\u00e9"]})
    assert json.loads(text) == {"k": ["\x01\u00e9"]}
    assert "\u00e9" in text


def test_config_output_dir_used_when_no_flag(tmp_path):
    cfg = write_config(tmp_path)
    assert run_scenario(str(cfg), quiet=True) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_explicit_observer_order(tmp_path):
    cfg = write_config(tmp_path, N=3)
    out = tmp_path / "explicit"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
    report = load_report(out)
    assert report["N_star"] == 3
    assert report["simulation"]["N"] == 3


def test_fixed_order_failure_reports_exact_margin(tmp_path):
    # at q_c = 5 the free-P LMI at N = 2 is infeasible: alpha h^2 / k is about 38
    cfg = write_config(tmp_path, N=2, q_c=5)
    out = tmp_path / "fixed"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 2
    report = load_report(out)
    record = report["search_margins"]["2"]
    assert sorted(record) == ["alpha", "margin"]
    assert 1 < record["margin"] < math.inf
    assert record["alpha"] > 1
    assert report["simulation"]["N"] == 2  # the requested order is simulated


def test_fixed_order_failure_names_that_order(tmp_path, capsys):
    # a fixed N decides that order alone, so the progress line names it
    cfg = write_config(tmp_path, N=2, q_c=5)
    assert run_scenario(str(cfg), out_dir=tmp_path / "fixed") == 2
    lines = capsys.readouterr().out.splitlines()
    assert "  no verified certificate for N = 2 (exact free-P decision at its alpha*)" in lines
    assert not any("N <=" in line for line in lines)


def test_config_keys_n_and_t_reach_the_simulation(tmp_path):
    cfg = write_config(tmp_path, N=3, T=0.5)
    out = tmp_path / "upper"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
    report = load_report(out)
    assert report["simulation"]["N"] == 3
    assert report["simulation"]["T"] == 0.5


def test_export_sdpa_flag(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "problem.dat-s"
    assert run_scenario(str(cfg), out_dir=tmp_path / "sd", quiet=True,
                        export_sdpa_path=target) == 0
    prob = read_sdpa(target)
    assert prob.m_dim > 2
    assert prob.block_sizes[0] > 0


def test_laplacian_written_with_trailing_zeros_uses_the_closed_form(tmp_path):
    plain, padded = tmp_path / "plain", tmp_path / "padded"
    assert run_scenario(str(write_config(tmp_path)), out_dir=plain, quiet=True) == 0
    cfg = write_config(tmp_path, name="padded.cfg", p="1, 0", q="0, 0")
    assert run_scenario(str(cfg), out_dir=padded, quiet=True) == 0
    report = load_report(padded)
    assert (report["plant"]["p"], report["plant"]["q"]) == ([1.0, 0.0], [0.0, 0.0])
    report["plant"].update(p=[1.0], q=[0.0])
    assert cli._to_json(report) + "\n" == (plain / "report.json").read_text()


def test_variable_coefficient_config(tmp_path):
    cfg = write_config(tmp_path, p="1, 0.1", q="0, 0.5")
    out = tmp_path / "var"
    code = run_scenario(str(cfg), out_dir=out, quiet=True)
    assert code in (0, 2)  # certification not promised for this plant
    report = load_report(out)
    assert report["plant"]["p"] == [1.0, 0.1]
    assert report["simulation"]["spectral_abscissa"] < -0.5


def test_variable_coefficients_through_solve_spectrum(tmp_path):
    # p = 1 + x/2, q = x^2: the Galerkin spectrum, not the closed form
    cfg = write_config(tmp_path, p="1, 0.5", q="0, 0, 1")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_scenario(str(cfg), out_dir=out1, quiet=True) == 0
    assert run_scenario(str(cfg), out_dir=out2, quiet=True) == 0
    assert load_report(out1)["N_star"] == 2
    written = sorted(f.name for f in out1.iterdir())
    assert written == sorted(f.name for f in out2.iterdir())
    assert "report.json" in written and "state_field.csv" in written
    for name in written:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bounded_measurement_without_c_exits_3(tmp_path, capsys):
    text = BOUNDED_CONFIG.format(out=tmp_path / "out")
    assert text.count("\nc = 1\n") == 1
    cfg = tmp_path / "no-c.cfg"
    cfg.write_text(text.replace("\nc = 1\n", "\n"))
    with pytest.raises(ConfigParse, match="bounded measurement requires key 'c' in \\[plant\\]"):
        cli.solve(parse_config(cfg))
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert "requires key 'c'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, named", [("n_sim", 100000, "[sim] n_sim"),
                                               ("n_max", 100000, "[design] n_max")])
def test_mode_count_beyond_memory_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys,
                                                              key, value, named):
    # 100,001 modes: the closed loop alone would be dense 1e5 x 1e5 matrices
    spectra = []
    for name in ("analytic_spectrum", "solve_spectrum"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: spectra.append(_name))
    cfg = write_config(tmp_path, **{key: value})
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert spectra == []
    assert f"{named} = {value}" in capsys.readouterr().err


def test_memory_guard_counts_the_galerkin_peak(monkeypatch):
    # the Galerkin arrays that _require_memory counts hold the traced peak
    # of the solve, within a factor of 2: 201 modes of p = 1 + x/2, q = x^2
    import tracemalloc
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0])
    bspec = ss.PlantSpec(coeffs, q_c=10.0, measurement=ss.MeasurementSpec.dirichlet(),
                         delta=0.5).boundary
    ss.solve_spectrum(coeffs, bspec, 201)  # the Gauss rule's cache, outside the trace
    tracemalloc.start()
    try:
        ss.solve_spectrum(coeffs, bspec, 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # n_sim = n_max = 0: the closed loop is counted at side 1, 4 * 8 bytes,
    # and T = dt at 2 steps of 8 + 6 doubles (cli._step_bytes(0))
    config = {"sim": {"n_sim": 0, "T": 1.0, "dt": 1.0}, "design": {"N": None, "n_max": 0}}
    physical = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: physical.get(name, physical["pages"]))
    physical["pages"] = 32 + 224 + peak - 1
    with pytest.raises(ConfigParse):
        cli._require_memory(config, 201, coeffs)
    physical["pages"] = 32 + 224 + 2 * peak
    cli._require_memory(config, 201, coeffs)


def test_memory_guard_counts_the_run_series(monkeypatch):
    # 1001 steps of n_max = 4: the SimResult's 2N + 8 = 16 doubles a step and
    # the larger transient, fit_decay's six doubles (N = 4 squared modes in
    # run are fewer), beside the closed loop of side 5
    config = {"sim": {"n_sim": 0, "T": 1.0, "dt": 0.001}, "design": {"N": None, "n_max": 4}}
    need = 4 * 8 * 5 ** 2 + 1001 * (16 + 6) * 8
    assert cli._step_bytes(4) == (16 + 6) * 8 and cli._step_bytes(9) == (26 + 9) * 8
    physical = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: physical.get(name, physical["pages"]))
    physical["pages"] = need - 1
    with pytest.raises(ConfigParse, match=r"\[sim\] T = 1.0 and \[sim\] dt = 0.001 set 1001 "
                                          r"steps"):
        cli._require_memory(config, 5, None)
    physical["pages"] = need
    cli._require_memory(config, 5, None)


def test_run_and_writers_hold_no_more_a_step_than_the_memory_guard_counts(tmp_path):
    # dirichlet-example at [design] N = 2, T = 10 and T = 40: per step, the
    # traced peak of solve grows by at most _require_memory's count, and that
    # of the CSV writers by less than one double past the run's series and V
    import tracemalloc
    peaks = []
    for T in (10, 40):
        config = parse_config(preset_config(tmp_path, "dirichlet-example", N=2, T=T))
        cli._write_csvs(cli.solve(config), tmp_path)  # caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            record = cli.solve(config)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            cli._write_csvs(record, tmp_path)
            write_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        peaks.append((record.sim.times.size, solve_peak, write_peak))
    (steps10, solve10, write10), (steps40, solve40, write40) = peaks
    assert steps40 - steps10 == 30000
    assert (solve40 - solve10) / 30000 <= cli._step_bytes(2)
    assert (write40 - write10) / 30000 <= cli._step_bytes(2)
    assert (write40 - write10) / 30000 < 8 * (2 * 2 + 9 + 1)


@pytest.mark.parametrize("keys", [{"T": "1e12"}, {"dt": "1e-300"}], ids=["T", "dt"])
def test_horizon_beyond_memory_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys, keys):
    # round(T / dt) + 1 steps of the run's series: 1e15 steps (7 PiB for the
    # time column's doubles alone) and 3e300 steps
    refuse_spectra(monkeypatch)
    cfg = preset_config(tmp_path, "dirichlet-example", **keys)
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    err = capsys.readouterr().err
    assert "[sim] T = " in err and "and [sim] dt = " in err and "physical memory" in err


def test_unverified_feasible_orders_are_named(tmp_path, monkeypatch, capsys):
    # every order is decided feasible, but with no Riccati point none verifies:
    # exit 2 then says so, instead of claiming that no P works
    def no_point(*args, **kwargs):
        raise np.linalg.LinAlgError("no stabilising solution")

    monkeypatch.setattr(ss.certificate, "solve_continuous_are", no_point)
    assert run_scenario("dirichlet-example", out_dir=tmp_path, quiet=False) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "  no verified certificate for N <= 10 (exact free-P decision at each order's " \
        "alpha*)" in lines
    assert "  N = 2..10 decided feasible but not verified (margins -0.712 to -0.985)" in lines
    margins = load_report(tmp_path)["search_margins"]
    assert sorted(map(int, margins)) == list(range(2, 11))
    assert all(rec["margin"] < 0 for rec in margins.values())


def preset_config(tmp_path, preset, **keys):
    """A preset as a config file, with q_c, N, a pole list, n_sim, z0, T or dt set
    in its section."""
    text = cli.PRESETS[preset]
    for key, value in keys.items():
        section = {"q_c": "[plant]", "N": "[design]", "controller_poles": "[design]",
                   "observer_poles": "[design]", "n_sim": "[sim]", "z0": "[sim]",
                   "T": "[sim]", "dt": "[sim]"}[key]
        lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
        text = "\n".join(lines).replace(section, f"{section}\n{key} = {value}")
    path = tmp_path / f"{preset}.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_uncertified_loop_that_cannot_be_stepped_says_so(tmp_path, capsys, preset):
    # at q_c = 50 no order N <= n_max certifies, and the loop simulated at
    # N0 + 2 = 4 grows too fast to step: exit 14 names the order, the loop's
    # missing certificate and the smallest exact margin of the search
    cfg = preset_config(tmp_path, preset, q_c=50)
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) \
        == ERROR_EXIT_CODES[StepRejected] == 14
    err = capsys.readouterr().err
    found = re.search(r"^error\[StepRejected\]: the loop simulated at N = 4 is uncertified "
                      r"\(smallest exact margin (\S+) at N = (\d+)\): one-step norm", err)
    assert found, err
    assert float(found.group(1)) > 0 and 3 <= int(found.group(2)) <= 10


def test_certified_loop_with_a_step_norm_above_one_runs_a_long_horizon():
    # the neumann example's one-step matrix is non-normal: |E|_2 = 1.0031
    # although the loop decays, so 200,000 steps fail the one-step bound
    # (627 > 600); the bound over the repeated squarings of E accepts them
    config = parse_config("neumann-example")
    config["sim"]["T"] = 200.0
    record = cli.solve(config)
    assert np.linalg.norm(record.sim.E, 2) > 1.0
    assert record.certificate is not None and record.N == 2
    assert record.sim.times.size == 200_001
    assert record.decay_rate >= record.reduced.delta
    assert record.lyapunov.max_increment <= 1e-9 * record.lyapunov.V[0]


@pytest.mark.parametrize("N, n_sim", [(60, 50), (5, 3)])
def test_fixed_order_above_n_sim_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys,
                                                            N, n_sim):
    spectra = []
    for name in ("analytic_spectrum", "solve_spectrum"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: spectra.append(_name))
    cfg = preset_config(tmp_path, "dirichlet-example", N=N, n_sim=n_sim)
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert spectra == []
    err = capsys.readouterr().err
    assert f"[sim] n_sim must be at least the run order N = {N}, got {n_sim}" in err


@pytest.mark.parametrize("preset, keys, named, message", [
    ("dirichlet-example", {"z0": "1, 1"}, "[sim] z0", "z0'(0) = 1.000e+00"),
    ("neumann-example", {"z0": "1, 1"}, "[sim] z0", "z0(0) = 1.000e+00")],
    ids=["dirichlet-z0-slope", "neumann-z0-value"])
def test_incompatible_initial_data_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys,
                                                               preset, keys, named, message):
    spectra = []
    for name in ("analytic_spectrum", "solve_spectrum"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: spectra.append(_name))
    cfg = preset_config(tmp_path, preset, **keys)
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert spectra == []
    err = capsys.readouterr().err
    assert named in err and message in err


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_zero_initial_data_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys, preset):
    # z0 = 0 is the equilibrium: the loop stays at rest and no decay rate can
    # be fitted to it
    spectra = []
    for name in ("analytic_spectrum", "solve_spectrum"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: spectra.append(_name))
    cfg = preset_config(tmp_path, preset, z0="0, 0")
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert spectra == []
    assert "[sim] z0 = 0 is the equilibrium" in capsys.readouterr().err


def refuse_spectra(monkeypatch):
    """Make every spectrum solve that cli can reach raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum computed")

    for name in ("analytic_spectrum", "solve_spectrum"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("key, poles, wrong", [("controller_poles", "0.1, -2", "0.1"),
                                              ("observer_poles", "-0.5", "-0.5")],
                         ids=["controller", "observer"])
def test_pole_not_left_of_minus_delta_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys,
                                                                  key, poles, wrong):
    refuse_spectra(monkeypatch)
    cfg = preset_config(tmp_path, "dirichlet-example", **{key: poles})
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) \
        == ERROR_EXIT_CODES[ConfigParse] == 3
    assert f"[design] {key} must all be < -delta = -0.5, got {wrong}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("key, poles, count", [("controller_poles", "-1", 2),
                                               ("observer_poles", "-2, -3", 1)],
                         ids=["controller", "observer"])
def test_pole_list_of_the_wrong_length_exits_3_before_the_design(tmp_path, monkeypatch, capsys,
                                                                 key, poles, count):
    # the dirichlet example has N0 = 1: N0 + 1 controller poles, N0 observer poles
    def refuse(*args, **kwargs):
        raise AssertionError("gains designed")

    monkeypatch.setattr(cli, "design_gains", refuse)
    cfg = preset_config(tmp_path, "dirichlet-example", **{key: poles})
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) \
        == ERROR_EXIT_CODES[ConfigParse] == 3
    assert f"[design] {key}: the number of poles must be {count} at N0 = 1, got " \
        f"{len(poles.split(','))}" in capsys.readouterr().err


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_fixed_order_reproduces_the_search_at_its_order(tmp_path, preset):
    # both presets certify at N* = 2: a run fixed at N = 2 decides that order
    # on its own route and writes every output of the searching run, byte
    # for byte
    outs = []
    for name, keys in (("auto", {}), ("fixed", {"N": 2})):
        (tmp_path / name).mkdir()
        cfg = preset_config(tmp_path / name, preset, **keys)
        out = tmp_path / name / "out"
        assert run_scenario(str(cfg), out_dir=out, export_sdpa_path=out / "problem.dat-s",
                            quiet=True) == 0
        outs.append(out)
    assert load_report(outs[0])["N_star"] == 2
    names = sorted(p.name for p in outs[0].iterdir())
    assert {"report.json", "problem.dat-s", "u.csv"} <= set(names)
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("preset", ["dirichlet-example", "varcoef"])
def test_short_horizon_exits_3_before_the_spectrum(tmp_path, monkeypatch, capsys, preset):
    # dt = T leaves 1 step in the decay-fit window [min(1, T/2), T]; the
    # check reads the run's own step times, before any spectrum is solved
    refuse_spectra(monkeypatch)
    if preset == "varcoef":
        cfg = write_config(tmp_path, p="1, 0.5", q="0, 0, 1", dt="1e-4", T="1e-4")
    else:
        cfg = preset_config(tmp_path, preset, dt="0.001", T="0.001")
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert "[sim] T must be long enough for 2 steps of dt" in capsys.readouterr().err


def test_key_set_twice_exits_3_naming_both_lines(tmp_path, monkeypatch, capsys):
    # keys are case-insensitive, so Q_C sets q_c again
    refuse_spectra(monkeypatch)
    cfg = write_config(tmp_path)
    text = cfg.read_text().replace("q_c = 3", "q_c = 3\nQ_C = 10")
    cfg.write_text(text)
    lines = text.splitlines()
    first, second = lines.index("q_c = 3") + 1, lines.index("Q_C = 10") + 1
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert f"[plant] q_c is set on lines {first} and {second}" in capsys.readouterr().err


def test_a_section_may_reopen(tmp_path):
    cfg = write_config(tmp_path)
    text = cfg.read_text()
    assert "\nc = 1\n" in text
    cfg.write_text(text.replace("\nc = 1\n", "\n").replace("[output]",
                                                              "[plant]\nc = 1\n[output]"))
    assert parse_config(cfg) == parse_config(write_config(tmp_path, name="plain.cfg"))


def test_flags_still_override_the_config(tmp_path, monkeypatch):
    # --n-max and --eps replace the config's n_max and eps, and are no second setting
    designs = []

    def stop(config):
        designs.append(config["design"])
        raise ConfigParse("stopped before the pipeline")

    monkeypatch.setattr(cli, "solve", stop)
    cfg = write_config(tmp_path)
    assert "n_max = 6" in cfg.read_text()
    assert run_scenario(str(cfg), n_max=3, eps=0.25, quiet=True) == 3
    assert (designs[0]["n_max"], designs[0]["eps"]) == (3, 0.25)


def test_u0_is_an_unknown_key(tmp_path, capsys):
    # the input starts at z0(1); there is no u0 to set
    cfg = preset_config(tmp_path, "dirichlet-example")
    cfg.write_text(cfg.read_text().replace("[sim]", "[sim]\nu0 = auto"))
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert "unknown key 'u0' in [sim]" in capsys.readouterr().err


def test_u_starts_at_z0_of_1(neumann_preset_run):
    # z0 = x^2 - 0.6666666666666666 x, so z0(1) = 0.33333333333333337, not 1/3
    _, out = neumann_preset_run
    z0 = parse_config("neumann-example")["sim"]["z0"]
    u1 = float(np.polynomial.polynomial.polyval(1.0, z0))
    assert u1 != 1.0 / 3.0
    assert cli.solve(parse_config("neumann-example")).sim.u[0] == u1
    first = (out / "u.csv").read_text().splitlines()[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == u1


def test_quiet_run_formats_no_progress_text(tmp_path, monkeypatch, capsys):
    # --quiet prints nothing and builds no progress line to throw away
    def refuse(record):
        raise AssertionError("progress text built under --quiet")

    monkeypatch.setattr(cli, "_progress", refuse)
    assert run_scenario("dirichlet-example", out_dir=tmp_path, quiet=True) == 0
    assert capsys.readouterr().out == ""


def test_long_horizon_fits_the_decay_before_eta_underflows(tmp_path):
    # the certified neumann loop's spectral abscissa is about -1.23, so over
    # T = 500 or 700 its eta underflows to 0 inside the fit window [1, T];
    # the fit takes the samples before the first zero, and the run reports
    for T in (500, 700):
        out = tmp_path / f"out{T}"
        cfg = preset_config(tmp_path, "neumann-example", T=T, dt=0.1)
        assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
        rep = load_report(out)
        assert rep["certificate_feasible"] and (out / "eta.csv").exists()
        assert rep["simulation"]["eta_end"] == 0.0
        assert rep["simulation"]["fitted_decay_rate"] >= rep["plant"]["delta"]


@pytest.mark.parametrize("source", ["dirichlet-example", "bounded"])
def test_q_c_with_no_optimal_alpha_at_the_first_order_exits_3(tmp_path, capsys, source):
    # q_c + delta = -99.5 <= -lambda_3 = -61.685 at N = 2, the search's first
    # order: no alpha > 1 maximises k(alpha)/alpha there
    cfg = preset_config(tmp_path, source, q_c=-100) if source in cli.PRESETS \
        else write_config(tmp_path, q_c=-100)
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) \
        == ERROR_EXIT_CODES[ConfigParse] == 3
    err = capsys.readouterr().err
    assert "[plant] q_c = -100 gives q_c + delta = -99.5 <= -lambda_(N+1) = -61.685 at N = 2" \
        in err
    assert "a [design] N with lambda_(N+1) > -(q_c + delta) = 99.5 can be decided" in err


def test_q_c_with_no_optimal_alpha_decides_an_order_past_it(tmp_path, capsys):
    # lambda_4 = (3.5 pi)^2 = 120.9 > 99.5, so the fixed order N = 3 is
    # decided, with an exact margin, and the run goes on past the check
    cfg = preset_config(tmp_path, "dirichlet-example", q_c=-100, N=3)
    assert run_scenario(str(cfg), out_dir=tmp_path / "out", quiet=True) \
        != ERROR_EXIT_CODES[ConfigParse]
    assert "[plant] q_c" not in capsys.readouterr().err
    config = parse_config(cfg)
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), -100.0,
                         ss.MeasurementSpec.dirichlet(), config["design"]["delta"])
    reduced = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 51), 50)
    record = decide_order(reduced, ss.design_gains(reduced), 3)[1]
    assert math.isfinite(record["margin"]) and record["alpha"] > 1.0


@pytest.mark.parametrize("q_c", [0, 3, 10, 20])
@pytest.mark.parametrize("preset", ["dirichlet-example", "neumann-example"])
def test_presets_across_q_c_certify_or_prove_no_order(tmp_path, preset, q_c):
    # every run ends with a verdict: exit 0 with a certified N*, where the exact
    # margin of each lower order is >= 0, or exit 2 with N <= n_max ruled out
    cfg = preset_config(tmp_path, preset, q_c=q_c)
    out = tmp_path / "out"
    code = run_scenario(str(cfg), out_dir=out, quiet=True)
    assert code in (0, 2)
    report = load_report(out)
    if code == 2:
        assert all(rec["margin"] >= 0 for rec in report["search_margins"].values())
        return
    record = cli.solve(parse_config(cfg))
    assert record.N == report["N_star"]
    for N in range(record.reduced.N0 + 1, record.N):
        margin = decide_order(record.reduced, record.gains, N)[1]["margin"]
        assert margin >= 0


def reference_series(t, values):
    lines = ["t,value\n"]
    for ti, vi in zip(t, values):
        lines.append(f"{ti:.17g},{vi:.17g}\n")
    return "".join(lines)


def reference_field(x, times, fields):
    lines = ["x,t,value\n"]
    for ti, field in zip(times, fields):
        for xi, vi in zip(x, field):
            lines.append(f"{xi:.17g},{ti:.17g},{vi:.17g}\n")
    return "".join(lines)


def test_csv_writers_match_per_line_formatting(tmp_path):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.0 ** 52, np.pi]
    rng = np.random.default_rng(11)
    t = np.concatenate([special, rng.normal(size=7) * 10.0 ** rng.integers(-20, 20, 7)])
    values = rng.permutation(t) * -1.0
    assert t.size % 2 == 1
    # two files share the time column, laid once per chunk
    cli._write_series([tmp_path / "s.csv", tmp_path / "r.csv"], t, [values, values[::-1]])
    assert (tmp_path / "s.csv").read_bytes() == reference_series(t, values).encode()
    assert (tmp_path / "r.csv").read_bytes() == reference_series(t, values[::-1]).encode()
    x = np.array([0.0, 0.025, 1 / 3, 1.0, 5e-324])
    fields = rng.normal(size=(3, x.size)) * [[1e300], [-0.0], [1e-310]]
    steps = [0, 5, 16]
    cli._write_field([tmp_path / "f.csv", tmp_path / "g.csv"], x, t[steps], [fields, -fields])
    for name, field in (("f.csv", fields), ("g.csv", -fields)):
        assert (tmp_path / name).read_bytes() == reference_field(x, t[steps], field).encode()


def test_series_writer_chunks_match_one_pass(tmp_path, monkeypatch):
    # 17 rows written 4 at a time: four full chunks and one single row
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 4)
    t = np.linspace(0.0, 1.6, 17)
    values = np.random.default_rng(5).normal(size=t.size)
    cli._write_series([tmp_path / "s.csv", tmp_path / "r.csv"], t, [values, -values])
    assert (tmp_path / "s.csv").read_bytes() == reference_series(t, values).encode()
    assert (tmp_path / "r.csv").read_bytes() == reference_series(t, -values).encode()


#: doubles whose %.17g text is special: signed zeros, subnormals, the ends of
#: the range, nan and the infinities
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308,
                1.7976931348623157e308, math.nan, math.inf, -math.inf]
doubles = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats())


@settings(max_examples=60)
@given(rows_per_write=st.integers(1, 5), chunks=st.integers(1, 3),
       offset=st.sampled_from([-1, 0, 1]), data=st.data())
def test_csv_writers_match_per_line_formatting_on_any_doubles(tmp_path_factory, rows_per_write,
                                                              chunks, offset, data):
    n = chunks * rows_per_write + offset
    t = np.array(data.draw(st.lists(doubles, min_size=n, max_size=n)), dtype=float)
    values = np.array(data.draw(st.lists(doubles, min_size=n, max_size=n)), dtype=float)
    x = np.array(data.draw(st.lists(doubles, min_size=1, max_size=6)), dtype=float)
    steps = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)) if n else []
    fields = np.array(data.draw(st.lists(st.lists(doubles, min_size=x.size, max_size=x.size),
                                         min_size=len(steps), max_size=len(steps))),
                      dtype=float).reshape(len(steps), x.size)
    out = tmp_path_factory.mktemp("writers")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_CHUNK_ROWS", rows_per_write)
        cli._write_series([out / "s.csv", out / "r.csv"], t, [values, t])
        cli._write_field([out / "f.csv", out / "g.csv"], x, t[steps], [fields, fields[::-1]])
    assert (out / "s.csv").read_bytes() == reference_series(t, values).encode()
    assert (out / "r.csv").read_bytes() == reference_series(t, t).encode()
    assert (out / "f.csv").read_bytes() == reference_field(x, t[steps], fields).encode()
    assert (out / "g.csv").read_bytes() == \
        reference_field(x, t[steps], fields[::-1]).encode()


def assert_run_csvs_match_a_per_line_writer(record, tmp_path):
    cli._write_csvs(record, tmp_path)
    result = record.sim
    expected = {f"{name}.csv": reference_series(result.times, values) for name, values in (
        ("u", result.u), ("v", result.v), ("eta", result.eta), ("zeta", result.zeta),
        ("l2_norm", np.sqrt(result.l2_sq)), ("energy", result.energy_sq),
        ("lyapunov", record.lyapunov.V))}
    snap = result.snapshot_steps
    _, z_field, error_field = result.fields(snap, cli._FIELD_STRIDE)
    x = record.reduced.spectrum.grid[::cli._FIELD_STRIDE]
    expected["state_field.csv"] = reference_field(x, result.times[snap], z_field)
    expected["error_field.csv"] = reference_field(x, result.times[snap], error_field)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_run_csvs_match_a_per_line_writer(tmp_path):
    assert_run_csvs_match_a_per_line_writer(cli.solve(parse_config("dirichlet-example")),
                                            tmp_path)


def test_run_csvs_past_one_chunk_match_a_per_line_writer(tmp_path):
    # 5,001 rows: one full chunk of the real _CHUNK_ROWS, then a partial one
    config = parse_config("dirichlet-example")
    config["sim"]["T"] = 5.0
    record = cli.solve(config)
    assert simulate._CHUNK_ROWS < record.sim.times.size == 5001 < 2 * simulate._CHUNK_ROWS
    assert_run_csvs_match_a_per_line_writer(record, tmp_path)


# ---------------------------------------------------------------- reruns

def outputs(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def dirichlet_export_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset-d-sdpa")
    assert run_scenario("dirichlet-example", out_dir=out, quiet=True,
                        export_sdpa_path=out / "problem.dat-s") == 0
    return out


@pytest.mark.parametrize("stale", ["longer", "symlink", "dangling"])
def test_rerun_replaces_stale_outputs_and_links(tmp_path, dirichlet_export_run, stale):
    # every output name, the SDPA export's included, holds a stale file longer
    # than the run's, or a link to one, or a link to nothing: the rerun leaves
    # a fresh run's regular files and never writes through a link
    expected = outputs(dirichlet_export_run)
    assert "problem.dat-s" in expected
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    old = {name: b"stale\n" * (len(text) // 6 + 100) for name, text in expected.items()}
    for name, text in old.items():
        if stale == "longer":
            (out / name).write_bytes(text)
        else:
            if stale == "symlink":
                (elsewhere / name).write_bytes(text)
            (out / name).symlink_to(elsewhere / name)
    assert run_scenario("dirichlet-example", out_dir=out, quiet=True,
                        export_sdpa_path=out / "problem.dat-s") == 0
    assert outputs(out) == expected
    assert all(path.is_file() and not path.is_symlink() for path in out.iterdir())
    assert outputs(elsewhere) == ({} if stale != "symlink" else old)


def test_rerun_leaves_hard_links_to_old_outputs_their_bytes(tmp_path):
    # each output is created as a new file, so a hard link made to an old
    # one keeps the old bytes; the SDPA export at q_c = 4 differs from the
    # one at the preset's q_c = 3
    out, kept = tmp_path / "out", tmp_path / "kept"
    export = out / "problem.dat-s"
    assert run_scenario("dirichlet-example", out_dir=out, quiet=True,
                        export_sdpa_path=export) == 0
    old = outputs(out)
    kept.mkdir()
    for name in old:
        os.link(out / name, kept / name)
    cfg = preset_config(tmp_path, "dirichlet-example", T=2, q_c=4)
    assert run_scenario(str(cfg), out_dir=out, quiet=True, export_sdpa_path=export) == 0
    new = outputs(out)
    assert "problem.dat-s" in new
    assert sorted(new) == sorted(old) and all(new[name] != old[name] for name in old)
    assert outputs(kept) == old


def test_uncertified_rerun_removes_a_stale_lyapunov_csv(tmp_path):
    # the left-flux example at q_c = 3 certifies no order N <= 10, so it has
    # no V: the dirichlet run's lyapunov.csv must not outlive it
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_scenario("dirichlet-example", out_dir=out, quiet=True) == 0
    assert (out / "lyapunov.csv").is_file()
    cfg = preset_config(tmp_path, "neumann-example", q_c=3)
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 2
    assert run_scenario(str(cfg), out_dir=fresh, quiet=True) == 2
    assert load_report(out)["certificate_feasible"] is False
    assert "lyapunov.csv" not in outputs(fresh)
    assert outputs(out) == outputs(fresh)


# ---------------------------------------------------------------- errors & codes

def test_missing_file_is_config_parse(tmp_path):
    code = run_scenario(str(tmp_path / "nope.cfg"), quiet=True)
    assert code == ERROR_EXIT_CODES[ConfigParse] == 3


def test_config_that_is_not_utf8_is_config_parse(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff")
    assert main(["run", str(bad), "--quiet"]) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert f"cannot read config {bad}" in capsys.readouterr().err


def test_malformed_line_raises_config_parse(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[plant]\np 1\n")
    with pytest.raises(ConfigParse):
        parse_config(bad)


def test_missing_section_exit_code(tmp_path):
    bad = tmp_path / "nosim.cfg"
    bad.write_text("[plant]\np = 1\nq = 0\nq_c = 3\nmeasurement = dirichlet\n"
                   "[design]\ndelta = 0.5\n")
    assert run_scenario(str(bad), quiet=True) == 3


@pytest.mark.parametrize("line", ["alpha_grid = 2", "[solver]"])
def test_unknown_key_or_section_exit_code(tmp_path, capsys, line):
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("n_max = 6", f"n_max = 6\n{line}"))
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    assert line.strip("[]").split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("N", "2.5"), ("N", "Auto2"), ("n_max", "6.9"),
                                       ("n_sim", "20.5"), ("n_sim", "many")])
def test_non_integer_order_exit_code(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    err = capsys.readouterr().err
    assert f"{key} must be an integer" in err and value in err


@pytest.mark.parametrize("section,key,value", [
    ("sim", "dt", "fast"), ("plant", "q_c", "three"), ("design", "delta", "x"),
    ("sim", "T", "1, 2"),
    # values that convert but lie out of range: non-finite numbers, a
    # non-positive decay rate, step or horizon, fewer simulated modes than
    # the run order N* = 2, no 2 steps to fit a decay on
    ("sim", "T", "nan"), ("plant", "q_c", "nan"), ("design", "delta", "inf"),
    ("design", "delta", "0"), ("sim", "dt", "0"), ("sim", "T", "-1"),
    ("sim", "n_sim", "1"), ("sim", "T", "0.0005"),
    # mode counts below 1
    ("sim", "n_sim", "0"), ("sim", "n_sim", "-1"), ("design", "n_max", "0"),
    ("design", "n_max", "-1"),
    # coefficients whose exact extrema leave p > 0 or q >= 0 on [0, 1]
    ("plant", "p", "-1"), ("plant", "p", "1, -2"), ("plant", "q", "-1"),
    ("plant", "q", "1, -3")])
def test_malformed_value_exit_code(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run_scenario(str(cfg), quiet=True) == ERROR_EXIT_CODES[ConfigParse] == 3
    err = capsys.readouterr().err
    assert f"[{section}] {key} must be" in err and value in err


@pytest.mark.parametrize("out", ["afile", "afile/sub", "out"])
def test_unusable_output_directory_is_io_failure(tmp_path, capsys, out):
    # afile is a file, so it can neither be nor hold the output directory;
    # out/report.json is a directory, so the report cannot be written there
    (tmp_path / "afile").write_text("")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    target = tmp_path / out
    assert main(["run", str(write_config(tmp_path)), "--out", str(target), "--quiet"]) \
        == ERROR_EXIT_CODES[IoFailure] == 16
    err = capsys.readouterr().err
    assert err.startswith("error[IoFailure]") and str(target) in err


def test_failed_output_stage_leaves_no_report(tmp_path, capsys):
    # an old run's report.json next to a directory named u.csv: the CSVs
    # cannot be written, and no report is left to describe other CSVs
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    (out / "u.csv").unlink()
    (out / "u.csv").mkdir()
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) \
        == ERROR_EXIT_CODES[IoFailure] == 16
    assert capsys.readouterr().err.startswith("error[IoFailure]")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["Auto", "AUTO"])
def test_auto_order_in_any_case(tmp_path, value):
    out = tmp_path / "auto"
    assert run_scenario(str(write_config(tmp_path, N=value)), out_dir=out, quiet=True) == 0
    assert load_report(out)["N_star"] == 2


@pytest.mark.parametrize("section,key,value", [("design", "controller_poles", "AUTO"),
                                               ("design", "observer_poles", "Auto")])
def test_auto_values_in_any_case(tmp_path, section, key, value):
    reports = []
    for spelling in ("auto", value):
        cfg = write_config(tmp_path, name=f"{spelling}.cfg")
        lines = [line for line in cfg.read_text().splitlines()
                 if line.split("=")[0].strip() != key]
        text = "\n".join(lines)
        cfg.write_text(text.replace(f"[{section}]", f"[{section}]\n{key} = {spelling}"))
        out = tmp_path / spelling
        assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_readme_config_block_lists_the_schema():
    # every key of cli._KEYS, and no other, with its default where it has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Scenario configuration", 1)[1].split("```")[1]
    listed = cli._read(block, "README.md")
    assert {s: set(keys) for s, keys in listed.items()} \
        == {s: set(keys) for s, keys in cli._KEYS.items()}
    for section, keys in cli._KEYS.items():
        for key, (kind, default) in keys.items():
            if default not in (cli._REQUIRED, None):
                assert kind.convert(listed[section][key]) == kind.convert(default), key


def test_unknown_measurement_exit_code(tmp_path):
    cfg = write_config(tmp_path, measurement="sideways")
    assert run_scenario(str(cfg), quiet=True) == 3


def test_decay_unreachable_exit_code(tmp_path):
    # delta far above what the computed modes can certify
    cfg = write_config(tmp_path, delta=150.0, n_sim=2, n_max=3)
    code = run_scenario(str(cfg), quiet=True)
    assert code == ERROR_EXIT_CODES[DecayUnreachable] == 4


def test_exit_codes_are_distinct():
    codes = [0, 1, 2] + list(ERROR_EXIT_CODES.values())
    assert len(codes) == len(set(codes))


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "exit codes" in text
    assert "DecayUnreachable" in text
    assert "dirichlet-example" in text


def test_help_lists_only_exit_codes_a_run_returns(capsys):
    # p is checked at parse time (exit 3), and so are the mode counts, which
    # leaves every reduction the modes it needs
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = capsys.readouterr().out
    for name in ("NonPositiveDiffusion", "InsufficientModes"):
        assert name not in text
    for cls, code in ERROR_EXIT_CODES.items():
        assert f"{cls.__name__:<22} {code}" in text


def test_insufficient_modes_exit_code(tmp_path, capsys):
    # n_sim = 0 or n_max = 0 (from the config or --n-max) would reduce on no
    # mode while the one computed mode needs control: each exits 3 naming its
    # key before any work, and no run reaches InsufficientModes
    assert InsufficientModes not in ERROR_EXIT_CODES
    for n_sim, n_max, named in ((0, None, "[sim] n_sim"), (50, 0, "[design] n_max"),
                                (0, 0, "[design] n_max")):
        cfg = preset_config(tmp_path, "dirichlet-example", q_c=0, n_sim=n_sim)
        assert run_scenario(str(cfg), n_max=n_max, quiet=True) == ERROR_EXIT_CODES[ConfigParse]
        assert f"{named} must be an integer >= 1, got '0'" in capsys.readouterr().err


def test_main_runs_preset(tmp_path):
    code = main(["run", "dirichlet-example", "--out", str(tmp_path / "m"),
                 "--quiet", "--n-max", "8"])
    assert code == 0
    assert (tmp_path / "m" / "report.json").exists()
