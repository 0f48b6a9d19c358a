import json

import numpy as np
import pytest

import specstab as ss
from specstab import cli
from specstab.cli import ERROR_EXIT_CODES, main, parse_config, run_scenario
from specstab.errors import ConfigParse, DecayUnreachable
from specstab.sdpa import read_sdpa

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
u0 = auto
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
    assert report["N_star"] == 6
    lam7 = (6.5 * np.pi) ** 2  # lambda_{N*+1} of the pinned-at-1 Laplacian
    assert report["certificate"]["alpha"] == pytest.approx(2 * lam7 / (lam7 - 3.5),
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


def test_neumann_preset_reports_infeasible_constructive_search(neumann_preset_run):
    # gains and simulation still match the source example; the constructive
    # Lyapunov-P search cannot certify N <= 10 here (the free-P solve can, see
    # test_sdpa::test_exported_problem_solved_in_repository), so the runner
    # signals an infeasible certificate
    code, out = neumann_preset_run
    assert code == 2
    report = load_report(out)
    assert np.allclose(report["gains"]["K"], [-4.5649, -0.9653], atol=1e-3)
    assert report["gains"]["L"][0] == pytest.approx(0.3670, abs=1e-3)
    assert report["N_star"] is None
    assert report["certificate"] is None
    assert report["search_margins"] is not None
    assert report["simulation"]["fitted_decay_rate"] >= 0.5
    assert report["simulation"]["spectral_abscissa"] < -0.5


def test_neumann_preset_export_is_free_p_feasible(neumann_preset_run):
    # the export is written at the order's best alpha, where the free-P LMI
    # of that file is feasible (at alpha = 1.1 it is not)
    _, out = neumann_preset_run
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 10.0,
                         ss.MeasurementSpec.neumann(), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 51)
    gains = ss.design_gains(ss.reduce(plant, spectrum, 50))
    reduced = ss.reduce(plant, spectrum, 3)
    model = ss.assemble_closed_loop(reduced, gains, 3)
    alpha = ss.optimal_alpha(model, reduced)
    again = out / "again.dat-s"
    ss.export_sdpa(model, reduced, alpha, 0.125, again)
    assert (out / "problem.dat-s").read_bytes() == again.read_bytes()
    assert ss.free_p_certificate(model, reduced, alpha).feasible


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


def test_config_output_dir_used_when_no_flag(tmp_path):
    cfg = write_config(tmp_path)
    assert run_scenario(str(cfg), quiet=True) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("SPECSTAB_OUT", str(env_out))
    assert run_scenario(str(cfg), out_dir=tmp_path / "flag-out", quiet=True) == 0
    assert (env_out / "report.json").exists()
    assert not (tmp_path / "flag-out").exists()


def test_explicit_observer_order(tmp_path):
    cfg = write_config(tmp_path, N=3)
    out = tmp_path / "explicit"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 0
    report = load_report(out)
    assert report["N_star"] == 3
    assert report["simulation"]["N"] == 3


def test_fixed_order_failure_reports_exact_margin(tmp_path):
    cfg = write_config(tmp_path, N=2)
    out = tmp_path / "fixed"
    assert run_scenario(str(cfg), out_dir=out, quiet=True) == 2
    record = load_report(out)["search_margins"]["2"]
    assert 0 < record["margin"] < 1
    assert record["alpha"] > 1


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


def test_variable_coefficient_config(tmp_path):
    cfg = write_config(tmp_path, p="1, 0.1", q="0, 0.5")
    out = tmp_path / "var"
    code = run_scenario(str(cfg), out_dir=out, quiet=True)
    assert code in (0, 2)  # certification not promised for this plant
    report = load_report(out)
    assert report["plant"]["p"] == [1.0, 0.1]
    assert report["simulation"]["spectral_abscissa"] < -0.5


def test_variable_coefficients_through_solve_spectrum(tmp_path):
    # p = 1 + x/2, q = x^2: the finite-difference spectrum, not the closed form
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
    t_text = cli._format_column(t)
    cli._write_series(tmp_path / "s.csv", t_text, values)
    assert (tmp_path / "s.csv").read_bytes() == reference_series(t, values).encode()
    x = np.array([0.0, 0.025, 1 / 3, 1.0, 5e-324])
    fields = rng.normal(size=(3, x.size)) * [[1e300], [-0.0], [1e-310]]
    steps = [0, 5, 16]
    cli._write_field(tmp_path / "f.csv", x, [t_text[i] for i in steps], fields)
    expected = reference_field(x, t[steps], fields).encode()
    assert (tmp_path / "f.csv").read_bytes() == expected


def test_series_writer_chunks_match_one_pass(tmp_path, monkeypatch):
    # 17 rows written 4 at a time: four full chunks and one single row
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 4)
    t = np.linspace(0.0, 1.6, 17)
    values = np.random.default_rng(5).normal(size=t.size)
    cli._write_series(tmp_path / "s.csv", cli._format_column(t), values)
    assert (tmp_path / "s.csv").read_bytes() == reference_series(t, values).encode()


# ---------------------------------------------------------------- errors & codes

def test_missing_file_is_config_parse(tmp_path):
    code = run_scenario(str(tmp_path / "nope.cfg"), quiet=True)
    assert code == ERROR_EXIT_CODES[ConfigParse] == 3


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
    assert "SPECSTAB_OUT" in text
    assert "dirichlet-example" in text


def test_main_runs_preset(tmp_path):
    code = main(["run", "dirichlet-example", "--out", str(tmp_path / "m"),
                 "--quiet", "--n-max", "8"])
    assert code == 0
    assert (tmp_path / "m" / "report.json").exists()
