"""Scenario runner: parse a config, synthesize, certify, simulate, report.

Configs are flat key-value text with [section] headers (grammar in the
README); two presets reproduce the constant-coefficient examples.  A run
reduces the plant once, at max(n_sim, n_max) modes, and designs the gains,
certifies every order, simulates and exports the SDP on that one
ReducedPlant.  Outputs are CSV series plus a deterministic report.json with
floats printed at 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificate as cert_mod
from . import errors as err
from .homogenize import (
    BOUNDED,
    DIRICHLET_AT_0,
    NEUMANN_AT_0,
    MeasurementSpec,
    PlantSpec,
    reduce as reduce_plant,
)
from .simulate import SimConfig, assemble_sim, fit_decay, lyapunov_trace, run as run_sim
from .sturm_liouville import CoefficientPair, analytic_spectrum, solve_spectrum
from .synthesis import assemble_closed_loop, design_gains

OUT_ENV_VAR = "SPECSTAB_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# distinct exit code per module error class (documented in --help)
ERROR_EXIT_CODES = {
    err.ConfigParse: 3,
    err.DecayUnreachable: 4,
    err.ResolutionTooCoarse: 5,
    err.NonPositiveDiffusion: 6,
    err.BoundViolation: 7,
    err.MissingDerivative: 8,
    err.InsufficientModes: 9,
    err.UncontrollablePair: 10,
    err.UnobservablePair: 11,
    err.OrderTooSmall: 12,
    err.NotHurwitzShifted: 13,
    err.StepRejected: 14,
    err.EpsOutOfRange: 15,
    err.IoFailure: 16,
}

PRESETS = {
    "dirichlet-example": {
        "scenario": {"name": "dirichlet-example"},
        "plant": {"p": [1.0], "q": [0.0], "q_c": 3.0, "measurement": "dirichlet"},
        "design": {"delta": 0.5, "N": "auto", "n_max": 10, "eps": 0.125},
        "sim": {"n_sim": 50, "dt": 1e-3, "T": 3.0, "z0": [1.0, 0.0, 1.0], "u0": "auto"},
        "output": {},
    },
    "neumann-example": {
        "scenario": {"name": "neumann-example"},
        "plant": {"p": [1.0], "q": [0.0], "q_c": 10.0, "measurement": "neumann"},
        "design": {"delta": 0.5, "N": "auto", "n_max": 10, "eps": 0.125},
        "sim": {"n_sim": 50, "dt": 1e-3, "T": 3.0,
                "z0": [0.0, -2.0 / 3.0, 1.0], "u0": "auto"},
        "output": {},
    },
}

_REQUIRED = {
    "plant": ("p", "q", "q_c", "measurement"),
    "design": ("delta",),
    "sim": ("z0",),
}

_DEFAULTS = {
    "design": {"N": "auto", "n_max": 10, "eps": 0.125,
               "controller_poles": "auto", "observer_poles": "auto"},
    "sim": {"n_sim": 50, "dt": 1e-3, "T": 3.0, "u0": "auto"},
    "output": {"dir": "specstab-out"},
    "scenario": {"name": "scenario"},
}

#: every key a config may set: the required and the defaulted ones, and plant.c
_KEYS = {section: {*_REQUIRED.get(section, ()), *_DEFAULTS.get(section, {})}
         for section in {*_REQUIRED, *_DEFAULTS}}
_KEYS["plant"].add("c")

#: keys are case-insensitive; these two are spelled in upper case internally
_UPPER_KEYS = {"n": "N", "t": "T"}


def _parse_value(text: str):
    text = text.strip()
    parts = text.replace(",", " ").split()
    if len(parts) > 1:
        try:
            return [float(p) for p in parts]
        except ValueError:
            return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config(path) -> dict:
    """Parse the flat sectioned key-value grammar into nested dicts."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise err.ConfigParse(f"cannot read config {path}: {exc}") from exc
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KEYS:
                raise err.ConfigParse(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise err.ConfigParse(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise err.ConfigParse(f"{path}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        key = _UPPER_KEYS.get(key, key)
        if key not in _KEYS[current]:
            raise err.ConfigParse(f"{path}:{lineno}: unknown key {key!r} in [{current}]")
        sections[current][key] = _parse_value(value)
    for section, keys in _REQUIRED.items():
        if section not in sections:
            raise err.ConfigParse(f"{path}: missing [{section}] section")
        for key in keys:
            if key not in sections[section]:
                raise err.ConfigParse(f"{path}: missing required key {key!r} in [{section}]")
    return sections


def _merged(config: dict) -> dict:
    merged = {}
    for section in set(_DEFAULTS) | set(config):
        merged[section] = dict(_DEFAULTS.get(section, {}))
        merged[section].update(config.get(section, {}))
    return merged


def _integer(section: str, key: str, value) -> int:
    """An integer config value; anything else is a ConfigParse naming the key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise err.ConfigParse(f"[{section}] {key} must be an integer, got {value!r}")
    return int(value)


def _as_coeff_list(value) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [float(v) for v in value]
    raise err.ConfigParse(f"expected a number or coefficient list, got {value!r}")


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return f"{x:.17g}"


def _to_json(obj, indent: int = 0) -> str:
    """Canonical JSON with fixed float formatting (17 significant digits)."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{child}"{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{child}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_column(values) -> list[str]:
    """Each value at 17 significant digits, as the CSV writers print it."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist()]


#: rows formatted and written per chunk by the CSV writers, which bounds the
#: text they hold at once
_ROWS_PER_WRITE = 4096


def _write_series(path: Path, t_text: list[str], values: np.ndarray):
    """`t,value` rows; t_text is the time column, formatted once per run."""
    with path.open("w") as out:
        out.write("t,value\n")
        for start in range(0, len(t_text), _ROWS_PER_WRITE):
            stop = start + _ROWS_PER_WRITE
            rows = zip(t_text[start:stop], values[start:stop].tolist())
            out.write("".join([f"{ti},{vi:.17g}\n" for ti, vi in rows]))


def _write_field(path: Path, x: np.ndarray, t_text: list[str], fields: np.ndarray):
    """`x,t,value` rows, one block (and one write) per snapshot time."""
    x_text = _format_column(x)
    with path.open("w") as out:
        out.write("x,t,value\n")
        for ti, field in zip(t_text, fields):
            rows = zip(x_text, field.tolist())
            out.write("".join([f"{xi},{ti},{vi:.17g}\n" for xi, vi in rows]))


def run_scenario(name_or_path: str, n_max: int | None = None,
                 eps: float | None = None, export_sdpa_path: str | None = None,
                 out_dir: str | None = None, quiet: bool = False) -> int:
    """Execute one scenario end to end; returns the process exit code."""
    try:
        return _run_scenario(name_or_path, n_max, eps, export_sdpa_path, out_dir, quiet)
    except err.SpecstabError as exc:
        code = ERROR_EXIT_CODES.get(type(exc), EXIT_ERROR)
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # noqa: BLE001 - runner boundary
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _run_scenario(name_or_path, n_max, eps, export_sdpa_path, out_dir, quiet) -> int:
    if name_or_path in PRESETS:
        config = {k: dict(v) for k, v in PRESETS[name_or_path].items()}
    else:
        config = parse_config(name_or_path)
    cfg = _merged(config)

    say = (lambda *a: None) if quiet else print
    plant_cfg, design_cfg, sim_cfg = cfg["plant"], cfg["design"], cfg["sim"]
    if n_max is not None:
        design_cfg["n_max"] = n_max
    if eps is not None:
        design_cfg["eps"] = float(eps)

    # output dir: env var overrides everything, then --out, then config
    if os.environ.get(OUT_ENV_VAR):
        out = Path(os.environ[OUT_ENV_VAR])
    elif out_dir is not None:
        out = Path(out_dir)
    else:
        out = Path(cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)

    p_coeffs = _as_coeff_list(plant_cfg["p"])
    q_coeffs = _as_coeff_list(plant_cfg["q"])
    coeffs = CoefficientPair.from_polynomials(p_coeffs, q_coeffs)
    kind = str(plant_cfg["measurement"]).strip().lower()
    if kind == BOUNDED:
        if "c" not in plant_cfg:
            raise err.ConfigParse("bounded measurement requires key 'c' in [plant]")
        c_coeffs = np.asarray(_as_coeff_list(plant_cfg["c"]))
        measurement = MeasurementSpec.bounded(
            lambda x, _c=c_coeffs: np.polynomial.polynomial.polyval(
                np.asarray(x, dtype=float), _c))
    elif kind in (DIRICHLET_AT_0, NEUMANN_AT_0):
        measurement = MeasurementSpec(kind)
    else:
        raise err.ConfigParse(f"unknown measurement kind {kind!r}")
    plant = PlantSpec(coeffs=coeffs, q_c=float(plant_cfg["q_c"]),
                      measurement=measurement, delta=float(design_cfg["delta"]))

    n_sim = _integer("sim", "n_sim", sim_cfg["n_sim"])
    n_max_val = _integer("design", "n_max", design_cfg["n_max"])
    n_requested = design_cfg["N"]
    auto = isinstance(n_requested, str) and n_requested.lower() == "auto"
    if not auto:
        n_requested = _integer("design", "N", n_requested)
    eps_val = float(design_cfg["eps"])
    n_modes = max(n_sim, n_max_val) + 1
    trim = np.polynomial.polynomial.polytrim
    is_laplacian = (trim(p_coeffs).tolist() == [1.0] and trim(q_coeffs).tolist() == [0.0])
    if is_laplacian:
        spectrum = analytic_spectrum(plant.boundary, n_modes)
    else:
        grid = max(2000, 40 * n_modes)
        grid += grid % 2
        spectrum = solve_spectrum(coeffs, plant.boundary, n_modes, grid)

    # one reduction serves the simulation (n_sim modes) and every order up to n_max
    reduced = reduce_plant(plant, spectrum, n_modes - 1, eps=eps_val)
    say(f"[{cfg['scenario']['name']}] N0 = {reduced.N0}, "
        f"tail constant = {reduced.tail_constant:.6g}")

    cpoles = design_cfg.get("controller_poles", "auto")
    opoles = design_cfg.get("observer_poles", "auto")
    gains = design_gains(
        reduced,
        controller_poles=None if cpoles == "auto" else _as_coeff_list(cpoles),
        observer_poles=None if opoles == "auto" else _as_coeff_list(opoles),
    )
    say(f"  K = {np.array2string(gains.K, precision=6)}  "
        f"L = {np.array2string(gains.L, precision=6)}")

    certificate = None
    search_margins = None
    if auto:
        N_run = min(n_max_val, reduced.N0 + 2)  # simulated when no order certifies
        try:
            N_run, certificate = cert_mod.minimal_N(reduced, gains, N_max=n_max_val)
        except err.NoFeasibleN as exc:
            search_margins = exc.margins
    else:
        N_run = n_requested
        cand, record = cert_mod.certify_order(reduced, gains, N_run)
        if cand.feasible:
            certificate = cand
        else:
            search_margins = {N_run: record}
    feasible = certificate is not None
    n_star = N_run if feasible else None
    if feasible:
        say(f"  certificate verified at N = {n_star} "
            f"(alpha = {certificate.alpha}, beta = {certificate.beta:.6g}, "
            f"gamma = {certificate.gamma:.6g})")
    else:
        say(f"  no verified certificate for N <= {n_max_val} (constructive search)")

    A_cl = assemble_sim(reduced, gains, N_run, n_sim)
    x_grid = spectrum.grid
    z0_coeffs = np.asarray(_as_coeff_list(sim_cfg["z0"]))
    z0 = np.polynomial.polynomial.polyval(x_grid, z0_coeffs)
    u0 = float(z0[-1]) if sim_cfg["u0"] == "auto" else float(sim_cfg["u0"])
    sim_config = SimConfig(z0=z0, u0=u0, N_sim=n_sim,
                           dt=float(sim_cfg["dt"]), T=float(sim_cfg["T"]))
    result = run_sim(A_cl, sim_config, spectrum, reduced)
    abscissa = float(np.max(np.linalg.eigvals(A_cl).real))
    t_hi = float(sim_cfg["T"])
    rate = fit_decay(result.times, result.eta, (min(1.0, t_hi / 2), t_hi))
    say(f"  simulated N_sim = {n_sim}: spectral abscissa = {abscissa:.4f}, "
        f"fitted eta decay rate = {rate:.4f}")

    lyap = None
    if feasible:
        lyap = lyapunov_trace(result, certificate)
        say(f"  V e^(2 delta t) max increment = {lyap.max_increment:.3e}")

    if export_sdpa_path:
        model = assemble_closed_loop(reduced, gains, N_run)
        alpha_exp = cert_mod.optimal_alpha(model, reduced)
        cert_mod.export_sdpa(model, reduced, alpha_exp, eps_val, export_sdpa_path)
        say(f"  SDPA export (N = {N_run}, alpha = {alpha_exp:.6g}) -> {export_sdpa_path}")

    snap = result.snapshot_steps
    t_text = _format_column(result.times)
    series = {"u": result.u, "v": result.v, "eta": result.eta, "zeta": result.zeta,
              "l2_norm": np.sqrt(result.l2_sq), "energy": result.energy_sq}
    if lyap is not None:
        series["lyapunov"] = lyap.V
    for name, values in series.items():
        _write_series(out / f"{name}.csv", t_text, values)
    z_field, error_field = result.snapshot_fields(snap, 40)
    snap_text = [t_text[i] for i in snap]
    _write_field(out / "state_field.csv", x_grid[::40], snap_text, z_field)
    _write_field(out / "error_field.csv", x_grid[::40], snap_text, error_field)

    report = {
        "name": cfg["scenario"]["name"],
        "plant": {"p": p_coeffs, "q": q_coeffs, "q_c": float(plant_cfg["q_c"]),
                  "measurement": kind, "delta": plant.delta},
        "N0": reduced.N0,
        "tail_constant": reduced.tail_constant,
        "tail_eps": reduced.tail_eps,
        "gains": {"K": [float(v) for v in gains.K], "L": [float(v) for v in gains.L],
                  "controller_poles": list(gains.controller_poles),
                  "observer_poles": list(gains.observer_poles)},
        "certificate_feasible": feasible,
        "N_star": n_star,
        "certificate": certificate.to_dict() if feasible else None,
        "search_margins": {str(k): v for k, v in search_margins.items()}
        if search_margins else None,
        "simulation": {
            "N": N_run, "N_sim": n_sim, "dt": sim_config.dt, "T": sim_config.T,
            "spectral_abscissa": abscissa,
            "fitted_decay_rate": rate,
            "eta_start": float(result.eta[0]),
            "eta_end": float(result.eta[-1]),
            "lyapunov_max_increment": None if lyap is None else lyap.max_increment,
        },
    }
    (out / "report.json").write_text(_to_json(report) + "\n")
    say(f"  report -> {out / 'report.json'}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _help_epilog() -> str:
    rows = [f"  {cls.__name__:<22} {code}" for cls, code in ERROR_EXIT_CODES.items()]
    return (
        "presets:\n  " + "\n  ".join(sorted(PRESETS)) + "\n\n"
        "exit codes:\n"
        "  success                0\n"
        "  unexpected error       1\n"
        "  infeasible certificate 2\n" + "\n".join(rows) + "\n\n"
        f"environment:\n  {OUT_ENV_VAR}  overrides the output directory\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specstab",
        description="Observer-based boundary stabilization: synthesis, "
                    "certification, and closed-loop simulation.",
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a preset or a scenario config file",
                          epilog=_help_epilog(),
                          formatter_class=argparse.RawDescriptionHelpFormatter)
    runp.add_argument("scenario", help="preset name or path to a config file")
    runp.add_argument("--n-max", type=int, default=None,
                      help="cap for the minimal-N certificate search")
    runp.add_argument("--eps", type=float, default=None,
                      help="tail exponent for the left-flux measurement")
    runp.add_argument("--export-sdpa", dest="export_sdpa", default=None,
                      metavar="PATH",
                      help="write the free-P feasibility SDP at the order's best alpha")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, n_max=args.n_max, eps=args.eps,
                        export_sdpa_path=args.export_sdpa, out_dir=args.out,
                        quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
