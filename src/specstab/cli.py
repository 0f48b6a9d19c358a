"""Scenario runner: parse a config, synthesize, certify, simulate, report.

Configs, presets included, are flat key-value text with [section] headers
(grammar in the README); _KEYS converts every value once.  solve() reduces
the plant once, at max(n_sim, n_max) modes, designs the gains, certifies and
simulates on that ReducedPlant, and returns a RunRecord with no I/O.
run_scenario prints it and writes the SDPA export, CSV series and a
deterministic report.json with floats printed at 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import certificate as cert_mod
from . import errors as err
from ._files import create
from ._g17 import WIDTH, g17
from .certificate import Certificate
from .homogenize import (BOUNDED, DIRICHLET_AT_0, NEUMANN_AT_0, MeasurementSpec, PlantSpec,
                         ReducedPlant, reduce as reduce_plant)
from .simulate import (LyapunovTrace, SimConfig, SimResult, _chunks, compatibility_defect,
                       fit_decay, lyapunov_trace, run as run_sim, step_times)
from .sturm_liouville import CoefficientPair, analytic_spectrum, galerkin_bytes, solve_spectrum
from .synthesis import GainSet, assemble_closed_loop, design_gains

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# distinct exit code per module error class that a run can raise (listed in --help)
ERROR_EXIT_CODES = {
    err.ConfigParse: 3,
    err.DecayUnreachable: 4,
    err.UncontrollablePair: 10,
    err.UnobservablePair: 11,
    err.OrderTooSmall: 12,
    err.NotHurwitzShifted: 13,
    err.StepRejected: 14,
    err.EpsOutOfRange: 15,
    err.IoFailure: 16,
    err.NonPositiveSeries: 17,
}

_EXAMPLE = """[scenario]
name = {0}-example
[plant]
p = 1
q = 0
q_c = {1}
measurement = {0}
[design]
delta = 0.5
[sim]
z0 = {2}
"""

#: the constant-coefficient examples as config text; other keys take their defaults
PRESETS = {f"{kind}-example": _EXAMPLE.format(kind, q_c, z0) for kind, q_c, z0 in (
    ("dirichlet", 3, "1, 0, 1"), ("neumann", 10, "0, -0.6666666666666666, 1"))}


class _Type(NamedTuple):
    """What a value's text must hold, and its conversion (ValueError if it cannot)."""

    what: str
    convert: Callable[[str], object]

    def or_auto(self) -> _Type:
        """The same type, with auto in any case read as None."""
        return _Type(f"{self.what} or auto",
                     lambda text: None if text.lower() == "auto" else self.convert(text))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise ValueError(text)
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _numbers(text: str) -> list[float]:
    values = [_finite(v) for v in text.replace(",", " ").split()]
    if not values:
        raise ValueError("no numbers")
    return values


def _measurement(text: str) -> str:
    if text.lower() not in (BOUNDED, DIRICHLET_AT_0, NEUMANN_AT_0):
        raise ValueError(text)
    return text.lower()


_TEXT = _Type("text", str)
_INTEGER = _Type("an integer", int)
_COUNT = _Type("an integer >= 1", _count)
_NUMBER = _Type("a finite number", _finite)
_POSITIVE = _Type("a positive finite number", _positive)
_NUMBERS = _Type("a list of finite numbers", _numbers)

#: marks a key without a default; a default of None lets the key be left out
_REQUIRED = object()

#: the config schema: section -> key -> (type, default text or _REQUIRED)
_KEYS = {
    "scenario": {"name": (_TEXT, "scenario")},
    "plant": {"p": (_NUMBERS, _REQUIRED), "q": (_NUMBERS, _REQUIRED),
              "q_c": (_NUMBER, _REQUIRED),
              "measurement": (_Type("bounded, dirichlet or neumann", _measurement),
                              _REQUIRED),
              "c": (_NUMBERS, None)},
    "design": {"delta": (_POSITIVE, _REQUIRED), "N": (_INTEGER.or_auto(), "auto"),
               "n_max": (_COUNT, "10"), "eps": (_NUMBER, "0.125"),
               "controller_poles": (_NUMBERS.or_auto(), "auto"),
               "observer_poles": (_NUMBERS.or_auto(), "auto")},
    "sim": {"n_sim": (_COUNT, "50"), "dt": (_POSITIVE, "0.001"), "T": (_POSITIVE, "3.0"),
            "z0": (_NUMBERS, _REQUIRED)},
    "output": {"dir": (_TEXT, "specstab-out")},
}


def _read(text: str, source) -> dict[str, dict[str, str]]:
    """The value text of each key that config text sets once, per section."""
    values: dict[str, dict[str, str]] = {section: {} for section in _KEYS}
    set_on: dict[tuple[str, str], int] = {}  # the line that sets each key
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KEYS:
                raise err.ConfigParse(f"{source}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise err.ConfigParse(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise err.ConfigParse(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        keys = {k.lower(): k for k in _KEYS[current]}  # keys are case-insensitive
        if key.lower() not in keys:
            raise err.ConfigParse(f"{source}:{lineno}: unknown key {key!r} in [{current}]")
        name = keys[key.lower()]
        first = set_on.setdefault((current, name), lineno)
        if first != lineno:
            raise err.ConfigParse(f"{source}: [{current}] {name} is set on lines {first} "
                                  f"and {lineno}")
        values[current][name] = value
    return values


def _convert(values: dict[str, dict[str, str]], source) -> dict:
    """Every key of _KEYS, converted once from its text or its default."""
    config: dict[str, dict] = {}
    for section, keys in _KEYS.items():
        config[section] = {}
        for key, (kind, default) in keys.items():
            text = values[section].get(key, default)
            if text is _REQUIRED:
                raise err.ConfigParse(f"{source}: missing required key [{section}] {key}")
            try:
                config[section][key] = None if text is None else kind.convert(text)
            except ValueError:
                raise err.ConfigParse(f"{source}: [{section}] {key} must be {kind.what}, "
                                      f"got {text!r}") from None
    return config


def _values(name_or_path) -> dict[str, dict[str, str]]:
    """The value texts of a preset, or of a config file."""
    if name_or_path in PRESETS:
        return _read(PRESETS[name_or_path], name_or_path)
    try:
        text = Path(name_or_path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise err.ConfigParse(f"cannot read config {name_or_path}: {exc}") from exc
    return _read(text, name_or_path)


def parse_config(path) -> dict:
    """A config file (or a preset name) as {section: {key: value}}: every key
    of _KEYS converted, defaults included, None for auto and an absent c."""
    return _convert(_values(path), path)


@dataclass(frozen=True)
class RunRecord:
    """Each stage's result of one run, as solve() computes it; the plant and
    its spectrum are reduced.plant and reduced.spectrum."""

    config: dict
    reduced: ReducedPlant
    gains: GainSet
    N: int  # the run's order: the certified N*, else the fixed N, else min(n_max, N0 + 2)
    certificate: Certificate | None
    search_margins: dict | None  # each failed order's record, when none certifies
    sim: SimResult
    decay_rate: float
    lyapunov: LyapunovTrace | None


def _step_bytes(N: int) -> int:
    """The bytes a run at order N holds per step at its peak: the
    SimResult's 2N + 8 doubles (times, X, v, zeta and its four other series),
    and the larger of two transients that never meet.  simulate.run squares
    the N modes of the certificate state before it forms eta, and fit_decay
    holds six doubles a sample of its window: the log series, the two-column
    design matrix and lstsq's copies of both.  V, the Lyapunov series, and
    every other transient of a run or of the CSV writers stay within those
    (one chunk of rows at a time)."""
    return 8 * (2 * N + 8 + max(N, 6))


def _require_memory(config: dict, n_modes: int, coeffs: CoefficientPair | None):
    """ConfigParse, naming the keys that size the larger part, unless the
    run's largest arrays fit in physical memory.

    They are counted as four dense matrices of the closed loop's side
    1 + n_sim + N (A_cl, and A_cl dt, E and expm's work while it runs), the
    Galerkin solve's peak (sturm_liouville.galerkin_bytes) of n_modes of
    coeffs, and round(T / dt) + 1 steps of _step_bytes(N).  N is the
    largest order the run can take, [design] N or else n_max, and coeffs is
    None when the spectrum is the closed form.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return
    n_sim, n_max = config["sim"]["n_sim"], config["design"]["n_max"]
    T, dt = config["sim"]["T"], config["sim"]["dt"]
    N = config["design"]["N"] or n_max
    matrices = 8 * 4 * (1 + n_sim + N) ** 2 + \
        (0 if coeffs is None else galerkin_bytes(coeffs, n_modes))
    steps = round(T / dt) + 1 if math.isfinite(T / dt) else math.inf
    series = steps * _step_bytes(N)
    need = matrices + series
    if need > physical:
        if series > matrices:
            sets = f"[sim] T = {T} and [sim] dt = {dt} set {steps:.4g} steps"
        else:
            key, value = (("[sim] n_sim", n_sim) if n_sim >= n_max
                          else ("[design] n_max", n_max))
            sets = f"{key} = {value} sets {n_modes} modes"
        raise err.ConfigParse(
            f"{sets}, and the run's arrays need at least {need / 2 ** 30:.1f} GiB, more "
            f"than the {physical / 2 ** 30:.1f} GiB of physical memory")


def _require_sim_order(n_sim: int, N: int):
    """ConfigParse naming [sim] n_sim unless the simulation covers the run order N."""
    if n_sim < N:
        raise err.ConfigParse(f"[sim] n_sim must be at least the run order N = {N}, "
                              f"got {n_sim}")


def _require_alpha_order(reduced: ReducedPlant, N: int):
    """ConfigParse naming [plant] q_c when N, the first order the run
    decides, has no optimal alpha: lambda_(N+1) + q_c + delta <= 0 there
    (certificate.optimal_alpha).  Later orders have a larger lambda_(N+1)."""
    try:
        cert_mod.optimal_alpha(reduced, N)
    except ValueError:
        c = reduced.q_c + reduced.delta
        lam = float(reduced.spectrum.lambdas[N])
        raise err.ConfigParse(
            f"[plant] q_c = {reduced.q_c:g} gives q_c + delta = {c:.6g} <= -lambda_(N+1) = "
            f"{-lam:.6g} at N = {N}, the first order the run decides: no alpha > 1 "
            f"maximises k(alpha)/alpha there; a [design] N with lambda_(N+1) > "
            f"-(q_c + delta) = {-c:.6g} can be decided") from None


def solve(config: dict) -> RunRecord:
    """Run the pipeline on a parsed config; no file or stdout I/O."""
    plant_cfg, design_cfg, sim_cfg = config["plant"], config["design"], config["sim"]
    try:
        coeffs = CoefficientPair.from_polynomials(plant_cfg["p"], plant_cfg["q"])
    except (err.NonPositiveDiffusion, ValueError) as exc:  # p or q out of range on [0, 1]
        key = "p" if isinstance(exc, err.NonPositiveDiffusion) else "q"
        text = ", ".join(np.format_float_positional(v, trim="-") for v in plant_cfg[key])
        raise err.ConfigParse(f"[plant] {exc}, got {text}") from None
    kind = plant_cfg["measurement"]
    if kind != BOUNDED:
        measurement = MeasurementSpec(kind)
    elif plant_cfg["c"] is None:
        raise err.ConfigParse("bounded measurement requires key 'c' in [plant]")
    else:
        c_coeffs = np.asarray(plant_cfg["c"])
        measurement = MeasurementSpec.bounded(
            lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c_coeffs))
    plant = PlantSpec(coeffs=coeffs, q_c=plant_cfg["q_c"], measurement=measurement,
                      delta=design_cfg["delta"])
    n_sim, n_max = sim_cfg["n_sim"], design_cfg["n_max"]
    if design_cfg["N"] is not None:  # a fixed order is checked before any work
        _require_sim_order(n_sim, design_cfg["N"])
    n_modes = max(n_sim, n_max) + 1
    laplacian = coeffs.constant_values() == (1.0, 0.0)
    _require_memory(config, n_modes, None if laplacian else coeffs)
    # the initial data and the decay-fit window are checked before the spectrum
    z0, T, dt = sim_cfg["z0"], sim_cfg["T"], sim_cfg["dt"]
    defect = compatibility_defect(z0, plant.measurement.kind)
    if defect is not None:
        raise err.ConfigParse(f"[sim] z0 breaks a boundary compatibility condition: {defect}")
    if not np.any(z0):
        raise err.ConfigParse("[sim] z0 = 0 is the equilibrium: the loop stays at rest and "
                              "has no decay to fit")
    window, times = (min(1.0, T / 2), T), step_times(T, dt)
    if np.count_nonzero((times >= window[0]) & (times <= window[1])) < 2:
        raise err.ConfigParse(f"[sim] T must be long enough for 2 steps of dt = {dt} in "
                              f"the decay-fit window [min(1, T/2), T], got {T}")
    del times  # the run makes its own: no second copy lives through it
    # the field CSVs report at the points of the spectrum's grid
    spectrum = analytic_spectrum(plant.boundary, n_modes) if laplacian else \
        solve_spectrum(coeffs, plant.boundary, n_modes, max(2000, 40 * n_modes))

    # one reduction serves the simulation (n_sim modes) and every order up to n_max
    reduced = reduce_plant(plant, spectrum, n_modes - 1, eps=design_cfg["eps"])
    gains = design_gains(reduced, controller_poles=design_cfg["controller_poles"],
                         observer_poles=design_cfg["observer_poles"])

    certificate = search_margins = None
    if design_cfg["N"] is None:
        N = min(n_max, reduced.N0 + 2)  # simulated when no order certifies
        if n_max > reduced.N0:
            _require_alpha_order(reduced, reduced.N0 + 1)
        try:
            N, certificate = cert_mod.minimal_N(reduced, gains, N_max=n_max)
        except err.NoFeasibleN as exc:
            search_margins = exc.margins
    else:
        N = design_cfg["N"]
        if N > reduced.N0:
            _require_alpha_order(reduced, N)
        certificate, record = cert_mod.certify_order(reduced, gains, N)
        if certificate is None:
            search_margins = {N: record}

    _require_sim_order(n_sim, N)
    try:
        result = run_sim(reduced, gains, N, SimConfig(z0=z0, N_sim=n_sim, dt=dt, T=T))
    except err.StepRejected as exc:
        if certificate is not None:
            raise
        best = min(search_margins, key=lambda n: search_margins[n]["margin"])
        raise err.StepRejected(f"the loop simulated at N = {N} is uncertified (smallest exact "
                               f"margin {search_margins[best]['margin']:.6g} at N = {best}): "
                               f"{exc}") from None
    return RunRecord(
        config=config, reduced=reduced, gains=gains, N=N,
        certificate=certificate, search_margins=search_margins, sim=result,
        decay_rate=fit_decay(result.times, result.eta, window),
        lyapunov=None if certificate is None else lyapunov_trace(result, certificate))


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
    return json.dumps(str(obj), ensure_ascii=False)


#: the field CSVs hold every _FIELD_STRIDE-th point of the spectrum's grid
_FIELD_STRIDE = 40


class _Sqrt:
    """The square roots of an array, taken one slice at a time, so that a
    writer holds them for one chunk only."""

    def __init__(self, values: np.ndarray):
        self._values = values

    def __getitem__(self, rows) -> np.ndarray:
        return np.sqrt(self._values[rows])


def _write_rows(paths: list[Path], header: bytes, keys, values: list):
    """CSVs that share their leading columns, one row per value after
    `header`, written one simulate._chunks slice of rows at a time, which
    bounds the text held at once: keys(start, stop) gives those columns' g17
    rows for rows start..stop-1, and paths[i] ends each row with values[i]'s
    (values[0] an array, the others anything a slice of which gives doubles).
    A row is its fields' bytes joined by commas, zeros dropped.  The key columns,
    commas and newlines are laid once per chunk for all the files, and each
    file's values are formatted into the last slot."""
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(create(path)) for path in paths]
        for out in outs:
            out.write(header)
        for rows in _chunks(len(values[0])):
            fields = keys(rows.start, rows.stop)
            text = np.empty((rows.stop - rows.start, len(fields) + 1, WIDTH + 1),
                            dtype=np.uint8)
            for j, field in enumerate(fields):
                text[:, j, :WIDTH] = field
            text[:, :, WIDTH] = ord(",")
            text[:, -1, WIDTH] = ord("\n")
            for out, value in zip(outs, values):
                text[:, -1, :WIDTH] = g17(value[rows])
                out.write(text[text != 0])


def _write_series(paths: list[Path], times: np.ndarray, series: list):
    """`t,value` CSVs, paths[i] holding series[i]; the shared time column is
    formatted one chunk at a time, so that no run's worth of text is held."""
    _write_rows(paths, b"t,value\n", lambda start, stop: (g17(times[start:stop]),), series)


def _write_field(paths: list[Path], x: np.ndarray, times: np.ndarray, fields: list):
    """`x,t,value` CSVs, paths[i] holding fields[i] with one snapshot time per
    row; the shared columns x and times, one value per grid point and per
    snapshot, are formatted once."""
    x, times = g17(x), g17(times)

    def keys(start, stop):
        snapshot, point = np.divmod(np.arange(start, stop), len(x))
        return x[point], times[snapshot]

    _write_rows(paths, b"x,t,value\n", keys, [field.ravel() for field in fields])


def _progress(record: RunRecord) -> list[str]:
    """A run's progress lines, up to its exports."""
    reduced, gains, cert = record.reduced, record.gains, record.certificate
    lines = [f"[{record.config['scenario']['name']}] N0 = {reduced.N0}, "
             f"tail constant = {reduced.tail_constant:.6g}",
             f"  K = {np.array2string(gains.K, precision=6)}  "
             f"L = {np.array2string(gains.L, precision=6)}"]
    if cert is not None:
        lines.append(f"  certificate verified at N = {record.N} (alpha = {cert.alpha}, "
                     f"beta = {cert.beta:.6g}, gamma = {cert.gamma:.6g})")
    elif record.config["design"]["N"] is not None:
        lines.append(f"  no verified certificate for N = {record.N}"
                     " (exact free-P decision at its alpha*)")
    else:
        lines.append(f"  no verified certificate for N <= {record.config['design']['n_max']}"
                     " (exact free-P decision at each order's alpha*)")
    if cert is None:
        lines.append(f"  {cert_mod._unverified(record.search_margins)}")
    lines.append(f"  simulated N_sim = {record.config['sim']['n_sim']}: spectral abscissa = "
                 f"{record.sim.abscissa:.4f}, fitted eta decay rate = {record.decay_rate:.4f}")
    if record.lyapunov is not None:
        lines.append(f"  V e^(2 delta t) max increment = {record.lyapunov.max_increment:.3e}")
    return lines


def _write_csvs(record: RunRecord, out: Path):
    result = record.sim
    series = {"u": result.u, "v": result.v, "eta": result.eta, "zeta": result.zeta,
              "l2_norm": _Sqrt(result.l2_sq), "energy": result.energy_sq}
    if record.lyapunov is not None:
        series["lyapunov"] = record.lyapunov.V
    else:  # no certificate: no V, and no stale lyapunov.csv of an earlier run
        (out / "lyapunov.csv").unlink(missing_ok=True)
    _write_series([out / f"{name}.csv" for name in series], result.times,
                  list(series.values()))
    snap = result.snapshot_steps
    _, z_field, error_field = result.fields(snap, _FIELD_STRIDE)
    _write_field([out / "state_field.csv", out / "error_field.csv"],
                 record.reduced.spectrum.grid[::_FIELD_STRIDE], result.times[snap],
                 [z_field, error_field])


def _report(record: RunRecord) -> dict:
    plant_cfg, sim_cfg = record.config["plant"], record.config["sim"]
    reduced, gains, cert, result = record.reduced, record.gains, record.certificate, record.sim
    return {
        "name": record.config["scenario"]["name"],
        "plant": {"p": plant_cfg["p"], "q": plant_cfg["q"], "q_c": plant_cfg["q_c"],
                  "measurement": plant_cfg["measurement"], "delta": reduced.delta},
        "N0": reduced.N0,
        "tail_constant": reduced.tail_constant,
        "tail_eps": reduced.tail_eps,
        "gains": {"K": [float(v) for v in gains.K], "L": [float(v) for v in gains.L],
                  "controller_poles": list(gains.controller_poles),
                  "observer_poles": list(gains.observer_poles)},
        "certificate_feasible": cert is not None,
        "N_star": None if cert is None else record.N,
        "certificate": None if cert is None else cert.to_dict(),
        "search_margins": {str(k): v for k, v in record.search_margins.items()}
        if record.search_margins else None,
        "simulation": {
            "N": record.N, "N_sim": sim_cfg["n_sim"], "dt": sim_cfg["dt"], "T": sim_cfg["T"],
            "spectral_abscissa": result.abscissa,
            "fitted_decay_rate": record.decay_rate,
            "eta_start": float(result.eta[0]),
            "eta_end": float(result.eta[-1]),
            "lyapunov_max_increment":
                None if record.lyapunov is None else record.lyapunov.max_increment,
        },
    }


def run_scenario(name_or_path: str, n_max: int | None = None,
                 eps: float | None = None, export_sdpa_path: str | None = None,
                 out_dir: str | None = None, quiet: bool = False) -> int:
    """Execute one scenario end to end; returns the process exit code."""
    say = (lambda *a: None) if quiet else print
    try:
        values = _values(name_or_path)  # the flags override the config, as text
        values["design"].update((key, str(flag)) for key, flag
                                in (("n_max", n_max), ("eps", eps)) if flag is not None)
        config = _convert(values, name_or_path)
        out = Path(config["output"]["dir"] if out_dir is None else out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise err.IoFailure(f"cannot create output directory {out}: {exc}") from exc
        record = solve(config)
        if not quiet:  # the progress text is formatted only to be printed
            for line in _progress(record):
                print(line)
        if export_sdpa_path:
            model = assemble_closed_loop(record.reduced, record.gains, record.N)
            alpha = cert_mod.optimal_alpha(record.reduced, record.N)
            cert_mod.export_sdpa(model, record.reduced, alpha, export_sdpa_path)
            say(f"  SDPA export (N = {record.N}, alpha = {alpha:.6g}) -> {export_sdpa_path}")
        try:
            (out / "report.json").unlink(missing_ok=True)  # a failed CSV write leaves no report
            _write_csvs(record, out)
            with create(out / "report.json") as report:
                report.write((_to_json(_report(record)) + "\n").encode("utf-8"))
        except OSError as exc:
            raise err.IoFailure(f"cannot write to output directory {out}: {exc}") from exc
        say(f"  report -> {out / 'report.json'}")
        return EXIT_OK if record.certificate is not None else EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - runner boundary
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return ERROR_EXIT_CODES.get(type(exc), EXIT_ERROR)


def _help_epilog() -> str:
    rows = [f"  {cls.__name__:<22} {code}" for cls, code in ERROR_EXIT_CODES.items()]
    return (
        "presets:\n  " + "\n  ".join(sorted(PRESETS)) + "\n\n"
        "exit codes:\n"
        "  success                0\n"
        "  unexpected error       1\n"
        "  infeasible certificate 2\n" + "\n".join(rows) + "\n"
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
