"""The four benchmark workloads and the correctness checks on their outputs.

Every workload is driven through the public ``specstab`` API, one iteration
at a time.  ``prepare`` builds a workload's inputs from the seed in a work
directory; ``iterate`` runs one iteration and returns an ``Outcome``;
``check`` validates the first outcome in full (paper gains, certificate
re-verification, decay rate, SDPA round trip, sweep norms).  Every later
outcome must reproduce the first one's bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import specstab as ss
from specstab import cli
from specstab.sdpa import read_sdpa

HERE = Path(__file__).resolve().parent

#: paper gains (K, L), reproduced to 1e-3
PAPER_GAINS = {
    "dirichlet-example": ([-5.0058, -2.7748], [1.4373]),
    "neumann-example": ([-4.5649, -0.9653], [0.3670]),
}
GAIN_TOL = 1e-3


@dataclass(frozen=True)
class Outcome:
    """What one iteration produced: exit code, a digest of the compared
    bytes, and the sizes of what it wrote."""

    rc: int
    digest: str
    output_bytes: int = 0
    sdpa_bytes: int = 0


@dataclass
class Scenario:
    """``cli.run_scenario`` on a preset or on a config file."""

    scenario: str                       # preset name, or config template file
    n_max: int = 10
    weight: tuple[float, ...] = ()      # c(x) coefficients of a bounded measurement
    export_sdpa: bool = False
    ok_codes: tuple[int, ...] = (0,)
    seeded_z0: bool = False
    out: Path | None = None
    sdpa: Path | None = None
    source: str = ""

    def prepare(self, work: Path, seed: int) -> None:
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.sdpa = work / "problem.dat-s" if self.export_sdpa else None
        self.source = self.scenario
        if self.seeded_z0:
            # z0 = 1 + a x^2 + b x^3: flat at x = 0 as the bounded measurement
            # requires; u0 = z0(1) stays "auto"
            rng = np.random.default_rng(seed)
            a, b = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.25, 0.25))
            text, hits = re.subn(r"(?m)^z0\s*=.*$", f"z0 = 1, 0, {a!r}, {b!r}",
                                 (HERE / self.scenario).read_text())
            if hits != 1:
                raise ValueError(f"{self.scenario} must hold exactly one z0 line")
            config = work / self.scenario
            config.write_text(text)
            self.source = str(config)

    def iterate(self) -> Outcome:
        report = self.out / "report.json"
        for stale in (report, self.sdpa):
            if stale is not None:
                stale.unlink(missing_ok=True)
        rc = cli.run_scenario(self.source, out_dir=str(self.out), quiet=True,
                              export_sdpa_path=str(self.sdpa) if self.sdpa else None)
        if not report.exists():
            return Outcome(rc=rc, digest="")
        compared = report.read_bytes()
        sdpa_bytes = 0
        if self.sdpa is not None and self.sdpa.exists():
            exported = self.sdpa.read_bytes()
            compared += exported
            sdpa_bytes = len(exported)
        written = sum(f.stat().st_size for f in self.out.iterdir())
        return Outcome(rc=rc, digest=hashlib.sha256(compared).hexdigest(),
                       output_bytes=written + sdpa_bytes, sdpa_bytes=sdpa_bytes)

    def report(self) -> dict:
        return json.loads((self.out / "report.json").read_text())

    def certified_order(self) -> int:
        n_star = self.report()["N_star"]
        return self.n_max + 1 if n_star is None else int(n_star)

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.rc not in self.ok_codes:
            return [f"exit code {outcome.rc}, expected one of {self.ok_codes}"]
        if not outcome.digest:
            return ["no report.json written"]
        rep = self.report()
        errors = []
        if (outcome.rc == 0) != bool(rep["certificate_feasible"]):
            errors.append(f"exit code {outcome.rc} disagrees with certificate_feasible")
        if rep["certificate_feasible"]:
            if not isinstance(rep["N_star"], int) or rep["certificate"] is None:
                errors.append("certified report lacks N_star or certificate")
            elif not self._reverified(rep):
                errors.append(f"certificate at N = {rep['N_star']} fails verify_certificate")
        elif rep["N_star"] is not None or rep["certificate"] is not None \
                or not rep["search_margins"]:
            errors.append("uncertified report must carry search margins and no certificate")
        if rep["name"] in PAPER_GAINS:
            K, L = PAPER_GAINS[rep["name"]]
            got_K, got_L = rep["gains"]["K"], rep["gains"]["L"]
            if len(got_K) != len(K) or len(got_L) != len(L) or max(
                    abs(g - e) for g, e in zip(got_K + got_L, K + L)) > GAIN_TOL:
                errors.append(f"gains K = {got_K}, L = {got_L} differ from the paper's "
                              f"K = {K}, L = {L} by more than {GAIN_TOL}")
        rate = rep["simulation"]["fitted_decay_rate"]
        if not (isinstance(rate, (int, float)) and rate >= rep["plant"]["delta"]):
            errors.append(f"fitted decay rate {rate} is below delta = {rep['plant']['delta']}")
        if self.sdpa is not None:
            errors += _sdpa_round_trip(self.sdpa)
        return errors

    def _reverified(self, rep: dict) -> bool:
        """Rebuild the certified model the way the scenario runner does and
        re-run verify_certificate on the reported (P, alpha, beta, gamma)."""
        plant_rep = rep["plant"]
        p, q = plant_rep["p"], plant_rep["q"]
        kind = plant_rep["measurement"]
        if kind == ss.BOUNDED:
            c = np.asarray(self.weight)
            measurement = ss.MeasurementSpec.bounded(
                lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c))
        else:
            measurement = ss.MeasurementSpec(kind)
        coeffs = ss.CoefficientPair.from_polynomials(p, q)
        plant = ss.PlantSpec(coeffs=coeffs, q_c=plant_rep["q_c"], measurement=measurement,
                             delta=plant_rep["delta"])
        n_sim = rep["simulation"]["N_sim"]
        n_modes = max(n_sim, self.n_max) + 1
        if p == [1] and q == [0]:
            spectrum = ss.analytic_spectrum(plant.boundary, n_modes)
        else:
            grid = max(2000, 40 * n_modes)
            spectrum = ss.solve_spectrum(coeffs, plant.boundary, n_modes, grid + grid % 2)
        cert = ss.Certificate.from_dict(rep["certificate"])
        gains = ss.design_gains(ss.reduce(plant, spectrum, n_sim, eps=cert.eps))
        reduced = ss.reduce(plant, spectrum, cert.N, eps=cert.eps)
        model = ss.assemble_closed_loop(reduced, gains, cert.N)
        return ss.verify_certificate(model, reduced, cert.P, cert.alpha, cert.beta,
                                     cert.gamma, cert.eps).feasible


def _sdpa_round_trip(path: Path) -> list[str]:
    """The export must parse, match its own dimensions and re-write byte for byte."""
    prob = read_sdpa(path)
    n = prob.block_sizes[0] - 1
    errors = []
    if prob.m_dim != n * (n + 1) // 2 + 2:
        errors.append(f"SDPA m_dim {prob.m_dim} does not fit a {n}x{n} P plus beta, gamma")
    again = path.with_name(path.name + ".again")
    prob.write(again)
    if again.read_bytes() != path.read_bytes():
        errors.append("SDPA file does not round-trip through read_sdpa")
    again.unlink()
    return errors


@dataclass
class NormSweep:
    """``lyapunov_norm_sweep`` on the neumann plant over high orders."""

    n_list: tuple[int, ...] = (10, 20, 30, 40)
    n_modes: int = 51
    norms: np.ndarray | None = None

    def prepare(self, work: Path, seed: int) -> None:
        """The sweep has no seeded input: the plant and the orders are fixed."""

    def iterate(self) -> Outcome:
        plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                             measurement=ss.MeasurementSpec.neumann(), delta=0.5)
        spectrum = ss.analytic_spectrum(plant.boundary, self.n_modes)
        self.norms = ss.lyapunov_norm_sweep(plant, spectrum, N_list=self.n_list)
        return Outcome(rc=0, digest=hashlib.sha256(self.norms.tobytes()).hexdigest())

    def certified_order(self) -> int:
        # the sweep searches no certificate: report the no-certificate value
        # n_max + 1 of the neumann preset's default n_max = 10
        return 11

    def check(self, outcome: Outcome) -> list[str]:
        norms = self.norms
        if norms is None or norms.shape != (len(self.n_list),):
            return [f"expected {len(self.n_list)} norms, got {norms}"]
        if not (np.all(np.isfinite(norms)) and np.all(norms > 0)):
            return [f"norms must be finite and positive: {norms.tolist()}"]
        if norms.max() / norms.min() >= 5.0:
            return [f"norm ratio max/min = {norms.max() / norms.min():.3f} is not below 5"]
        return []


WHY = {
    "dirichlet-preset": "certificate grid search that stops early at N = 8: "
                        "verify_certificate dominates; nothing else is heavy",
    "neumann-preset": "exhaustive certificate search that finds nothing (exit 2) "
                      "plus the SDPA export: the path exact search and free-P work change",
    "varcoef-fine": "variable coefficients: finite-difference spectrum on 16080 intervals, "
                    "a 30001-step simulation and CSV writers; certificate work stays small",
    "lyap-highorder": "dense Kronecker lyapunov_solve at n = 21..81, the only workload "
                      "where it dominates, and the memory-heavy one",
}


def make(name: str):
    """A fresh workload object by name."""
    if name == "dirichlet-preset":
        return Scenario("dirichlet-example")
    if name == "neumann-preset":
        return Scenario("neumann-example", export_sdpa=True, ok_codes=(0, 2))
    if name == "varcoef-fine":
        return Scenario("varcoef-fine.cfg", weight=(1.0,), seeded_z0=True)
    if name == "lyap-highorder":
        return NormSweep()
    raise KeyError(name)


NAMES = tuple(WHY)
