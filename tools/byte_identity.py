"""Run the five byte-identity inputs through one checkout and keep every output.

    python tools/byte_identity.py CHECKOUT OUTDIR

CHECKOUT is a specstab source tree (its src/ is imported); OUTDIR receives one
directory per input with its CSVs, report.json and SDPA export, and
exit_codes.txt.  Two checkouts give the same bytes when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  The inputs are the same for every checkout: they are built
here, and only the configuration of the varcoef-fine benchmark workload is
read from this tree's perfbench/ (its z0 line replaced by the seed-1 z0, as
perfbench/workloads.py does).  Run the two checkouts at one BLAS thread count:
a threaded product can round differently at another.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent

#: the bounded-measurement config of tests/test_cli.py, without its output dir
BOUNDED_CONFIG = """[scenario]
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
z0 = 1, 0, 1
"""


def varcoef_fine_config(seed: int = 1) -> str:
    """perfbench/varcoef-fine.cfg with the z0 that the benchmark draws from seed."""
    rng = np.random.default_rng(seed)
    a, b = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.25, 0.25))
    text, hits = re.subn(r"(?m)^z0\s*=.*$", f"z0 = 1, 0, {a!r}, {b!r}",
                         (HERE / "perfbench" / "varcoef-fine.cfg").read_text())
    if hits != 1:
        raise ValueError("varcoef-fine.cfg must hold exactly one z0 line")
    return text


def inputs(presets: dict) -> dict[str, tuple[str, int | None]]:
    """Each input's name, its preset name or config text, and its n_max flag."""
    dirichlet_10, hits = re.subn(r"(?m)^q_c\s*=.*$", "q_c = 10", presets["dirichlet-example"])
    if hits != 1:
        raise ValueError("the dirichlet-example preset must hold exactly one q_c line")
    return {
        "dirichlet-example": ("dirichlet-example", None),
        "neumann-example": ("neumann-example", None),
        "varcoef-fine": (varcoef_fine_config(), None),
        "bounded-small": (BOUNDED_CONFIG, None),
        "dirichlet-qc10": (dirichlet_10, 40),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="source tree whose src/ is run")
    parser.add_argument("outdir", type=Path, help="directory for the outputs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from specstab import cli

    codes = []
    with tempfile.TemporaryDirectory() as configs:
        for name, (source, n_max) in inputs(cli.PRESETS).items():
            if source not in cli.PRESETS:
                path = Path(configs) / f"{name}.cfg"
                path.write_text(source)
                source = str(path)
            out = args.outdir / name
            out.mkdir(parents=True, exist_ok=True)
            code = cli.run_scenario(source, n_max=n_max, export_sdpa_path=str(out / "problem.dat-s"),
                                    out_dir=str(out), quiet=True)
            codes.append(f"{name} {code}\n")
    (args.outdir / "exit_codes.txt").write_text("".join(codes))
    sys.stdout.write("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
