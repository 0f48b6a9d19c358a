"""specstab benchmark: four closed-loop workloads against the public API.

Usage, from the root of a source checkout (needs numpy and scipy)::

    python3 perfbench/run.py --workload dirichlet-preset --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One client in one process runs iterations back to back: one untimed warm-up
iteration, then timed iterations until ``--seconds`` have passed (at least
``MIN_ITERATIONS``).  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a separate traced run (see
``spans.py``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``perfbench-detail``) carries quartiles, sample counts, failures and
provenance, and is also written under ``perfbench/.work``.  BLAS threading is
left at the user's default and recorded, not pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_ITERATIONS = 2
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics: name -> unit
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "certified_order": "count"}

#: per-layer metrics: name -> unit; ``s``/``us`` are medians over traced
#: iterations, every other unit is an exact per-iteration figure
PER_LAYER = {
    "certificate.verify_certificate.s": "s",
    "certificate.verify_certificate.calls": "count",
    "certificate.verify_certificate.us_per_call": "us",
    "certificate.verify_certificate.feasible_ratio": "ratio",
    "certificate.search_certificate.s": "s",
    "certificate.search_certificate.self_s": "s",
    "certificate.search_certificate.calls": "count",
    "certificate.minimal_N.s": "s",
    "certificate.lyapunov_solve.s": "s",
    "certificate.lyapunov_solve.calls": "count",
    "certificate.lyapunov_solve.max_n": "count",
    "certificate.lyapunov_norm_sweep.s": "s",
    "certificate.export_sdpa.s": "s",
    "sdpa.bytes": "B",
    "sturm_liouville.solve_spectrum.s": "s",
    "sturm_liouville.solve_spectrum.calls": "count",
    "sturm_liouville.eigvec_mb": "MiB",
    "sturm_liouville.analytic_spectrum.s": "s",
    "homogenize.reduce.s": "s",
    "homogenize.reduce.calls": "count",
    "synthesis.design_gains.s": "s",
    "synthesis.assemble_closed_loop.s": "s",
    "synthesis.assemble_closed_loop.calls": "count",
    "simulate.run.s": "s",
    "simulate.run.steps": "count",
    "simulate.traj_mb": "MiB",
    "simulate.lyapunov_trace.s": "s",
    "simulate.assemble_sim.s": "s",
    "simulate.fit_decay.s": "s",
    "cli.run_scenario.s": "s",
    "cli.run_scenario.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}

MIB = 1024.0 * 1024.0


def _package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _load_package():
    """Import specstab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("SPECSTAB_OUT", None)  # it would redirect outputs out of WORK
    try:
        import specstab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import specstab from {SRC}: {exc}")
    if SRC not in Path(specstab.__file__).resolve().parents:
        sys.exit(f"perfbench: specstab came from {specstab.__file__}, not {SRC}")


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, why: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "specstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "why": why,
    }


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import specstab; the first,
    untimed import fills the bytecode and file caches."""
    cmd = [sys.executable, "-c", "import specstab"]
    env = _package_env()
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
        if i:
            times.append(perf_counter() - t0)
    return times


class Session:
    """One workload's iterations, with failures counted against attempts."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.wl = workloads.make(name)
        self.why = workloads.WHY[name]
        self.wl.prepare(WORK / name / "main", seed)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record_error(self, message: str) -> None:
        if len(self.errors) < 20:  # keep the report readable
            self.errors.append(message)

    def iteration(self, run):
        """Run one iteration through ``run`` (a callable taking the iteration);
        returns (seconds, outcome), or None if it raised or failed a check."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            outcome = run(self.wl.iterate)
        except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
            self.failed += 1
            self.record_error(traceback.format_exc(limit=3))
            return None
        seconds = perf_counter() - t0
        if self.reference is None:
            problems = self.wl.check(outcome)
            self.reference = outcome
        elif outcome.digest != self.reference.digest or outcome.rc != self.reference.rc:
            problems = [f"iteration {self.attempted}: output differs from the first iteration "
                        f"(rc {outcome.rc} vs {self.reference.rc})"]
        else:
            problems = []
        if problems:
            self.failed += 1
            for problem in problems:
                self.record_error(problem)
            return None
        return seconds, outcome

    def timed_loop(self, seconds: float) -> list:
        """Iterations until the next one would end past ``seconds``, judged
        by the last one's length, and at least MIN_ITERATIONS."""
        results = []
        start = perf_counter()
        tried, last_s = 0, 0.0
        while tried < MIN_ITERATIONS or perf_counter() - start + last_s <= seconds:
            tried += 1
            t0 = perf_counter()
            res = self.iteration(lambda it: it())
            last_s = perf_counter() - t0
            if res is not None:
                results.append(res)
        return results


def end_to_end(name: str, seed: int, seconds: float):
    setup = measure_setup()
    session = Session(name, seed)
    peak_rss_mb = []

    def warm_up(iterate):
        # this process is a fresh interpreter, so its peak after the first
        # iteration is the peak of a fresh process that runs one iteration
        outcome = iterate()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        peak_rss_mb.append(peak_kib / 1024.0)
        return outcome

    session.iteration(warm_up)  # also the checked reference
    timed = session.timed_loop(seconds)
    run_s = _quartiles([s for s, _ in timed]) if timed else None
    values = {
        "run_s": run_s["median"] if run_s else math.nan,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb[0] if peak_rss_mb else math.nan,
        "certified_order": session.wl.certified_order() if session.reference else math.nan,
    }
    detail = {"run_s": run_s, "setup_s": _quartiles(setup)}
    return session, values, END_TO_END, detail


def per_layer(name: str, seed: int, seconds: float):
    from spans import Tracer

    session = Session(name, seed)
    session.iteration(lambda it: it())  # warm-up, also the checked reference
    tracer = Tracer()
    traced_iterations = []

    def traced(iterate):
        i = len(traced_iterations)
        traced_iterations.append(None)  # stays None if the iteration raises
        with tracer.recording(i):
            traced_iterations[i] = iterate()
        return traced_iterations[i]

    # untraced and traced iterations alternate, so drift hits both alike
    plain, traced_runs = [], []
    end = perf_counter() + seconds
    while len(traced_iterations) < MIN_ITERATIONS or perf_counter() < end:
        for runs, run in ((plain, lambda it: it()), (traced_runs, traced)):
            res = session.iteration(run)
            if res is not None:
                runs.append(res)
    per_iteration = []
    for i, outcome in enumerate(traced_iterations):
        if outcome is None:
            continue
        st = tracer.layer_stats(i)
        verify_calls = st["certificate.verify_certificate.calls"]
        st.update({
            "certificate.verify_certificate.us_per_call":
                1e6 * st["certificate.verify_certificate.s"] / verify_calls if verify_calls else 0.0,
            "certificate.verify_certificate.feasible_ratio":
                st["certificate.verify_certificate.feasible"] / verify_calls if verify_calls else 0.0,
            "sdpa.bytes": outcome.sdpa_bytes,
            "sturm_liouville.eigvec_mb": st["sturm_liouville.solve_spectrum.eigvec_bytes"] / MIB,
            "simulate.traj_mb": st["simulate.run.traj_bytes"] / MIB,
            "cli.output_bytes": outcome.output_bytes,
        })
        per_iteration.append(st)
    values = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            continue
        column = [st[metric] for st in per_iteration]
        if not column:
            values[metric] = math.nan
        elif unit in ("s", "us"):
            values[metric] = statistics.median(column)
        else:
            if len(set(column)) != 1:
                session.record_error(f"{metric} differs between traced iterations: {column}")
            values[metric] = int(column[0]) if unit in ("count", "B") else column[0]
    plain_s = statistics.median(s for s, _ in plain) if plain else math.nan
    traced_s = statistics.median(s for s, _ in traced_runs) if traced_runs else math.nan
    values["trace.overhead_s"] = traced_s - plain_s
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    detail = {"untraced_run_s": _quartiles([s for s, _ in plain]) if plain else None,
              "traced_run_s": _quartiles([s for s, _ in traced_runs]) if traced_runs else None,
              "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return session, values, PER_LAYER, detail


def run_workload(name: str, seed: int, seconds: float, trace: int):
    measure = per_layer if trace else end_to_end
    session, values, units, detail = measure(name, seed, seconds)
    result = {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        # a value is missing (null) only when every iteration failed
        "metrics": {m: {"value": values[m] if math.isfinite(values[m]) else None, "unit": u}
                    for m, u in units.items()},
    }
    detail.update({
        "workload": name, "trace": trace,
        "failed_ops": session.failed / max(session.attempted, 1),
        "errors": session.errors,
        "provenance": provenance(seed, session.why),
    })
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    return result, detail


def _table(rows) -> str:
    head = f"{'workload':<17}{'run_s (q1..q3, n)':>30}{'setup_s':>10}" \
           f"{'peak_rss_mb':>13}{'certified_order':>17}{'failed_ops':>12}"
    lines = [head]
    for name, result, detail in rows:
        m = {k: math.nan if v["value"] is None else v["value"]
             for k, v in result["metrics"].items()}
        r = detail["run_s"] or {"q1": math.nan, "q3": math.nan, "samples": 0}
        lines.append(
            f"{name:<17}{m['run_s']:>9.3f} s ({r['q1']:.3f}..{r['q3']:.3f}, {r['samples']:>2})"
            f"{m['setup_s']:>8.3f} s{m['peak_rss_mb']:>9.1f} MiB{m['certified_order']:>17.0f}"
            f"{detail['failed_ops']:>12.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_package()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES + ("all",):
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    if args.workload != "all":
        result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("perfbench-detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0
    rows = []
    for name in workloads.NAMES:
        result, detail = run_workload(name, args.seed, args.seconds, 0)
        print("perfbench-detail " + json.dumps(detail), flush=True)
        rows.append((name, result, detail))
    print(_table(rows))
    print(json.dumps({
        "correct": all(r["correct"] for _, r, _ in rows),
        "attempted": sum(r["attempted"] for _, r, _ in rows),
        "failed": sum(r["failed"] for _, r, _ in rows),
        "metrics": {f"{name}/{m}": v for name, r, _ in rows for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
