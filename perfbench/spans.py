"""In-memory span tracer around the public functions of each specstab layer.

While a ``Tracer`` is recording, every name in a loaded ``specstab`` module
(the package namespace included) that is bound to one of the ``TRACED``
functions is rebound to a timing wrapper.  Names are matched by object
identity, so aliases such as ``reduce as reduce_plant`` in ``cli`` and the
module-global lookups inside ``certificate`` are caught.  The original objects
are put back when recording stops, so the library runs untouched outside the
traced iterations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: traced public functions per layer module
TRACED = {
    "sturm_liouville": ("analytic_spectrum", "solve_spectrum"),
    "homogenize": ("reduce",),
    "synthesis": ("design_gains", "assemble_closed_loop"),
    "certificate": ("minimal_N", "search_certificate", "verify_certificate",
                    "lyapunov_solve", "lyapunov_norm_sweep", "export_sdpa"),
    "simulate": ("assemble_sim", "run", "lyapunov_trace", "fit_decay"),
    "cli": ("run_scenario",),
}


#: span attributes (N, alpha, n) read from a call's arguments
_ATTRS = {
    "certificate.search_certificate":
        lambda model, reduced, query: (model.N, query.alpha, model.dim),
    "certificate.verify_certificate":
        lambda model, reduced, P, alpha, *a, **k: (model.N, alpha, model.dim),
    "certificate.export_sdpa":
        lambda model, reduced, alpha, *a, **k: (model.N, alpha, model.dim),
    "certificate.lyapunov_solve": lambda F, delta: (None, None, F.shape[0]),
    "homogenize.reduce": lambda plant, spectrum, N, *a, **k: (N, None, None),
    "synthesis.assemble_closed_loop": lambda reduced, gains, N: (N, None, None),
    "simulate.assemble_sim": lambda reduced, gains, N, N_sim: (N, None, None),
}

#: counters read from a call's result; byte figures are computed, not sampled
_RESULT_COUNTS = {
    "certificate.verify_certificate": lambda cert: {"feasible": int(cert.feasible)},
    "sturm_liouville.solve_spectrum": lambda sp: {"eigvec_bytes": sp.eigenfunctions.nbytes},
    "simulate.run": lambda res: {
        "steps": res.times.size - 1,
        "traj_bytes": res.times.size * (1 + res.N_sim + res.N) * 8,
    },
}

_NO_ATTRS = (None, None, None)


def _call_attrs(attrs, args, kwargs) -> tuple:
    """Span attributes of one call; none when the signature no longer fits."""
    if attrs is None:
        return _NO_ATTRS
    try:
        return attrs(*args, **kwargs)
    except (TypeError, AttributeError):
        return _NO_ATTRS


class Tracer:
    """Keeps spans ``[name, start, end, parent, iteration, N, alpha, n]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"specstab.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:  # a later version may drop a function
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))

    def _wrap(self, name, fn):
        attrs = _ATTRS.get(name)
        result_counts = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.iteration, *_call_attrs(attrs, args, kwargs)]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if result_counts is not None:
                for key, value in result_counts(result).items():
                    self.counts[(self.iteration, f"{name}.{key}")] += value
            return result

        return wrapper

    @contextmanager
    def recording(self, iteration: int):
        """Trace one iteration; originals are restored even if it raises."""
        self.iteration = iteration
        for modname, module in list(sys.modules.items()):
            if modname != "specstab" and not modname.startswith("specstab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()
            self._stack.clear()

    def layer_stats(self, iteration: int) -> dict[str, float]:
        """Totals for one iteration: ``<fn>.s``, ``<fn>.self_s``, ``<fn>.calls``,
        ``<fn>.max_n`` and the result counters, keyed by ``layer.function``."""
        stats: dict[str, float] = defaultdict(float)
        child_s: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == iteration]
        for _, (_, start, end, parent, *_rest) in mine:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _parent, _it, _N, _alpha, n) in mine:
            stats[f"{name}.s"] += end - start
            stats[f"{name}.self_s"] += end - start - child_s[i]
            stats[f"{name}.calls"] += 1
            if n is not None:
                stats[f"{name}.max_n"] = max(stats[f"{name}.max_n"], n)
        for (it, key), value in self.counts.items():
            if it == iteration:
                stats[key] += value
        return stats

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        keys = ("name", "start", "end", "parent", "iteration", "N", "alpha", "n")
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(keys, span))
                record["start"] = round(record["start"] - t0, 7)
                record["end"] = round(record["end"] - t0, 7)
                fh.write(json.dumps({k: v for k, v in record.items() if v is not None}) + "\n")
