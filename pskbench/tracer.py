"""Per-layer call counts and self times, recorded from outside the program.

``Tracer.install`` replaces each traced public function by a timing wrapper
in every pskrates module that holds a reference to it (the defining module
and every module that imported the name), and ``numpy.linalg.eigh`` /
``eigvalsh`` in numpy itself; ``uninstall`` puts the originals back. A
span's self time is its duration minus the time of the traced spans nested
inside it, so self times add up to the traced wall time without double
counting.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict

import numpy as np

#: metric prefix -> (module, function names); the prefix names the layer.
TRACED = {
    "cli": ("pskrates.cli", ("main",)),
    "rates": ("pskrates.rates", ("optimize_rate",)),
    "optimize": ("pskrates.optimize", ("nelder_mead",)),
    "entropies": ("pskrates.entropies", (
        "sandwiched_up_invariant", "continuity_bound", "von_neumann_cq",
        "entropy_variance_cq", "petz_down_cq", "petz_up_cq", "sandwiched_down_cq",
        "bpsk_closed_forms", "sandwiched_up_general", "petz_down_general",
        "petz_up_general", "sandwiched_down_general")),
    "states": ("pskrates.states", ("build_ensemble", "cond_prob_table")),
    "linalg": ("pskrates.linalg", ("matrix_power", "matrix_log2", "partial_trace")),
    "oracles": ("pskrates.oracles", (
        "sample_homodyne_bpsk", "sample_heterodyne_qpsk", "duality_suite", "erf_oracle")),
    "rng": ("pskrates.rng", ("normals",)),
}
#: the three estimators are reported together as one objective span
OBJECTIVE = ("rate_s", "rate_aep", "rate_b")
EIGEN = ("eigh", "eigvalsh")

SPANS = ([f"{layer}.{fn}" for layer, (_, fns) in TRACED.items() for fn in fns]
         + ["rates.objective", "kernel.eigh"])
COUNTS = ["cli.csv_bytes", "optimize.nelder_mead.iterations", "optimize.nelder_mead.evals",
          "entropies.convergence_warnings", "kernel.eigh.matrices", "rng.normals.deviates"]


def _dim(args):
    """N of an ensemble or protocol argument, else the size of a matrix argument."""
    first = args[0] if args else None
    n = getattr(first, "n_states", None)
    if n is None and isinstance(first, np.ndarray) and first.ndim >= 2:
        n = first.shape[-1]
    return n


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside pskrates.entropies."""

    def __init__(self, tracer, category):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is not None and issubclass(category, self._category):
            self._tracer.counts["entropies.convergence_warnings"] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self):
        self.counts = defaultdict(float)
        self.converged_runs = 0
        self.by_dim = defaultdict(lambda: [0, 0.0, 0.0])  # (span, dim) -> calls, self, total
        self._children = []  # time of traced children, one slot per open span
        self._restore = []

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                per_dim = self.by_dim[name, _dim(args)]
                per_dim[0] += 1
                per_dim[1] += elapsed - child
                per_dim[2] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "pskrates" or mod_name.startswith("pskrates.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _nelder_mead(self, fn):
        counts = self.counts

        def run(objective, *args, **kwargs):
            def counted(x):
                counts["optimize.nelder_mead.evals"] += 1
                return objective(x)
            result = fn(counted, *args, **kwargs)
            counts["optimize.nelder_mead.iterations"] += result.iterations
            self.converged_runs += bool(result.converged)
            return result
        return run

    def install(self):
        for layer, (mod_name, fns) in TRACED.items():
            module = sys.modules[mod_name]
            for fn_name in fns:
                original = getattr(module, fn_name)
                inner = self._nelder_mead(original) if fn_name == "nelder_mead" else original
                after = self._count_deviates if fn_name == "normals" else None
                self._patch_everywhere(original, self._wrap(f"{layer}.{fn_name}", inner, after))
        rates = sys.modules["pskrates.rates"]
        for fn_name in OBJECTIVE:
            original = getattr(rates, fn_name)
            self._patch_everywhere(original, self._wrap("rates.objective", original))
        for fn_name in EIGEN:
            original = getattr(np.linalg, fn_name)
            setattr(np.linalg, fn_name, self._wrap("kernel.eigh", original, self._count_matrices))
            self._restore.append((np.linalg, fn_name, original))
        entropies = sys.modules["pskrates.entropies"]
        self._restore.append((entropies, "warnings", entropies.warnings))
        entropies.warnings = _WarningsProxy(self, entropies.ConvergenceWarning)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _count_matrices(self, args, kwargs, result):
        a = np.asarray(args[0] if args else kwargs["a"])
        self.counts["kernel.eigh.matrices"] += a.size // (a.shape[-1] ** 2)

    def _count_deviates(self, args, kwargs, result):
        self.counts["rng.normals.deviates"] += len(result)

    def per_call_table(self) -> list[str]:
        """Time per call of every span, split by N or matrix dimension."""
        lines = []
        for (name, dim), (calls, self_s, total_s) in sorted(
                self.by_dim.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            label = "" if dim is None else f" dim={dim}"
            lines.append(f"{name}{label}: {calls} calls, {total_s / calls * 1e6:.1f} us/call "
                         f"inclusive, {self_s / calls * 1e6:.1f} us/call self")
        return lines

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, averaged per round."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for (name, _), (n_calls, seconds, _) in self.by_dim.items():
            calls[name] += n_calls
            self_s[name] += seconds
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / rounds, "calls/round")
            out[f"{name}.self_s"] = (self_s[name] / rounds, "s/round")
        for name in COUNTS:
            out[name] = (self.counts[name] / rounds, "count/round")
        runs = calls["optimize.nelder_mead"]
        out["optimize.nelder_mead.converged_ratio"] = (
            self.converged_runs / runs if runs else 0.0, "ratio")
        return out
