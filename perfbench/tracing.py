"""Spans around the public functions of each qchsh layer, recorded from outside.

``Tracer.install`` replaces each traced function, in every ``qchsh`` module
that holds a reference to it, with a wrapper that records a span; the suites
in ``qchsh.verify.SUITES`` are wrapped in place.  ``Tracer.uninstall`` puts
the originals back.  Nothing inside the program changes, so time spent in
``numerics`` and in private helpers shows up as self time of the caller.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path

# The public functions the CLI reaches in each layer.
LAYER_FUNCTIONS = {
    "representation": ("build_gellmann_basis",),
    "states": ("ghz_state", "random_two_qudit_state", "load_state_file", "validate_state"),
    "correlation": ("correlation_matrix", "chsh_expectation_direct"),
    "bounds": (
        "chsh_bounds",
        "top_two_gram_eigenvalues",
        "horodecki_two_qubit",
        "ghz_correlation_matrix",
        "ghz_chsh_maximum",
    ),
    "optimizer": ("seesaw_maximize", "ghz_optimal_settings"),
    "verify": ("run_suites",),
}

CLI_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, request]``: ``parent`` is the index
    of the enclosing span or -1, ``request`` the id of the CLI request that
    caused it.  ``sweeps`` maps the index of each ``seesaw_maximize`` span to
    the sweeps and converged flags of its restarts, read from its result.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.sweeps: dict[int, tuple[list[int], list[bool]]] = {}
        self.request: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.request])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if name == "optimizer.seesaw_maximize":
                self.sweeps[index] = (
                    list(result.iterations_per_restart),
                    list(result.converged),
                )
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "qchsh" or n.startswith("qchsh.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"qchsh.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        suites = importlib.import_module("qchsh.verify").SUITES
        for name, fn in list(suites.items()):
            suites[name] = self._wrap(f"verify.{name}", fn)
            self._patches.append((suites, name, fn))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _nearest_rank(values: list[int], p: float) -> int:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)] if ordered else 0


def layer_metrics(spans: list[list], first: int, last: int, sweeps: dict,
                  suite_names) -> dict[str, float]:
    """Per-layer times and counts from ``spans[first:last]``, one pass of the request list.

    A layer's time sums its outermost spans, those whose parent belongs to
    another layer, so nested calls within a layer are not counted twice.
    Self time is a span's duration minus the durations of its child spans.
    """
    window = range(first, last)
    child_time = dict.fromkeys(window, 0.0)
    for i in window:
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start

    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def total(names, outermost=False, self_time=False):
        seconds, calls = 0.0, 0
        for i in window:
            name, start, end, parent, _ = spans[i]
            if name not in names:
                continue
            if outermost and parent >= 0 and layer(spans[parent][0]) == layer(name):
                continue
            seconds += end - start - (child_time[i] if self_time else 0.0)
            calls += 1
        return seconds, calls

    def names_of(layer_name):
        return {f"{layer_name}.{f}" for f in LAYER_FUNCTIONS[layer_name]}

    basis_s, basis_n = total({"representation.build_gellmann_basis"})
    states_s, states_n = total(names_of("states"), outermost=True)
    matrix_s, matrix_n = total({"correlation.correlation_matrix"})
    direct_s, _ = total({"correlation.chsh_expectation_direct"})
    bounds_s, bounds_n = total(names_of("bounds"), outermost=True)
    seesaw_self_s, _ = total({"optimizer.seesaw_maximize"}, self_time=True)
    ghz_settings_s, _ = total({"optimizer.ghz_optimal_settings"})
    suites_s, _ = total({"verify.run_suites"})
    cli_self_s, _ = total({CLI_SPAN}, self_time=True)

    runs = [sweeps[i] for i in window if i in sweeps]
    per_restart = [n for iterations, _ in runs for n in iterations]
    converged = [c for _, flags in runs for c in flags]
    sweeps_total = sum(per_restart)
    metrics = {
        "representation.basis_build_s": basis_s,
        "representation.basis_builds": basis_n,
        "states.build_s": states_s,
        "states.builds": states_n,
        "correlation.matrix_s": matrix_s,
        "correlation.matrix_calls": matrix_n,
        "correlation.direct_s": direct_s,
        "bounds.s": bounds_s,
        "bounds.calls": bounds_n,
        "optimizer.seesaw_self_s": seesaw_self_s,
        "optimizer.sweep_us": 1e6 * seesaw_self_s / sweeps_total if sweeps_total else 0.0,
        "optimizer.ghz_settings_s": ghz_settings_s,
        "optimizer.restarts": len(per_restart),
        "optimizer.sweeps_total": sweeps_total,
        "optimizer.sweeps_p50": _nearest_rank(per_restart, 50),
        "optimizer.sweeps_p90": _nearest_rank(per_restart, 90),
        "optimizer.converged_ratio": sum(converged) / len(converged) if converged else 0.0,
        "verify.suites_s": suites_s,
    }
    for suite in suite_names:
        metrics[f"verify.{suite}_s"] = total({f"verify.{suite}"})[0]
    metrics["cli.self_s"] = cli_self_s
    return metrics
