"""Outside-in tracing of semiprop's layers for the traced benchmark run.

The package imports its helpers with ``from .x import y``, so a function
is looked up under the caller's own module name (``semiprop.cli.
evolve_classical``, ``semiprop.cosmo.rk4_solve``, ...).  ``install``
therefore replaces every module attribute that *is* a traced function,
not only the definition.  Each wrapper records one span per call on a
per-thread stack, so the CLI's sweep threads never nest into each other.
Spans stay in memory; ``summarize`` turns them into per-layer metrics
once the run is over.

Tracing is installed only in traced worker processes, never in the ones
whose wall time is reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "invocation", "thread", "parent", "start", "end", "children_s", "counts")

    def __init__(self, name, invocation, parent):
        self.name = name
        self.invocation = invocation
        self.thread = threading.get_ident()
        self.parent = parent
        self.start = self.end = 0.0
        self.children_s = 0.0
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = ""
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        """Call fn(*args, **kwargs) inside a span named ``name``.

        ``count(args, kwargs, result)``, if given, returns the span's counts.
        """
        stack = self._stack()
        span = Span(name, self.invocation, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children_s += span.end - span.start
            self.spans.append(span)
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def _arg(fn, name):
    """Read a named argument of fn from a call's (args, kwargs)."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


def _targets():
    from semiprop import core, cosmo, general_hj, lattice, oracle, quadratic, report

    n_steps_cn = _arg(oracle.cn_evolve, "n_steps")
    n_steps_kg = _arg(lattice.lattice_klein_gordon_check, "n_steps")
    psi0 = _arg(oracle.kernel_propagate, "psi0")
    config = _arg(lattice.lattice_greens_function, "config")
    csv_path = _arg(report.write_csv, "path")
    csv_header = _arg(report.write_csv, "header")
    csv_rows = _arg(report.write_csv, "rows")

    def csv_counts(args, kwargs, result):
        rows = csv_rows(args, kwargs)
        return {
            "rows": len(rows),
            "cells": len(csv_header(args, kwargs)) + sum(len(row) for row in rows),
            "bytes": Path(csv_path(args, kwargs)).stat().st_size,
        }

    return [
        # (module, attribute, span name, counter)
        (core, "rk4_solve", "core.rk4_solve",
         lambda a, k, r: {"steps": len(r[0]) - 1}),
        (core, "finite_difference", "core.finite_difference", None),
        (core, "assemble_propagator", "core.assemble_propagator",
         lambda a, k, r: {"nodes": r.values.size}),
        (quadratic, "solve_prefactor_odes", "quadratic.solve_prefactor_odes", None),
        (cosmo, "evolve_classical", "cosmo.evolve_classical", None),
        (oracle, "cn_evolve", "oracle.cn_evolve",
         lambda a, k, r: {"steps": n_steps_cn(a, k)}),
        (oracle, "kernel_propagate", "oracle.kernel_propagate",
         # the dense complex128 kernel matrix exp(i S / hbar), n_x by n_x
         lambda a, k, r: {"bytes_computed": 16 * psi0(a, k).grid.n_x ** 2}),
        (general_hj, "decoupling_residual", "general_hj", None),
        (general_hj, "exponential_family_residuals", "general_hj", None),
        (general_hj, "imaginary_scaling_probe", "general_hj", None),
        (lattice, "lattice_greens_function", "lattice.lattice_greens_function",
         lambda a, k, r: {"sites": config(a, k).n_sites, "bytes_computed": r.g.nbytes}),
        (lattice, "lattice_operator", "lattice.lattice_operator", None),
        (lattice, "functional_hj_residual", "lattice.functional_hj_residual", None),
        (lattice, "lattice_klein_gordon_check", "lattice.lattice_klein_gordon_check",
         lambda a, k, r: {"steps": n_steps_kg(a, k)}),
        (report, "write_csv", "report.write_csv", csv_counts),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every name the package binds it to."""
    import semiprop.cli as cli
    from semiprop import report

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "semiprop"]
    for module, attr, name, count in _targets():
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    # the CLI reaches these through a module global and a method, not an import
    cli.run_scenario = tracer.wrap("cli.run_scenario", cli.run_scenario)
    report.Report.write_json = tracer.wrap("report.write_json", report.Report.write_json)


def records(spans: list[Span]) -> list[dict]:
    """The spans as plain rows, times relative to the first span's start."""
    index = {id(span): n for n, span in enumerate(spans)}
    origin = min((span.start for span in spans), default=0.0)
    return [
        {
            "name": span.name,
            "invocation": span.invocation,
            "thread": span.thread,
            "parent": index.get(id(span.parent)),
            "start_s": span.start - origin,
            "end_s": span.end - origin,
            "counts": span.counts,
        }
        for span in spans
    ]


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, and summed counts.

    Self time is a span's duration minus the time its child spans (same
    thread, directly nested) cover.  ``run_scenario`` time is also kept
    per invocation, so the sweep threads' overlap can be measured, and the
    layer self time on the main thread (the blocking path) is summed.
    """
    layers: dict = defaultdict(lambda: defaultdict(float))
    by_invocation: dict = defaultdict(float)
    main_thread = threading.main_thread().ident
    main_layer_self = 0.0
    for span in spans:
        duration = span.end - span.start
        layer = layers[span.name]
        layer["calls"] += 1
        layer["total_s"] += duration
        layer["self_s"] += duration - span.children_s
        for key, value in (span.counts or {}).items():
            layer[key] += value
        if span.name == "cli.run_scenario":
            by_invocation[span.invocation] += duration
        if span.thread == main_thread and span.name != "cli.main":
            main_layer_self += duration - span.children_s
    return {
        "layers": {name: dict(values) for name, values in layers.items()},
        "run_scenario_s": dict(by_invocation),
        "main_layer_self_s": main_layer_self,
    }
