"""Per-module self time for the traced benchmark run.

The tracer wraps every public function of each ``bmhull`` module (and the
click entry points of ``bmhull.cli``) and rebinds each wrapper wherever a
``bmhull`` module namespace holds the original, including aliases such as
``mc.normal_angle`` and registries such as ``verify.SUITES``.  A span's self
time is its duration minus the durations of the spans it directly encloses.

Only functions are wrapped: methods of classes such as ``Wedge2D`` or
``Polytope`` count toward the self time of the function that calls them.
Spans are aggregated as they close, so memory stays constant in the number
of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

from spec import MODULES


class Stat:
    __slots__ = ("self_s", "calls", "errors", "tally")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.errors = 0
        self.tally = 0


class Tracer:
    """Aggregated spans keyed by (module, function)."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self._child_time: list[float] = []

    def reset(self) -> None:
        """Zero every span's totals in place; the wrappers hold their Stat."""
        for stat in self.stats.values():
            stat.self_s, stat.calls, stat.errors, stat.tally = 0.0, 0, 0, 0

    def wrap(self, module: str, name: str, fn, tally=None):
        """Wrap fn in a span; tally(result) adds a work count to the span."""
        stat = self.stats.setdefault((module, name), Stat())
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                dur = clock() - t0
                stat.self_s += dur - child_time.pop()
                stat.calls += 1
                if child_time:
                    child_time[-1] += dur
            if tally is not None:
                stat.tally += tally(result)
            return result

        return traced


def _public_functions(module):
    for name, value in vars(module).items():
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == module.__name__):
            yield name, value


def instrument(tracer: Tracer, tallies=None) -> None:
    """Wrap the public functions of every bmhull module and rebind them in
    every bmhull namespace.  Call once, in a process that runs nothing else."""
    import click

    tallies = tallies or {}
    mods = {m: importlib.import_module(f"bmhull.{m}") for m in MODULES}
    wrapped = {}
    for mname, mod in mods.items():
        for fname, fn in _public_functions(mod):
            wrapped[id(fn)] = tracer.wrap(mname, fname, fn, tallies.get((mname, fname)))
    for name, value in vars(mods["cli"]).items():
        if isinstance(value, click.Group):
            value.main = tracer.wrap("cli", name, value.main)
        elif isinstance(value, click.Command):
            value.callback = tracer.wrap("cli", name, value.callback)

    namespaces = [importlib.import_module("bmhull")] + list(mods.values())
    for mod in namespaces:
        ns = vars(mod)
        for name, value in list(ns.items()):
            if id(value) in wrapped:
                ns[name] = wrapped[id(value)]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in wrapped:
                        value[k] = wrapped[id(v)]
