"""Layer tracing from outside the package.

`install` rebinds every public function of each mirrorclone layer to a
timing wrapper, in every mirrorclone namespace that holds a reference to
it (so `mirrorclone.cli.optimize_map` and `mirrorclone.cloners.mpcc_params`
are both caught), and returns what it replaced; `uninstall` puts the
originals back.  No file of the package changes.  Spans live in memory
as (name, start_ns, end_ns, parent index) and are summarised or written
out after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("cli", "optimality", "cloners", "fidelity", "circuits", "qcore")

# Not wrapped: `cli.main` is the entry point the benchmark itself calls, and
# `cloners.trace_over_outputs` runs twice per optimizer iteration, where a
# wrapper would add its own cost to every iteration and so to iter_us.
NOT_WRAPPED = {"cli.main", "cloners.trace_over_outputs"}

_ORIGINAL = "__perfbench_original__"


class Tracer:
    """In-memory span recorder with per-function result observers."""

    def __init__(self, observers=None):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._open: list[int] = []
        self.observers = observers or {}

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper


def namespaces(package) -> list:
    """The package and its layer modules: every place a layer function is bound."""
    return [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]


def layer_functions(package):
    """(qualified name, function) for every wrapped public function."""
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(module).items():
            qualname = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and qualname not in NOT_WRAPPED
            ):
                yield qualname, obj


def install(tracer: Tracer, package) -> list:
    """Rebind every layer function to a tracer wrapper; returns the undo list."""
    spaces = namespaces(package)
    replaced = []
    for qualname, fn in list(layer_functions(package)):
        wrapper = tracer.wrap(qualname, fn)
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is fn:
                    setattr(space, attr, wrapper)
                    replaced.append((space, attr, fn))
    return replaced


def uninstall(replaced: list) -> None:
    for space, attr, fn in reversed(replaced):
        setattr(space, attr, fn)


def leftover_wrappers(package) -> list[str]:
    """Names still bound to a tracer wrapper; empty once `uninstall` ran."""
    return [
        f"{space.__name__}.{attr}"
        for space in namespaces(package)
        for attr, value in vars(space).items()
        if hasattr(value, _ORIGINAL)
    ]


def summarise(spans) -> dict:
    """Per-function call counts, durations and self times, and per-layer self time.

    A span's self time is its duration minus the durations of its direct
    children, which run one after another inside it.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    for (name, start, end, _), children in zip(spans, child_ns):
        durations.setdefault(name, []).append(end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - children)
    layer_self_ns = dict.fromkeys(LAYERS, 0)
    for name, ns in self_ns.items():
        layer_self_ns[name.split(".", 1)[0]] += ns
    return {
        "calls": {name: len(d) for name, d in durations.items()},
        "p50_ns": {name: statistics.median(d) for name, d in durations.items()},
        "max_ns": {name: max(d) for name, d in durations.items()},
        "total_ns": {name: sum(d) for name, d in durations.items()},
        "self_ns": self_ns,
        "layer_self_ns": layer_self_ns,
    }
