"""Spans around the package's public module-level functions, from outside.

`Tracer.install` wraps every public function defined in a ``hrerank``
module and rebinds the wrapper in every ``hrerank`` module namespace that
holds the original, because the modules import each other's functions with
``from .x import y``.  A span is recorded only while an operation id is set,
so the benchmark's own calls (input building, the oracle) stay untraced.
Spans are kept in memory and written out once the run ends.

Counts come from call counts and from the objects the functions return; a
function that a later version of the package no longer has simply records
nothing.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

_TOKEN = re.compile(r"[^\s,]+")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hrerank" or name.startswith("hrerank."))]


def _tokens(text: str) -> int:
    return sum(len(_TOKEN.findall(line.split("#", 1)[0])) for line in text.splitlines())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._direct_systems: dict[int, object] = {}

    def install(self) -> None:
        labels = {}
        modules = _package_modules()
        for mod in modules:
            short = mod.__name__.removeprefix("hrerank").lstrip(".") or "hrerank"
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    labels[obj] = f"{short}.{name}"
        wrappers = {fn: self._wrap(fn, label) for fn, label in labels.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._rebound.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._rebound):
            setattr(mod, name, original)
        self._rebound.clear()

    def begin(self, op: int) -> None:
        self.op = op
        self._direct_systems.clear()

    def end(self) -> None:
        self.op = None
        self._direct_systems.clear()

    def _wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            span = Span(sid, label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                tracer._observe(label, args, None, exc)
                raise
            finally:
                tracer._stack.pop()
            span.end = time.perf_counter()
            tracer._observe(label, args, result, None)
            return result

        return traced

    def _observe(self, label, args, result, exc) -> None:
        """Count metrics read from arguments and returned objects."""
        c = self.counts
        if label == "matrix_core.parse_matrix" and args:
            c["parse_matrix.tokens"] += _tokens(args[0])
        elif label == "hre_solver.build_system" and exc is None:
            self._direct_systems[id(result)] = result
        elif label == "hre_solver.solve_linear":
            if type(exc).__name__ == "SingularSystemError":
                c["solve_linear.singular"] += 1
            if args and id(args[0]) in self._direct_systems:
                c["direct.attempted"] += 1
                tol = getattr(sys.modules.get("hrerank.hre_solver"), "ADMISSIBLE_TOL", 1e-9)
                if exc is None and min(result, default=1.0) > tol:
                    c["direct.accepted"] += 1
        elif exc is not None:
            return
        elif label == "hre_solver.hre_rank":
            c[f"path.{result.path}"] += 1
        elif label == "hre_solver.jacobi_iterate":
            c["jacobi.runs"] += 1
            c["jacobi.iterations"] += len(result.iterates)
            c["jacobi.converged"] += bool(result.converged)
        elif label == "baselines.principal_eigen":
            c["principal_eigen.iterations"] += result.iterations
        elif label == "diagnostics.inconsistency_report":
            c["triads_evaluated"] += result.triads_evaluated
        elif label == "diagnostics.cop_check":
            c["cop_check.quadruples"] += result.quadruples_checked

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per function label."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_s, calls = defaultdict(float), Counter()
        for s in self.spans:
            self_s[s.name] += (s.end - s.start) - child_time[s.id]
            calls[s.name] += 1
        return self_s, calls

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]
