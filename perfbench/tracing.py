"""Span tracing of the mstd layers from outside the package.

Each traced function is replaced at every module attribute that refers to
it, because callers look names up where they imported them: `verify`
calls `verify.build_graph`, `fib_index_exact` calls `fib_index.decompose`,
`cli` calls `cli.build_report` and `enum.count_mstd`. A span is
(name, start, end, parent); spans stay in memory and are written out when
the run ends. A span's self time is its duration minus the time its child
spans cover (children of one span never overlap: every traced call is made
from the calling thread).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: (module, attribute) of each traced function, grouped by layer; the span
#: name is "<layer>.<attribute>".
TARGETS = (
    ("cli", "main"),
    ("verify", "run_checks"),
    ("enumerate_subsets", "count_mstd"),
    ("enumerate_subsets", "count_avoiding"),
    ("enumerate_subsets", "missing_histogram"),
    ("enumerate_subsets", "containment_violations"),
    ("forbiddance", "build_graph"),
    ("forbiddance", "decompose"),
    ("fib_index", "fib_index_exact"),
    ("fib_index", "count_independent_sets"),
    ("bounds", "build_report"),
    ("bounds", "upper_bound"),
    ("bounds", "lower_bound_odd"),
    ("bounds", "odd_sum_bracket"),
    ("subsets", "sumset"),
    ("subsets", "diffset"),
    ("groups", "half_set"),
)


def group_label(group) -> str:
    """Z10xZ2 for the group with factors (10, 2)."""
    return "x".join(f"Z{a}" for a in group.factors) or "Z1"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    label: str = ""
    cpu: float = 0.0  # process CPU seconds, recorded for count_mstd only


def _mstd_modules() -> list:
    return [m for k, m in list(sys.modules.items()) if k == "mstd" or k.startswith("mstd.")]


def patch_everywhere(original: Callable, replacement: Callable) -> list[tuple[object, str]]:
    """Point every mstd module attribute bound to `original` at `replacement`."""
    patched = []
    for mod in _mstd_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))
    return patched


@dataclass
class Tracer:
    """Wraps the TARGETS (and the verify checks) and records their spans."""

    spans: list[Span] = field(default_factory=list)
    components: int = 0
    structured: int = 0
    subsets: dict[str, int] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        import mstd.cli  # imports every traced module, so all call sites exist
        import mstd.verify

        for module, attr in TARGETS:
            original = getattr(sys.modules[f"mstd.{module}"], attr)
            self._wrap_all(original, f"{module}.{attr}")
        checks = mstd.verify.CHECKS
        for check, fn in list(checks.items()):
            checks[check] = self._wrapper(fn, f"verify.{check}")
            self._undo.append((checks, check, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_all(self, original: Callable, name: str) -> None:
        traced = self._wrapper(original, name)
        for mod, attr in patch_everywhere(original, traced):
            self._undo.append((mod, attr, original))

    def _wrapper(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        local = self._local
        want_cpu = name == "enumerate_subsets.count_mstd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            cpu0 = time.process_time() if want_cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if want_cpu:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
            self._count(name, span, args, kwargs, result)
            return result

        return traced

    def _count(self, name, span, args, kwargs, result) -> None:
        if name in ("enumerate_subsets.count_mstd", "enumerate_subsets.count_avoiding"):
            group = args[0] if args else kwargs["group"]
            span.label = group_label(group)
            self.subsets[name] = self.subsets.get(name, 0) + (1 << group.order)
        elif name == "forbiddance.decompose":
            self.components += len(result.components)
            self.structured += sum(1 for c in result.components if c.kind != "generic")

    # --- derived metrics --------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def busy(self, name: str, label: str | None = None) -> float:
        """Summed duration of the outermost spans of `name` (optionally one label)."""
        total = 0.0
        for s in self.spans:
            if s.name != name or (label is not None and s.label != label):
                continue
            if not self._nested_in_same(s):
                total += s.end - s.start
        return total

    def _nested_in_same(self, span: Span) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == span.name:
                return True
            p = self.spans[p].parent
        return False

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s.name == name)

    def cpu(self, name: str) -> float:
        return sum(s.cpu for s in self.spans if s.name == name and not self._nested_in_same(s))

    def covered(self) -> float:
        """Total self time of all spans, i.e. the time inside any traced layer."""
        return sum(self.self_times())

    def write(self, path) -> None:
        """One span per line: index, parent, name, label, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tlabel\tstart\tend\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s.parent}\t{s.name}\t{s.label}\t{s.start:.9f}\t{s.end:.9f}\n")
