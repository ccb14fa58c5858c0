"""Span tracer that times ibimpute's layers from outside the package.

Tracing wraps public functions of ``src/ibimpute`` at run time; no file of
the package changes.  Each wrapped call records a span (name, start, end,
parent, work) in memory.  A layer's self time is its span's duration minus
the durations of its direct children; because spans nest strictly (one
thread, stack discipline), the self times of all spans under a root add up
to exactly that root's duration.

``fit`` and the CLI call names they imported (``from .data import
apply_mask``), so a function is patched under every name, in every
``ibimpute`` module, that refers to the original object.  ``install``
records each patch and ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    work: float = 0.0  # a count attached by the wrapper (nodes, flops, ...)


@dataclass
class Target:
    """One function to wrap.

    ``attr`` is ``"name"`` for a module function or ``"Class.name"`` for a
    method.  ``span`` is the span name, or a callable ``(args, kwargs) ->
    name``.  ``work`` maps ``(args, kwargs, result)`` to the span's work
    count, and ``after`` runs on ``(tracer, args, result)`` once the span is
    closed.
    """

    module: str
    attr: str
    span: object
    work: object = None
    after: object = None


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    recording: bool = False
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, work: float = 0.0) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.work = work
        if not self._stack or self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def timed(self, name: str, fn, /, *args, work=None, **kwargs):
        """Call ``fn`` inside a span; ``work`` maps the result to a count."""
        if not self.recording:
            return fn(*args, **kwargs)
        idx = self.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self.close(idx, work(args, kwargs, result) if work and result is not None else 0.0)

    def wrap(self, fn, target: Target):
        span = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = span(args, kwargs) if callable(span) else span
            result = self.timed(name, fn, *args, work=target.work, **kwargs)
            if target.after is not None:
                target.after(self, args, result)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Patch every target under every name that refers to it."""
        modules = package_modules()
        for target in targets:
            owner, name = _owner(modules, target)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                self._patch(owner, name, classmethod(self.wrap(raw.__func__, target)))
                continue
            wrapped = self.wrap(raw, target)
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, wrapped)

    @contextmanager
    def tracing(self, targets: list[Target]):
        """Record spans with every target wrapped; restore them all on exit."""
        self.install(targets)
        self.recording = True
        try:
            yield self
        finally:
            self.restore()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.recording = False


def package_modules() -> list:
    """Every imported ``ibimpute`` module."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ibimpute" or name.startswith("ibimpute."))
    ]


def _owner(modules, target: Target):
    module = sys.modules[f"ibimpute.{target.module}"]
    if module not in modules:
        raise RuntimeError(f"ibimpute.{target.module} is not imported")
    cls_name, _, name = target.attr.rpartition(".")
    return (getattr(module, cls_name) if cls_name else module), name


def wrapped_names() -> list[str]:
    """Names under which a tracer wrapper is installed; empty when untraced."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if getattr(value, "perfbench_wrapper", False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, "perfbench_wrapper", False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: open spans or children outside parents."""
    problems = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                problems.append(f"span {i} ({s.name}) lies outside its parent")
    return problems
