"""In-memory span recording around module attributes, for the traced run.

A `Tracer` replaces chosen module or class attributes with wrappers that
record one span per call: name, start, end, parent span, op id, and an
optional note computed from the call's arguments (a point count, a
parameter-vector key).  `restore()` puts every original attribute back.
Everything here is single-threaded: the parent of a span is whatever span
was open when the call started.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into the tracer's span list
    op: int
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` recorded under span `name`."""

    owner: Any
    attr: str
    name: str
    note: Callable[[tuple, dict], Any] | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.originals = [t.owner.__dict__[t.attr] for t in targets]
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)      # reserve the slot so children index after it
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op,
                                    note(args, kwargs) if note is not None else None)

        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span of its own (the root span of an op)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self) -> None:
        for t, raw in zip(self.targets, self.originals):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, t.name, t.note))
            else:
                wrapped = self._wrap(raw, t.name, t.note)
            setattr(t.owner, t.attr, wrapped)

    def restore(self) -> None:
        for t, raw in zip(self.targets, self.originals):
            setattr(t.owner, t.attr, raw)

    def restored(self) -> bool:
        """True when every target attribute is its original object again."""
        return all(t.owner.__dict__[t.attr] is raw
                   for t, raw in zip(self.targets, self.originals))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent never overlap in a single-threaded run, but the
    union is taken anyway so that a malformed trace cannot go negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out
