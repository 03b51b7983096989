"""Span tracer that wraps module attributes of the program from outside.

`Tracer.wrap(owner, name, key)` replaces `owner.name` with a timing
wrapper; `Tracer.restore()` puts every original back. The program's
source is never edited, so a wrapped attribute is only seen when the
program looks it up at call time (a module global, a class attribute, or
a name the benchmark itself calls through the module).

A span's self time is its duration minus the duration of the spans it
caused. Spans are kept in memory as per-key aggregates: calls, inclusive
seconds, self seconds, calls of each child key, and whatever counts an
`on_call` hook adds at the same boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    children: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [key, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _get(self, key: str) -> SpanStats:
        return self.stats.setdefault(key, SpanStats())

    def wrap(self, owner, name: str, key, on_call=None) -> None:
        """Replace owner.name by a timed wrapper.

        `key` is the span name, or a function of (args, kwargs) giving it.
        on_call(stats, args, kwargs, result) runs after the span closes;
        its time counts in no span's self time.
        """
        original = getattr(owner, name)
        stack = self._stack
        clock = time.perf_counter
        key_of = key if callable(key) else (lambda args, kwargs: key)
        if not callable(key):
            self._get(key)  # a wrapped name never called reads as 0 calls

        def traced(*args, **kwargs):
            span = key_of(args, kwargs)
            entry = [span, 0.0]
            stack.append(entry)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats = self._get(span)
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - entry[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    children = self._get(parent[0]).children
                    children[span] = children.get(span, 0) + 1
            if on_call is not None:
                t1 = clock()
                on_call(stats, args, kwargs, result)
                if stack:  # the hook's cost is not the parent's work
                    stack[-1][1] += clock() - t1
            return result

        traced.__wrapped__ = original
        setattr(owner, name, traced)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
